"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import copy
import random
import sys

import gf256
import run
import tracer
import workloads

from k3lat.char2_surfaces import BinaryField, HomPoly


def test_corrupt_glue_op_fails_and_is_left_out_of_timings():
    good = workloads.lattice_op("1")
    bad = workloads.lattice_op("1")
    bad.args = bad.args + ["--inject-corrupt-glue"]
    _, result, _ = run.measure([good, bad])
    assert [r.ok for r in result.results] == [True, False]
    assert 'report says "pass": false' in result.results[1].problems
    assert result.op_times == [result.results[0].child.time_s]
    assert result.run_s == result.results[0].child.time_s


def test_family_check_rejects_a_tampered_certificate():
    res = run.run_op(workloads.family_op(5, 1))
    assert res.ok, res.problems
    report = copy.deepcopy(res.report)
    case = next(c for c in report["checks"] if c["name"].startswith("surface_"))
    term = case["witness"]["certificates"][0]["quintic"][0]
    term["coeff"] = format(int(term["coeff"], 2) ^ 1, "b")
    assert any("l*Q + C^2 != G" in p for p in workloads.check_family(report, 1))


def test_recognition_input_is_the_frame_image_of_a_family_member():
    f = BinaryField(8)
    rng = random.Random(3)
    r, s = gf256.random_off_cube_pair(rng)
    g = gf256.schroeer_sextic(r, s)
    mat = ((3, 1, 0), (0, 7, 1), (1, 0, 9))
    assert gf256.det3(mat) != 0
    # g o mat, which is apply_frame(g, mat^-1) in the program's terms
    assert gf256.substitute(g, mat) == HomPoly(f, 6, g).compose_linear(mat).terms
    assert len(gf256.dense_family_member(random.Random(1))) == 28


def test_make_ops_is_a_function_of_the_seed():
    for workload in ("lattice", "family-k8", "recognize-k8"):
        a = workloads.make_ops(workload, 4, 10)
        b = workloads.make_ops(workload, 4, 10)
        assert [(o.args, o.files) for o in a] == [(o.args, o.files) for o in b]
    mix = [o.args[-1] for o in workloads.make_ops("lattice", 4, 30)]
    assert sorted(mix[:3]) == ["1", "w", "wb"]


def test_tracer_wraps_every_import_site_and_restores_them():
    import k3lat.cli
    from k3lat import exact_arith, lattice_core
    from k3lat.char2_surfaces import poly, recognize, surfaces

    before = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "k3lat" or name.startswith("k3lat.")
    }
    methods = dict(vars(poly.BinForm)), dict(vars(poly.HomPoly))
    sites = (
        (k3lat.cli, "is_splitting", surfaces.is_splitting),
        (recognize, "scan_splitting_lines", surfaces.scan_splitting_lines),
        (lattice_core, "det", exact_arith.det),
    )
    t = tracer.Tracer()
    t.install()
    try:
        for mod, attr, original in sites:
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
        assert poly.BinForm.is_square.__wrapped__ is methods[0]["is_square"]
    finally:
        t.restore()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert after == before
    assert (dict(vars(poly.BinForm)), dict(vars(poly.HomPoly))) == methods
