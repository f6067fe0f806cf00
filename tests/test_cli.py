import gc
import json
import os
import re
import subprocess
import sys
import time

import pytest

from k3lat import cli
from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import apply_frame, normal_form_sextic
from k3lat.char2_surfaces.surfaces import SurfaceError, schroeer_sextic
from k3lat.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, FLAGS, main, parse_args
from k3lat.configuration import L_LABELS
from k3lat.root_systems import ClassNormSearch

import argparse_oracle
from goldens import (
    DATA,
    EXTRA_GLUE_GOLDENS,
    FRAMED_INPUTS,
    GOLDENS,
    LATTICE_GOLDENS,
    SURFACE_GOLDENS,
    framed_normal_form,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing_ms"}


def golden_params(goldens):
    return [pytest.param(argv, code, report, id=name) for name, argv, code, report in goldens]


def assert_matches_golden(capsys, monkeypatch, argv, expected_code, golden):
    """Runs argv in tests/data, checks it against the golden and returns the report."""
    monkeypatch.chdir(DATA)
    code, out = run_cli(capsys, *argv)
    assert code == expected_code
    with open(golden, encoding="utf-8") as fh:
        expected = fh.read()
    report = json.loads(out)
    assert json.dumps(strip_timing(report), sort_keys=True, indent=2) + "\n" == expected
    return report


def test_lattice_default(capsys):
    code, out = run_cli(capsys, "lattice")
    assert code == EXIT_OK
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert report["pass"] is True
    assert names["overlattice_sigma2"]["witness"]["sigma"] == 2
    assert names["exceptional_root_type"]["witness"]["type"] == "4D4+5A1"
    assert names["halfline_uniqueness"]["pass"]


@pytest.mark.parametrize("argv,expected_code,golden", golden_params(EXTRA_GLUE_GOLDENS))
def test_lattice_with_extra_glue(capsys, monkeypatch, argv, expected_code, golden):
    # the whole report, apart from timing, is pinned byte for byte
    report = assert_matches_golden(capsys, monkeypatch, argv, expected_code, golden)
    names = {c["name"]: c for c in report["checks"]}
    assert names["overlattice_sigma1"]["witness"]["sigma"] == 1


@pytest.mark.parametrize("argv,expected_code,golden", golden_params(LATTICE_GOLDENS))
def test_lattice_report_matches_golden(capsys, monkeypatch, argv, expected_code, golden):
    assert_matches_golden(capsys, monkeypatch, argv, expected_code, golden)


# a fresh process counts every inverse of one whole run, at every loaded
# k3lat module that binds invert
INVERSE_COUNTER = """
import collections, json, os, sys
from k3lat import cli, exact_arith
seen = collections.Counter()
real = exact_arith.invert
def counting(a):
    seen[a.entries] += 1
    return real(a)
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "k3lat" and "invert" in vars(module):
        assert module.invert is real, name
        module.invert = counting
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "inverses": [[len(m), n] for m, n in seen.items()]}))
"""


def test_lattice_run_inverts_each_gram_at_most_once():
    proc = subprocess.run(
        [sys.executable, "-c", INVERSE_COUNTER, "lattice", "--with-extra-glue", "w"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    # the A1 and D4 Grams of the dual-basis vectors; the overlattice bases are
    # solved by back-substitution, so no 22 x 22 inverse is taken
    assert sorted(result["inverses"]) == [[1, 1], [4, 1]]


# a fresh process counts the glue vectors ns_glue builds in one whole run
GLUE_COUNTER = """
import collections, json, os, sys
from k3lat import cli, ns_glue
built = collections.Counter()
real = ns_glue.GlueVector
def counting(name, vector):
    built[name] += 1
    return real(name, vector)
ns_glue.GlueVector = counting
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "built": built}))
"""


def test_lattice_run_builds_each_halfline_glue_vector_once():
    # the overlattice and the five half-line searches share one vector per label
    proc = subprocess.run(
        [sys.executable, "-c", GLUE_COUNTER, "lattice", "--with-extra-glue", "w"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    assert result["built"] == {**{f"F({lam})": 1 for lam in L_LABELS}, "G(w)": 1}


# a fresh process runs one whole lattice run and lists each loaded k3lat
# module that binds a Smith form, an integer kernel, a complement or a root
# enumeration of a whole lattice
KERNEL_COUNTER = """
import json, os, sys
from k3lat import cli
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
names = ("snf", "kernel_basis", "orthogonal_complement", "Sublattice", "enumerate_roots")
bound = [
    f"{name}.{attr}"
    for name, module in sys.modules.items()
    if name.split(".")[0] == "k3lat"
    for attr in names
    if attr in vars(module)
]
print(json.dumps({"code": code, "bound": bound}))
"""


def test_lattice_run_puts_no_overlattice_gram_in_smith_form():
    # no Smith form and no integer kernel is taken at all: the base Gram's
    # discriminant witness and the 2-elementarity of the sigma = 2 Gram come
    # from det and the F_2 corank, discriminant classes from coordinates
    # mod 1, and the roots orthogonal to h from the glue classes and the
    # summands, with no complement of h
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_COUNTER, "lattice", "--with-extra-glue", "w"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    assert result["bound"] == []


# a fresh process counts the G v products of one whole run, per matrix, and
# those by the sigma = 2 overlattice Gram
MUL_VEC_COUNTER = """
import collections, json, sys
from k3lat import cli, configuration, exact_arith, ns_glue
seen = collections.Counter()
real = exact_arith.IntMatrix.mul_vec
def counting(self, v):
    seen[self.entries] += 1
    return real(self, v)
exact_arith.IntMatrix.mul_vec = counting
code = cli.main(sys.argv[1:])
exact_arith.IntMatrix.mul_vec = real
ls = ns_glue.build_lambda()
ns = ns_glue.build_overlattice(ls, tuple(ns_glue.halfline_class(ls, lam) for lam in configuration.L_LABELS))
calls = [[len(m), len(m[0]), n] for m, n in seen.items()]
print(json.dumps({"code": code, "calls": calls, "sigma2": seen[ns.lattice.gram.entries]}))
"""


def test_lattice_run_multiplies_by_the_overlattice_gram_once_per_root_and_indecomposable(tmp_path):
    # polarization_roots takes G r once per root for its norm and degree
    # re-check, and ade_type takes G e once per simple root
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", MUL_VEC_COUNTER, "lattice", "--with-extra-glue", "w", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    checks = {c["name"]: c["witness"] for c in json.loads(out.read_text())["checks"]}
    witness = checks["exceptional_root_type"]
    budget = witness["root_count"] + witness["total_component_rank"]
    assert budget == 106 + 21
    assert result["sigma2"] == budget
    assert not [n for rows, cols, n in result["calls"] if rows == cols == 21]


# a fresh process counts the symmetric eliminations of one whole run, by matrix size
ELIMINATION_COUNTER = """
import collections, json, os, sys
from k3lat import cli, exact_arith
seen = collections.Counter()
real = exact_arith._eliminate
def counting(a):
    seen[a.rows] += 1
    return real(a)
exact_arith._eliminate = counting
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "calls": seen}))
"""


def test_lattice_run_eliminates_each_rank_22_gram_once():
    # every Gram is eliminated once, for its determinant, its signature and
    # its root enumeration alike: the base, sigma = 2 and sigma = 1 Grams,
    # D4, A1 and H; the complement's signature is the base's, less the
    # polarization's sign, so no rank-21 complement Gram is built
    proc = subprocess.run(
        [sys.executable, "-c", ELIMINATION_COUNTER, "lattice", "--with-extra-glue", "w"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    assert result["calls"] == {"22": 3, "4": 1, "1": 2}


# a fresh process counts every coset enumeration of one whole run, and the
# rank of the Gram of every enumeration, with or without a coset
COSET_COUNTER = """
import collections, json, os, sys
from k3lat import cli, root_systems
seen = collections.Counter()
ranks = collections.Counter()
real = root_systems.short_vectors
def counting(gram, bound, coset=None):
    ranks[gram.rows] += 1
    if coset is not None:
        seen[repr((gram.entries, bound, coset))] += 1
    return real(gram, bound, coset)
root_systems.short_vectors = counting
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "scans": seen, "ranks": ranks}))
"""


def _count_coset_enumerations(*argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", COSET_COUNTER, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    return result


def test_lattice_run_shares_class_scans_with_the_halfline_walk():
    # the 4 class checks search down to their thresholds (-4, -9, -4, -6 in
    # half-units) and the 5 half-line classes down to the budget -5, 9
    # searches in all although the 5 walks visit 45 summands.  On the A1 and
    # D4 zero classes the floors -4 and -5 ask for the same bound 2 on
    # -x^T G x, and the enumeration is keyed on that bound: 7 enumerations.
    # The root lists of the 16 glue classes orthogonal to h ask for norm
    # >= -2: the zero classes at the same bound 2, shared, and the A1 class
    # and the three D4 classes of denominator 2 at the bound 8, 4 more.  11
    # enumerations, each run once
    scans = _count_coset_enumerations("lattice", "--with-extra-glue", "w")["scans"]
    assert sorted(scans.values()) == [1] * 11


def test_lattice_run_enumerates_no_gram_of_rank_above_4():
    # the roots orthogonal to h come from the A1 and D4 summands: no
    # enumeration runs on the rank-21 complement or any rank-22 Gram
    ranks = _count_coset_enumerations("lattice", "--with-extra-glue", "w")["ranks"]
    assert ranks and max(map(int, ranks)) <= 4


def test_class_search_check_requires_the_outside_bound_below_the_runner_up(capsys, monkeypatch):
    # searches that promise nothing below one half-unit above each threshold:
    # every vector not found is only known to lie below floor2, so the
    # runner-ups at the thresholds are not certified and the check fails
    # with the witness unchanged
    real = cli.bounded_class_minimizers

    def raised_floor(lattice, cls, floor2):
        s = real(lattice, cls, floor2)
        return ClassNormSearch(
            max_norm2=s.max_norm2,
            maximizers=s.maximizers,
            runner_up2=s.runner_up2,
            floor2=floor2 + 1,
            norms_all_odd=s.norms_all_odd,
            found=s.found,
        )

    monkeypatch.setattr(cli, "bounded_class_minimizers", raised_floor)
    code, out = run_cli(capsys, "lattice")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    with open(os.path.join(DATA, "lattice_default.json"), encoding="utf-8") as fh:
        golden = {c["name"]: c for c in json.load(fh)["checks"]}
    check = checks["bounded_class_searches"]
    assert code == EXIT_CHECK_FAILED and check["pass"] is False
    assert check["witness"] == golden["bounded_class_searches"]["witness"]


def test_lattice_corrupted_glue_fails_with_witness(capsys):
    code, out = run_cli(capsys, "lattice", "--inject-corrupt-glue")
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out)
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed
    assert all("witness" in c for c in failed)
    # a check that raised names the exception type next to its message
    raised = {c["name"]: c["witness"] for c in failed if "error_type" in c["witness"]}
    assert raised == {
        "overlattice_sigma2": {
            "error": "glue vector F(0*) does not pair integrally with the base",
            "error_type": "GlueError",
        }
    }


def test_surface_single_pair(capsys):
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    case = report["checks"][0]
    assert case["witness"]["milnor"] == 21
    assert len(case["witness"]["points"]) == 9
    assert len(case["witness"]["splitting_lines"]) == 5


def test_raising_surface_case_names_the_exception_type(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SurfaceError("no nine-point configuration")

    monkeypatch.setattr(cli, "verify_configuration", broken)
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_CHECK_FAILED
    case = json.loads(out)["checks"][0]
    assert case["pass"] is False
    assert case["witness"] == {
        "r": "1",
        "s": "2",
        "error": "no nine-point configuration",
        "error_type": "SurfaceError",
    }


def test_surface_cube_locus_pair(capsys):
    f = BinaryField(4)
    w = f.omega()
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", format(w, "x"))
    assert code == EXIT_OK
    report = json.loads(out)
    case = report["checks"][0]
    assert len(case["witness"]["splitting_lines"]) == 7
    dich = report["checks"][-1]
    assert dich["name"] == "extra_line_dichotomy"
    assert dich["witness"]["cases"][0]["splits"] is True


@pytest.mark.parametrize("argv,expected_code,golden", golden_params(SURFACE_GOLDENS))
def test_surface_report_matches_golden(capsys, monkeypatch, argv, expected_code, golden):
    assert_matches_golden(capsys, monkeypatch, argv, expected_code, golden)


def test_framed_recognition_inputs_are_their_seeded_frames():
    for name, (k, modulus, t, seed) in FRAMED_INPUTS.items():
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            assert HomPoly.from_json(fh.read()) == framed_normal_form(k, modulus, t, seed)


def test_every_surface_case_is_timed_under_its_check_name(capsys):
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["surface_r=1_s=2", "extra_line_dichotomy"]
    assert sorted(report["timing_ms"]) == sorted(names)


def test_surface_k12_family_member_finishes(tmp_path):
    # PG(2, 4096) has 16.8 million lines and 16.8 million points: a search
    # that visits each of them, for the scan or for the singular points,
    # does not end in time; the full line scan must not either
    f = BinaryField(12, 0x1053)
    framed = apply_frame(normal_form_sextic(f, 0x123), ((1, 0x5A, 3), (7, 1, 0x9C), (0x21, 0x400, 1)))
    path = tmp_path / "framed.json"
    path.write_text(framed.to_json())
    member = ["surface", "--k", "12", "--modulus", "0x1053", "--r", "3", "--s", "5"]
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in (member, ["surface", "--recognize", str(path), "--line-scan", "full"]):
        proc = subprocess.run(
            [sys.executable, "-m", "k3lat.cli", *argv, "--format", "text"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, argv
        assert "PASS overall" in proc.stdout


def test_surface_rejects_degenerate_without_flag(capsys):
    code = main(["surface", "--k", "4", "--r", "0", "--s", "2"])
    capsys.readouterr()
    assert code == EXIT_USAGE


@pytest.mark.parametrize("r, s", [("0", "2"), ("0", "0")], ids=["r0-s2", "r0-s0"])
def test_surface_with_a_degenerate_pair_fails_without_a_traceback(capsys, r, s):
    code = main(["surface", "--k", "4", "--r", r, "--s", s, "--allow-degenerate"])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert "Traceback" not in captured.err
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    case = checks[f"surface_r={r}_s={s}"]
    assert case["pass"] is False and case["witness"]["findings"]
    dichotomy = checks["extra_line_dichotomy"]
    assert dichotomy["pass"] is False
    if s == "0":
        # r = s = 0 puts the two fork points together, so no line joins them
        assert dichotomy["witness"]["error_type"] == "SurfaceError"


def test_surface_sampling_deterministic(capsys):
    code1, out1 = run_cli(capsys, "surface", "--k", "4", "--samples", "2", "--seed", "9")
    code2, out2 = run_cli(capsys, "surface", "--k", "4", "--samples", "2", "--seed", "9")
    assert code1 == code2 == EXIT_OK
    r1 = strip_timing(json.loads(out1))
    r2 = strip_timing(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_sampled_pairs_are_distinct(capsys):
    # GF(16) has 180 pairs off the cube locus; 20 draws with replacement at the
    # default seed 1 would repeat one
    code, out = run_cli(capsys, "surface", "--k", "4", "--samples", "20")
    assert code == EXIT_OK
    report = json.loads(out)
    cases = [c["name"] for c in report["checks"] if c["name"].startswith("surface_")]
    assert len(cases) == len(set(cases)) == 20
    assert len(report["timing_ms"]) == 21
    assert len(report["checks"][-1]["witness"]["cases"]) == 20


def test_all_subcommand(capsys):
    code, out = run_cli(capsys, "all", "--samples", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "base_lattice" in names
    assert any(n.startswith("surface_") for n in names)


def test_text_format(capsys):
    code, out = run_cli(capsys, "lattice", "--format", "text")
    assert code == EXIT_OK
    assert "PASS base_lattice" in out
    assert "PASS overall" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "lattice", "--out", str(path))
    assert code == EXIT_OK
    report = json.loads(path.read_text())
    assert report["pass"] is True
    # the file gets exactly the bytes the report would print
    code, out = run_cli(capsys, "lattice", "--format", "text")
    text_path = tmp_path / "report.txt"
    assert run_cli(capsys, "lattice", "--format", "text", "--out", str(text_path)) == (code, "")
    assert text_path.read_text() == out


# one command per exit code, a text run and an --out run, with the exit code
# each ends with; each runs in a fresh directory, so --out names report.json
EXIT_PATHS = [
    ("exit-0", ["surface", "--k", "4", "--r", "1", "--s", "2"], EXIT_OK),
    ("exit-1", ["surface", "--k", "4", "--r", "0", "--s", "5", "--allow-degenerate"],
     EXIT_CHECK_FAILED),
    ("exit-2", ["surface", "--k", "3"], EXIT_USAGE),
    ("exit-2-parse", ["lattice", "--k", "4"], EXIT_USAGE),
    ("text", ["surface", "--k", "4", "--r", "0", "--s", "5", "--allow-degenerate",
              "--format", "text"], EXIT_CHECK_FAILED),
    ("out", ["lattice", "--with-extra-glue", "w", "--out", "report.json"], EXIT_OK),
]


def _untimed(data: bytes) -> bytes:
    # a timing_ms block is flat: check name to milliseconds
    return re.sub(rb'"timing_ms": \{[^}]*\}', b'"timing_ms": {}', data)


@pytest.mark.parametrize(
    "argv, expected_code", [pytest.param(argv, code, id=name) for name, argv, code in EXIT_PATHS]
)
def test_a_cli_process_ends_as_an_in_process_main_call(
    tmp_path, capsys, monkeypatch, argv, expected_code
):
    # python -m k3lat.cli freezes the heap after main returns; the exit code,
    # the streams and the --out file are the bytes main gives in-process, and
    # main itself freezes nothing. The process gets no PYTHONUNBUFFERED, so
    # its piped stdout is block-buffered and must be flushed at exit
    outputs = []
    for side in ("process", "in-process"):
        cwd = tmp_path / side
        cwd.mkdir()
        if side == "process":
            proc = subprocess.run(
                [sys.executable, "-m", "k3lat.cli", *argv],
                cwd=cwd,
                env={
                    "PATH": os.environ.get("PATH", os.defpath),
                    "PYTHONPATH": os.path.abspath(SRC),
                },
                capture_output=True,
                timeout=60,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            monkeypatch.chdir(cwd)
            frozen = gc.get_freeze_count()
            code = main(list(argv))
            assert gc.get_freeze_count() == frozen
            captured = capsys.readouterr()
            out, err = captured.out.encode(), captured.err.encode()
        report = cwd / "report.json"
        written = _untimed(report.read_bytes()) if report.exists() else None
        outputs.append((code, _untimed(out), err, written))
    assert outputs[0] == outputs[1]
    code, out, err, written = outputs[0]
    assert code == expected_code
    assert (err != b"") == (code == EXIT_USAGE)
    assert (written is not None) == ("--out" in argv)
    if "--out" in argv:
        assert out == b"" and b'"sigma": 1' in written
    if "text" in argv:
        assert out.startswith(b"FAIL surface_r=0_s=5")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error_before_any_suite(tmp_path, capsys, monkeypatch, where):
    path = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    ran = []
    monkeypatch.setattr(cli, "cmd_lattice", ran.append)
    monkeypatch.setattr(cli, "cmd_surface", lambda args, g=None: ran.append(args))
    for command in ("lattice", "surface", "all"):
        assert main([command, "--out", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
    assert ran == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "8", "--r", "zz", "--s", "1"],
        ["--k", "8", "--r", "1"],
        ["--k", "4", "--r", "1f", "--s", "1"],
        ["--k", "4", "--r", "0", "--s", "2"],
        ["--k", "6", "--samples", "1"],
    ],
    ids=["r-not-hex", "r-without-s", "r-outside-the-field", "degenerate-pair", "k6-no-modulus"],
)
def test_bad_surface_arguments_are_usage_errors_before_any_suite(capsys, monkeypatch, flags):
    ran = []
    monkeypatch.setattr(cli, "cmd_lattice", ran.append)
    monkeypatch.setattr(cli, "cmd_surface", lambda args, *rest: ran.append(args))
    errors = []
    for command in ("surface", "all"):
        assert main([command, *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert ran == []
    # all reports the same message as surface
    assert errors[0] == errors[1] != ""


def test_bad_modulus_names_the_accepted_forms(capsys):
    for command in ("surface", "all"):
        assert main([command, "--modulus", "zz"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --modulus: 'zz'" in err
        assert "decimal" in err and "0x" in err and "0b" in err
        assert "<lambda>" not in err


def test_usage_error_exit_code(capsys):
    assert main(["surface", "--k", "7"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_recognize_file(tmp_path, capsys):
    f = BinaryField(4)
    g = normal_form_sextic(f, 9)
    path = tmp_path / "poly.json"
    path.write_text(g.to_json())
    code, out = run_cli(capsys, "surface", "--k", "4", "--recognize", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checks"][0]["witness"]["t"] == "9"


def test_recognize_takes_its_field_from_the_file(tmp_path, capsys):
    # no modulus is shipped for k = 6, and recognition never needs one
    path = tmp_path / "poly.json"
    path.write_text(normal_form_sextic(BinaryField(4), 9).to_json())
    code, out = run_cli(capsys, "surface", "--k", "6", "--recognize", str(path), "--format", "text")
    assert code == EXIT_OK
    assert "PASS overall" in out


def _poly_file_text(k, modulus_bits, terms):
    return json.dumps({"field": {"k": k, "modulus_bits": modulus_bits}, "degree": 6, "terms": terms})


def _with_a_repeated_term(g, exp):
    """g's file with the term at exp given a second time, with coefficient 1."""
    obj = g.to_json_obj()
    assert any(t["exp"] == exp for t in obj["terms"])
    obj["terms"].append({"exp": exp, "coeff": "1"})
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        _poly_file_text(20, "1" + "0" * 19 + "1001", []),
        json.dumps([1, 2, 3]),
        _poly_file_text(4, "10011", [{"exp": [1, 1, 1], "coeff": "1"}]),
        _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "2"}]),
        _with_a_repeated_term(normal_form_sextic(BinaryField(8), 3), [1, 2, 3]),
        json.dumps({"field": {"k": 4, "modulus_bits": "10011"}, "degree": 6.0, "terms": []}),
        _poly_file_text(4, "10011", [{"exp": [1.0, 2, 3], "coeff": "1"}]),
        HomPoly(BinaryField(4), 0, {(0, 0, 0): 1}).to_json(),
        HomPoly(BinaryField(4), 5, {(5, 0, 0): 1, (0, 2, 3): 3}).to_json(),
        HomPoly(BinaryField(4), 7, {(0, 0, 7): 1, (3, 4, 0): 5}).to_json(),
        # two terms; recognized as a form, it took seconds and cited a sextic's Bezout bound
        HomPoly(BinaryField(4), 1600, {(1600, 0, 0): 1, (0, 1, 1599): 1}).to_json(),
        # json gave up with a RecursionError traceback
        "[" * 200000 + "]" * 200000,
        # GF(2^True) was built and recognition failed on it
        _poly_file_text(True, "11", [{"exp": [1, 4, 1], "coeff": "1"}]),
        # rejected only through the TypeError of 1 << 8.0
        _poly_file_text(8.0, "100011011", [{"exp": [1, 4, 1], "coeff": "1"}]),
    ],
    ids=[
        "not-json",
        "k20-field",
        "not-an-object",
        "wrong-degree",
        "coeff-not-binary",
        "repeated-exponent",
        "float-degree",
        "float-exponent",
        "degree-0",
        "degree-5",
        "degree-7",
        "degree-1600",
        "nested-json",
        "bool-k",
        "float-k",
    ],
)
def test_bad_recognize_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "poly.json"
    path.write_text(text)
    for command in ("surface", "all"):
        assert main([command, "--recognize", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--recognize" in captured.err


def test_recognize_file_of_another_degree_is_named_before_any_work(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(HomPoly(BinaryField(4), 1600, {(1600, 0, 0): 1, (0, 1, 1599): 1}).to_json())
    start = time.perf_counter()
    assert main(["surface", "--recognize", str(path)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "degree 1600" in capsys.readouterr().err


def test_sextic_failing_recognition_is_a_failed_check(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(schroeer_sextic(BinaryField(4), 0, 0).to_json())
    code, out = run_cli(capsys, "surface", "--recognize", str(path))
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["checks"][0]["pass"] is False


# every accepted input ends in bounded time; each argv below is a usage error
# and runs under a timeout, so a hang (GF(4) has no off-cube pair) fails the test
UNBOUNDED_OR_VACUOUS = [
    pytest.param(["surface", "--k", "2", "--samples", "1"], id="k2-sampling"),
    pytest.param(["surface", "--k", "4", "--samples", "181"], id="k4-more-samples-than-pairs"),
    pytest.param(["surface", "--samples", "0"], id="samples-0"),
    pytest.param(["surface", "--samples", "-1"], id="samples-negative"),
    pytest.param(["lattice", "--lemma-box", "2"], id="lemma-box-2"),
    pytest.param(["lattice", "--lemma-box", "17"], id="lemma-box-17"),
    pytest.param(["all", "--lemma-box", "1000000"], id="lemma-box-huge"),
    pytest.param(["lattice", "--lemma-box", "3"], id="lemma-box-3"),
    pytest.param(["all", "--lemma-box", "3"], id="all-lemma-box-3"),
    pytest.param(["surface", "--k", "3", "--modulus", "0b1011", "--samples", "1"],
                 id="odd-k-sampling"),
    pytest.param(["surface", "--k", "5", "--modulus", "0b100101", "--r", "1", "--s", "2"],
                 id="odd-k-pair"),
    pytest.param(["surface", "--k", "4", "--r", "zz", "--s", "1"], id="r-not-hex"),
    pytest.param(["surface", "--k", "4", "--r", "1", "--s", "0x"], id="s-empty-hex"),
    pytest.param(["surface", "--recognize", os.path.join(DATA, "no_such_file.json")],
                 id="recognize-missing-file"),
    pytest.param(["surface", "--recognize", os.path.join(DATA, "lattice_extra_glue_1.json")],
                 id="recognize-wrong-schema"),
    pytest.param(["all", "--recognize", os.path.join(DATA, "no_such_file.json")],
                 id="all-recognize-missing-file"),
    pytest.param(["surface", "--line-scan", "singular"], id="line-scan-singular"),
    pytest.param(["surface", "--k", "4", "--modulus=-19", "--r", "1", "--s", "2"],
                 id="negative-modulus"),
]


@pytest.mark.parametrize("argv", UNBOUNDED_OR_VACUOUS)
def test_unbounded_or_vacuous_flags_are_usage_errors(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "k3lat.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""


def test_k2_with_explicit_pair_is_accepted(capsys):
    code, out = run_cli(capsys, "surface", "--k", "2", "--r", "1", "--s", "1")
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_all_declares_the_union_of_lattice_and_surface_flags():
    lat, surf, both = (FLAGS[c] for c in ("lattice", "surface", "all"))
    assert both.keys() == lat.keys() | surf.keys()
    assert surf["--k"] == ("k", int, 8) and both["--k"] == ("k", int, 4)
    for flag, spec in both.items():
        if flag != "--k":
            assert spec == {**lat, **surf}[flag]
    defaults = {c: parse_args([c])[1] for c in FLAGS}
    assert set(defaults["all"]) == set(defaults["lattice"]) | set(defaults["surface"])
    # parsing a command line leaves the table's defaults as they were
    parse_args(["all", "--k", "6", "--with-extra-glue", "w", "--allow-degenerate"])
    assert {c: parse_args([c])[1] for c in FLAGS} == defaults


# argv for the flag table against the argparse front end it replaced: every
# golden command and every usage error above, negative values, repeated
# flags (the last wins), unknown flags, missing values, bad choices, help,
# and no arguments at all
ORACLE_ARGV = (
    [argv for _, argv, _, _ in GOLDENS]
    + [p.values[0] for p in UNBOUNDED_OR_VACUOUS]
    + [
        ["surface", "--k", "4", "--modulus=-19"],
        ["surface", "--seed", "-3"],
        ["surface", "--seed", "-3.5"],
        ["surface", "--r", "-1", "--s", "2"],
        ["surface", "--k", "4", "--k", "16", "--modulus", "0x1002D", "--modulus", "0b10011"],
        ["lattice", "--format", "text", "--format=json", "--with-extra-glue", "1",
         "--with-extra-glue", "wb"],
        ["all", "--allow-degenerate", "--allow-degenerate", "--inject-corrupt-glue"],
        ["surface", "--out=", "--r=a=b", "--s", "-", "--recognize", "-x y"],
        ["lattice", "--bogus"],
        ["lattice", "--k", "4"],
        ["lattice", "extra"],
        ["-x", "lattice"],
        ["--format", "json", "lattice"],
        ["lattice", "--"],
        ["surface", "--k"],
        ["surface", "--out", "--format", "text"],
        ["surface", "--out", "-x"],
        ["surface", "--k=", "4"],
        ["surface", "--k", "x"],
        ["surface", "--samples", "x"],
        ["lattice", "--inject-corrupt-glue=1"],
        ["lattice", "--format", "xml"],
        ["lattice", "--format=json=x"],
        ["lattice", "--with-extra-glue", "2"],
        ["surface", "--line-scan", "none"],
        ["bogus"],
        [],
        ["-h"],
        ["--help", "bogus"],
        ["lattice", "-h"],
        ["surface", "--k", "4", "--help"],
        ["all", "-h", "--k", "x"],
        ["lattice", "--bogus", "-h"],
        ["-x", "-h"],
        ["surface", "--k", "x", "-h"],
        ["surface", "--out", "-h"],
        ["lattice", "-hx"],
        ["lattice", "--help=x"],
    ]
)


def _argv_id(argv):
    """argv as a test id: files by their names, and no spaces."""
    return "_".join(os.path.basename(arg).replace(" ", "-") for arg in argv) or "no-arguments"


def _table_outcome(argv):
    """parse_args's result in argparse_oracle.parse's shape."""
    try:
        parsed = parse_args(argv)
    except cli.UsageError:
        return "usage"
    return "help" if parsed is None else parsed


@pytest.mark.parametrize("argv", ORACLE_ARGV, ids=_argv_id)
def test_the_flag_table_parses_as_the_argparse_front_end(capsys, argv):
    expected = argparse_oracle.parse(argv)
    assert _table_outcome(argv) == expected
    assert type(expected) is tuple or expected in ("help", "usage")
    if expected == "usage":
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["surface", "--samp", "4"], ["lattice", "--with=w"], ["all", "--inject", "--allow"]],
    ids=_argv_id,
)
def test_a_flag_prefix_is_a_usage_error(capsys, argv):
    # argparse took a unique prefix of a flag; the table takes exact names only
    assert type(argparse_oracle.parse(argv)) is tuple
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: unrecognized arguments: --")


def _readme_usage_block() -> str:
    with open(os.path.join(SRC, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    start = readme.index("```sh\n", readme.index("\n## CLI\n")) + len("```sh\n")
    return readme[start:readme.index("```", start)]


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["lattice", "-h"], ["surface", "--help"], ["all", "--k", "4", "-h"]],
    ids=_argv_id,
)
def test_help_prints_the_readme_usage_block(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == _readme_usage_block()
    assert captured.err == ""
    assert all(flag in captured.out for table in FLAGS.values() for flag in table
               if flag != "--inject-corrupt-glue")


def test_a_process_without_arguments_is_a_usage_error():
    # perfbench times this run as setup_s, and counts it as set up only on exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "k3lat.cli"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
