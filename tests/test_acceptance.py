"""Acceptance suite.

Each test is one acceptance criterion, checked at exact arithmetic with a
wall-clock budget; a single summary line per criterion is printed (run
pytest with -s to see them inline).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from k3lat.exact_arith import invert
from k3lat.lattice_core import (
    DualVector,
    class_of,
    elementary_factors,
    is_even,
    lattice_A1,
    lattice_D4,
)
from k3lat.root_systems import ade_type, bounded_class_minimizers, norms_all_odd
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    artin_invariant,
    build_overlattice,
    canonical_positivity,
    exceptional_root_analysis,
    extra_glue_class,
    halfline_class,
    independence_check,
    polarization_roots,
    unique_halfline_search,
)
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import (
    normal_form_sextic,
    recognize_normal_form,
    recognize_surface,
)
from k3lat.char2_surfaces.surfaces import (
    analyze_singularities,
    is_splitting,
    line_through,
    point_on_line,
    scan_splitting_lines,
    schroeer_sextic,
    table_lines,
    table_points,
    total_milnor,
)
from rational_oracles import coords, enumerate_roots, norm, snf
from surface_oracles import nonreduced_lines


@contextmanager
def criterion(number: int, budget_s: float, summary: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:02d} FAIL  {summary}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS  ({elapsed * 1000:9.1f} ms)  {summary}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


DUAL_D4 = (
    (-1, Fraction(-1, 2), -1, Fraction(-1, 2)),
    (Fraction(-1, 2), -1, -1, Fraction(-1, 2)),
    (-1, -1, -2, -1),
    (Fraction(-1, 2), Fraction(-1, 2), -1, -1),
)


def test_criterion_01_dual_basis_exactness():
    gram = lattice_D4().gram
    with criterion(1, 0.001, "inverse of the D4 Gram equals the dual-basis matrix"):
        num, den = invert(gram)
        assert tuple(tuple(Fraction(x, den) for x in row) for row in num.entries) == DUAL_D4


def test_criterion_02_bounded_class_searches():
    with criterion(2, 1.0, "bounded class searches reproduce the norm dichotomies"):
        a1 = lattice_A1()
        d4 = lattice_D4()

        # norms in half-units, 2 v*v; each search is exhaustive down to its
        # threshold, so the first norm below the maximum is the runner-up
        cases = [
            (a1, a1.zero(), -4, 0, [(Fraction(0),)]),
            (a1, a1.dual_basis_vector(0), -9, -1, [(Fraction(-1, 2),)]),
            (d4, d4.zero(), -4, 0, [coords(d4.zero())]),
            (d4, d4.dual_basis_vector(0), -6, -2, [coords(d4.dual_basis_vector(0))]),
        ]
        for lattice, rep, threshold2, max_norm2, top in cases:
            cls = class_of(rep)
            found = bounded_class_minimizers(lattice, cls, threshold2)
            den = cls.component[1]
            assert found[0][0] == max_norm2
            assert [coords(DualVector(lattice, y, den)) for n2, y in found if n2 == max_norm2] == top
            rest = [n2 for n2, _ in found if n2 < max_norm2]
            assert rest and rest[0] <= threshold2 and found[-1][0] >= threshold2
        assert norms_all_odd(d4, d4.dual_basis_vector(0))


def test_criterion_03_root_counts():
    with criterion(3, 1.0, "root counts match the box oracle and the fork diagram types"):
        import itertools

        for lat, expected in ((lattice_A1(), 2), (lattice_D4(), 24)):
            rs = enumerate_roots(lat)
            assert len(rs) == expected
            g = lat.gram
            n = lat.rank
            box = {
                v
                for v in itertools.product(range(-5, 6), repeat=n)
                if sum(v[i] * g.entries[i][j] * v[j] for i in range(n) for j in range(n)) == -2
            }
            assert set(rs.roots) == box
        d4 = lattice_D4()
        total = d4.zero()
        for i in range(4):
            total = total + d4.dual_basis_vector(i)
        assert ade_type(enumerate_roots(d4), total.pairing_numerators()) == ["D4"]


def test_criterion_04_overlattice_arithmetic(ls, ns):
    with criterion(4, 5.0, "glue construction: determinants, index, parity, invariants"):
        base = ls.lattice
        assert base.det() == -(2**14)
        assert base.inertia() == (1, 21, 0)
        assert [f for f in snf(base.gram).invariant_factors if f > 1] == [2] * 14

        glue = [halfline_class(ls, lam) for lam in L_LABELS]
        assert independence_check(glue) == 5

        assert ns.index == 2**5
        assert ns.lattice.det() == -(2**4)
        assert is_even(ns.lattice)
        assert elementary_factors(ns.lattice) == [2] * 4
        assert artin_invariant(ns.lattice) == 2

        extra = extra_glue_class(ls, "w")
        ns1 = build_overlattice(ls, tuple(glue) + (extra,))
        assert ns1.lattice.det() == -(2**2)
        assert artin_invariant(ns1.lattice) == 1


def test_criterion_05_maximal_rdp_structure(ns):
    with criterion(5, 60.0, "polarization complement decomposes as 4 D4 + 5 A1 of rank 21"):
        report = exceptional_root_analysis(ns)
        assert report.complement_rank == 21
        assert report.complement_inertia == (0, 21, 0)
        labels = ade_type(polarization_roots(ns), canonical_positivity(ns))
        assert sorted(labels) == ["A1"] * 5 + ["D4"] * 4
        assert report.type_string == "4D4+5A1"
        assert report.total_component_rank == 21
        assert report.total_component_rank == ns.lattice.rank - 1


def test_criterion_06_halfline_uniqueness(ls, ns):
    with criterion(6, 30.0, "each half-line class is the unique budget-feasible candidate"):
        for lam in L_LABELS:
            res = unique_halfline_search(halfline_class(ls, lam), ns)
            assert len(res.candidates) == 1
            assert res.is_unique_expected()
            v = res.candidates[0]
            assert norm(v) == -2
            total = Fraction(0)
            for s in ls.summands[1:]:
                total += norm(ls.component(v, s))
            assert total == Fraction(-5, 2)
            assert res.budget_checked >= 1


def test_criterion_07_surface_samples(gf256):
    f = gf256
    rng = random.Random(20260808)
    samples = []
    while len(samples) < 20:
        r = rng.randrange(1, f.q)
        s = rng.randrange(1, f.q)
        if r and s and f.pow(r, 3) != f.pow(s, 3):
            samples.append((r, s))
    with criterion(7, 120.0, "20 field samples carry the nine-point five-line shape"):
        for r, s in samples:
            g = schroeer_sextic(f, r, s)
            types = analyze_singularities(g)
            assert set(types) == set(table_points(f, r, s).values())
            assert sorted(types.values()) == ["A1"] * 5 + ["D4"] * 4
            assert total_milnor(types) == 21
            for name, l in table_lines(f, r, s).items():
                cert = is_splitting(g, l)
                assert cert is not None, name
                assert (HomPoly.linear(f, cert.line) * cert.quintic) + cert.cubic.square() == g


def test_criterion_08_dichotomy_exhaustive(gf16):
    f = gf16
    with criterion(8, 120.0, "extra diagonal line splits exactly on the cube locus (225 pairs)"):
        for r in range(1, f.q):
            for s in range(1, f.q):
                g = schroeer_sextic(f, r, s)
                m = line_through(f, (0, 0, 1), (r, s, 1))
                splits = is_splitting(g, m) is not None
                assert splits == (f.pow(r, 3) == f.pow(s, 3)), (r, s)


def _config_profile(field, g):
    """Combinatorial invariant of a configuration: point and line incidence."""
    types = analyze_singularities(g)
    lines = [cert.line for cert in scan_splitting_lines(g)]
    point_profile = sorted(
        (t, sum(1 for l in lines if point_on_line(field, p, l))) for p, t in types.items()
    )
    line_profile = sorted(
        tuple(sorted(t for p, t in types.items() if point_on_line(field, p, l))) for l in lines
    )
    return point_profile, line_profile


def test_criterion_09_recognition_roundtrip(gf256):
    f = gf256
    rng = random.Random(99)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with criterion(9, 120.0, "normal-form parameter recovered and round-trips the family"):
        for _ in range(20):
            t = rng.randrange(1, f.q)
            g = normal_form_sextic(f, t)
            assert recognize_normal_form(g, identity) == t
            terms = {}
            for l in range(4):
                for m in range(4 - l):
                    if rng.random() < 0.5:
                        terms[(l, m, 3 - l - m)] = rng.randrange(f.q)
            gamma = HomPoly(f, 3, terms)
            assert recognize_normal_form(g + gamma.square(), identity) == t

        s = f.exp[1]
        assert f.pow(s, 3) != 1  # r = 1, s generator: off the cube locus
        g1s = schroeer_sextic(f, 1, s)
        t = recognize_surface(g1s)
        assert t != 0
        gt1 = schroeer_sextic(f, t, 1)
        types = analyze_singularities(gt1)
        assert set(types) == set(table_points(f, t, 1).values())
        assert total_milnor(types) == 21
        for name, l in table_lines(f, t, 1).items():
            cert = is_splitting(gt1, l)
            assert cert is not None and cert.verify(gt1)
        assert _config_profile(f, g1s) == _config_profile(f, gt1)


def _bounded_nonreduced_lines(c, g):
    """The non-reduced lines of w^2 + w*C + G, by brute force over every line
    of the plane; each must divide C (divide_by_linear raises otherwise), so
    there are at most deg C = 3."""
    lines = nonreduced_lines(c, g)
    for l in lines:
        c.divide_by_linear(l)
    assert len(lines) <= 3
    return lines


def test_criterion_10_separable_nonreduced_bound(gf16):
    f = gf16
    with criterion(10, 10.0, "non-reduced lines of separable covers divide the cubic term"):
        c3 = HomPoly(f, 3, {(1, 1, 1): 1})
        g6 = HomPoly(f, 6, {(2, 2, 2): 1})
        lines = _bounded_nonreduced_lines(c3, g6)
        assert lines == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

        c0 = next(c for c in range(1, f.q) if all(f.sqr(u) ^ u ^ c for u in range(f.q)))
        quad = HomPoly(f, 2, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): c0})
        c_single = HomPoly(f, 1, {(0, 0, 1): 1}) * quad
        g_single = HomPoly(f, 6, {(5, 0, 1): 1, (0, 6, 0): 1})
        assert _bounded_nonreduced_lines(c_single, g_single) == [(0, 0, 1)]
