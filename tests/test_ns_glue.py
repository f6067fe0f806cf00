import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat import exact_arith, lattice_core, ns_glue, root_systems
from k3lat.exact_arith import IntMatrix, hnf_rows
from k3lat.lattice_core import (
    is_even,
    is_p_elementary,
    orthogonal_complement,
)
from k3lat.ns_glue import (
    EXTRA_GLUE_CHOICES,
    GlueError,
    GlueVector,
    L_LABELS,
    Summand,
    a_vee,
    artin_invariant,
    build_lambda,
    build_overlattice,
    canonical_positivity,
    d_vee,
    exceptional_root_analysis,
    extra_glue_class,
    halfline_class,
    independence_check,
    unique_halfline_search,
)
from k3lat.root_systems import ClassNormSearch
from rational_oracles import (
    basis_vector,
    coords,
    f2_rank,
    invert_rational,
    norm,
    pairing,
    rat_mul,
    rat_mul_vec,
    rat_transpose,
    rational_class,
    rational_gv,
    snf,
    to_rational,
    vector,
)


import pytest


@pytest.fixture(scope="module")
def ls():
    return build_lambda()


@pytest.fixture(scope="module")
def ns(ls):
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    return build_overlattice(ls, glue)


def test_base_lattice_shape(ls):
    lat = ls.lattice
    assert lat.rank == 22
    assert lat.det() == -(2**14)
    assert lat.inertia() == (1, 21, 0)
    assert is_even(lat)
    # the summand table names the basis: h, then d1..d4 of each D4, then the A1s
    assert [(s.name, s.kind, s.offset, s.rank) for s in ls.summands[:2]] == [
        ("H", "H", 0, 1), ("P(00)", "D4", 1, 4)
    ]
    assert ls.summands[-1] == Summand("Q(inf)", "A1", 21, 1)


def test_base_discriminant_is_f2_14(ls):
    factors = snf(ls.lattice.gram).invariant_factors
    assert [f for f in factors if f > 1] == [2] * 14
    assert math.prod(factors) == 2**14


def test_halfline_norms_and_pairings(ls):
    vs = {lam: halfline_class(ls, lam).vector for lam in L_LABELS}
    for v in vs.values():
        assert norm(v) == -2
        assert v.is_dual_vector()
    # worked pairing: the 0* and *0 classes share only the polarization and
    # one mixed dual product, 1/2 - 1/2 = 0
    assert pairing(vs["0*"], vs["*0"]) == 0
    for a in vs.values():
        for b in vs.values():
            assert pairing(a, b).denominator == 1


def test_halfline_infinity_components(ls):
    v = halfline_class(ls, "inf").vector
    assert coords(v)[0] == Fraction(1, 2)
    assert all(coords(v)[off] == Fraction(-1, 2) for off in range(17, 22))
    assert all(c == 0 for c in coords(v)[1:17])


def test_halfline_0star_components(ls):
    v = halfline_class(ls, "0*").vector
    col1 = (Fraction(-1), Fraction(-1, 2), Fraction(-1), Fraction(-1, 2))
    assert coords(v)[1:5] == col1  # P(00)
    assert coords(v)[5:9] == col1  # P(01)
    assert all(c == 0 for c in coords(v)[9:17])
    assert coords(v)[21] == Fraction(-1, 2)  # a(inf)


def test_unknown_label_rejected(ls):
    with pytest.raises(GlueError):
        halfline_class(ls, "bogus")


def test_extra_glue_class(ls):
    g = extra_glue_class(ls, "w")
    assert norm(g.vector) == -2
    assert pairing(g.vector, basis_vector(ls.lattice, 0)) == 1
    with pytest.raises(GlueError):
        extra_glue_class(ls, "0")


def test_d2_dual_congruence(ls):
    # inside one D4 block the second dual vector differs from the sum of the
    # two leaf duals by a lattice vector
    diff = d_vee(ls, 2, "00") - (d_vee(ls, 1, "00") + d_vee(ls, 4, "00"))
    assert diff.is_lattice_vector()


def test_independence_ranks(ls):
    glue = [halfline_class(ls, lam) for lam in L_LABELS]
    ok, rank = independence_check(glue)
    assert ok and rank == 5
    ok6, rank6 = independence_check(glue + [extra_glue_class(ls, "w")])
    assert ok6 and rank6 == 6
    okdup, rankdup = independence_check(glue + [glue[0]])
    assert not okdup and rankdup == 5


def test_independence_rank_matches_the_smith_form_classes(ls):
    # every nonempty subset of the eight glue classes: the F2 rank of the
    # classes as coordinates mod 1 equals that of their Smith-form
    # components, which on the 2-elementary base lie in (Z/2)^22
    glue = [halfline_class(ls, lam) for lam in L_LABELS]
    glue += [extra_glue_class(ls, c) for c in EXTRA_GLUE_CHOICES]
    masks = []
    for gv in glue:
        comp = rational_class(ls.lattice.gram, coords(gv.vector))
        masks.append(sum(c % 2 << i for i, c in enumerate(comp)))
    ranks = set()
    for size in range(1, len(glue) + 1):
        for subset in itertools.combinations(range(len(glue)), size):
            ok, rank = independence_check([glue[i] for i in subset])
            assert rank == f2_rank([masks[i] for i in subset]), subset
            assert ok == (rank == size)
            ranks.add(rank)
    # the eight classes are independent, so every size occurs as a rank
    assert ranks == set(range(1, 9))


def test_overlattice_sigma2(ls, ns):
    assert ns.index == 32
    assert ns.lattice.det() == -(2**4)
    assert is_even(ns.lattice)
    assert is_p_elementary(ns.lattice, 2)
    assert [f for f in snf(ns.lattice.gram).invariant_factors if f > 1] == [2, 2, 2, 2]
    assert artin_invariant(ns.lattice, 2) == 2
    assert ns.lattice.inertia() == (1, 21, 0)


def test_overlattice_sigma1(ls):
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS) + (extra_glue_class(ls, "w"),)
    ns1 = build_overlattice(ls, glue)
    assert ns1.index == 64
    assert ns1.lattice.det() == -4
    assert artin_invariant(ns1.lattice, 2) == 1


def test_overlattice_no_glue_is_base(ls):
    same = build_overlattice(ls, ())
    assert same.index == 1
    assert same.lattice.det() == ls.lattice.det()
    assert same.lattice.gram.entries == ls.lattice.gram.entries


def _rational_overlattice(ls, glue):
    """The Fraction construction kept as an oracle: the HNF basis as a
    rational matrix, its Gram as basis*G*basis^T, and each base vector e_i
    solved for in the new basis through the inverse of basis^T."""
    n = ls.lattice.rank
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows += [list(coords(gv.vector)) for gv in glue]
    denom = math.lcm(*(c.denominator for row in rows for c in row))
    hnf = hnf_rows(IntMatrix([[int(c * denom) for c in row] for row in rows]))
    basis = tuple(tuple(Fraction(x, denom) for x in row) for row in hnf)
    gram = rat_mul(rat_mul(basis, to_rational(ls.lattice.gram)), rat_transpose(basis))
    assert all(x.denominator == 1 for row in gram for x in row)
    binv = invert_rational(rat_transpose(basis))
    base_rows = [rat_mul_vec(binv, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    assert all(c.denominator == 1 for row in base_rows for c in row)
    return gram, basis, tuple(tuple(row) for row in base_rows)


def _basis_den(ns) -> int:
    """The common denominator d of the overlattice basis rows basis_num / d:
    row i of base_in_result writes e_i in that basis, so
    base_in_result * basis_num = d I."""
    prod = ns.base_in_result.mul(ns.basis_num).entries
    d = prod[0][0]
    n = len(prod)
    assert d > 0 and prod == tuple(tuple(d * (i == j) for j in range(n)) for i in range(n))
    return d


def _rational_basis(ns) -> tuple[tuple[Fraction, ...], ...]:
    """The overlattice basis rows as rationals: the integer HNF rows over their denominator."""
    d = _basis_den(ns)
    return tuple(tuple(Fraction(x, d) for x in row) for row in ns.basis_num.entries)


@pytest.mark.parametrize("case", ["no-glue", "sigma2", "1", "w", "wb"])
def test_overlattice_matches_rational_oracle(ls, case):
    glue = () if case == "no-glue" else tuple(halfline_class(ls, lam) for lam in L_LABELS)
    if case in EXTRA_GLUE_CHOICES:
        glue += (extra_glue_class(ls, case),)
    res = build_overlattice(ls, glue)
    gram, basis, base_rows = _rational_overlattice(ls, glue)
    assert res.lattice.gram.entries == gram
    assert _rational_basis(res) == basis
    assert res.base_in_result.entries == base_rows


def test_overlattice_makes_one_inverse(ls, monkeypatch):
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS) + (extra_glue_class(ls, "w"),)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    # every loaded k3lat module that binds invert, so an inverse taken anywhere is counted
    real = exact_arith.invert
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "k3lat" and "invert" in vars(module):
            assert module.invert is real, name
            monkeypatch.setattr(module, "invert", counted(real))
    build_overlattice(ls, glue)
    assert len(calls) == 1


def test_overlattice_rejects_bad_glue(ls):
    xs = list(coords(halfline_class(ls, "0*").vector))
    xs[3] += Fraction(1, 2)
    bad = GlueVector("bad", vector(ls.lattice, xs))
    with pytest.raises(GlueError):
        build_overlattice(ls, (bad,))


def test_overlattice_rejects_odd_norm(ls):
    # a dual vector pairing integrally but with odd self-intersection
    coords = [Fraction(0)] * 22
    coords[0] = Fraction(1)  # h has norm 2; fine
    coords[1] = Fraction(1)
    v = vector(ls.lattice, coords)
    assert norm(v) == 0
    coords2 = [Fraction(0)] * 22
    coords2[0] = Fraction(1, 2)
    odd = GlueVector("odd", vector(ls.lattice, coords2))
    # norm 1/2 is not an even integer
    with pytest.raises(GlueError, match="glue vector odd has non-even norm 1/2"):
        build_overlattice(ls, (odd,))
    # nor is the odd integer -1 of a D4 leaf dual
    leaf = GlueVector("leaf", d_vee(ls, 1, "00"))
    with pytest.raises(GlueError, match="glue vector leaf has non-even norm -1$"):
        build_overlattice(ls, (leaf,))


def test_overlattice_rejects_glue_vectors_pairing_non_integrally(ls):
    # two sums of four A1 duals: each of norm -2, sharing three nodes, so u.v = -3/2
    u = GlueVector("u", sum((a_vee(ls, g) for g in ("0", "1", "w", "wb")), ls.lattice.zero()))
    v = GlueVector("v", sum((a_vee(ls, g) for g in ("0", "1", "w", "inf")), ls.lattice.zero()))
    assert norm(u.vector) == norm(v.vector) == -2
    assert pairing(u.vector, v.vector) == Fraction(-3, 2)
    with pytest.raises(GlueError, match="glue vectors u, v pair non-integrally"):
        build_overlattice(ls, (u, v))


def test_base_embeds_in_overlattice(ls, ns):
    for i in range(22):
        coords = ns.to_result_coords(basis_vector(ls.lattice, i))
        assert coords is not None
    for lam in L_LABELS:
        assert ns.to_result_coords(halfline_class(ls, lam).vector) is not None


def test_to_result_coords_matches_inverse_oracle(ls, ns):
    # oracle: solve basis^T x = v with a full rational inverse
    binv = invert_rational(rat_transpose(_rational_basis(ns)))
    vectors = [basis_vector(ls.lattice, i) for i in range(22)]
    vectors += [halfline_class(ls, lam).vector for lam in L_LABELS]
    for v in vectors:
        expected = rat_mul_vec(binv, coords(v))
        assert all(c.denominator == 1 for c in expected)
        assert ns.to_result_coords(v) == tuple(int(c) for c in expected)


def test_to_result_coords_rejects_a_vector_outside(ls, ns):
    # the extra class is independent of the five half-line classes, so it
    # lies outside the sigma = 2 overlattice
    v = extra_glue_class(ls, "w").vector
    assert ns.to_result_coords(v) is None
    oracle = rat_mul_vec(invert_rational(rat_transpose(_rational_basis(ns))), coords(v))
    assert any(c.denominator != 1 for c in oracle)


def test_canonical_positivity_matches_summed_dual_basis(ls, ns):
    # oracle: sum the 21 exceptional dual basis vectors, pull their pairings
    # back to the complement basis and solve for the dual coordinates there
    comp = orthogonal_complement(ns.lattice, ns.h_in_result())
    w = ls.lattice.zero()
    for s in ls.summands:
        if s.kind != "H":
            sub = ls.summand_lattice(s)
            for j in range(s.rank):
                w = w + ls.assemble({s.name: sub.dual_basis_vector(j)})
    complement_rows = rat_mul(to_rational(comp.basis_in_ambient), _rational_basis(ns))
    p = rat_mul_vec(complement_rows, rational_gv(ls.lattice.gram, coords(w)))
    coeffs = rat_mul_vec(invert_rational(to_rational(comp.lattice.gram)), p)
    alpha = canonical_positivity(ns, comp)
    # alpha.num is the form over the positive denominator of the overlattice basis
    form = tuple(Fraction(c, _basis_den(ns)) for c in alpha.num)
    assert form == rational_gv(comp.lattice.gram, coeffs)


def test_artin_invariant_shapes(ls):
    assert artin_invariant(ls.lattice, 2) == 7
    from k3lat.lattice_core import Lattice
    from k3lat.exact_arith import IntMatrix

    with pytest.raises(GlueError):
        artin_invariant(Lattice(IntMatrix([[2]])), 2)  # positive determinant
    with pytest.raises(GlueError):
        artin_invariant(Lattice(IntMatrix.block_diagonal([IntMatrix([[2]]), IntMatrix([[-6]])])), 2)


# a fresh process, so a p that makes the valuation loop spin fails on the timeout
BAD_P = """
import json
from k3lat.ns_glue import GlueError, artin_invariant, build_lambda
out = {}
for p in (0, 1, 4):
    try:
        out[p] = repr(artin_invariant(build_lambda().lattice, p))
    except GlueError:
        out[p] = "GlueError"
print(json.dumps(out))
"""


def test_artin_invariant_rejects_a_p_that_is_not_prime():
    proc = subprocess.run(
        [sys.executable, "-c", BAD_P],
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert json.loads(proc.stdout) == {"0": "GlueError", "1": "GlueError", "4": "GlueError"}


def test_exceptional_root_analysis(ns):
    report = exceptional_root_analysis(ns)
    assert report.complement_rank == 21
    assert report.complement_inertia == (0, 21, 0)
    assert report.root_count == 4 * 24 + 5 * 2
    assert sorted(report.component_types) == ["A1"] * 5 + ["D4"] * 4
    assert report.type_string == "4D4+5A1"
    assert report.total_component_rank == 21


def test_halfline_searches_unique(ls, ns):
    for lam in L_LABELS:
        res = unique_halfline_search(ls, lam, ns)
        assert len(res.candidates) == 1
        assert res.is_unique_expected()


def test_halfline_searches_scan_each_class_once(ls, ns, monkeypatch):
    # 9 summands in each of 5 searches, but only 5 distinct (lattice, class)
    # keys; the memo sits under bounded_class_minimizers, so count coset
    # enumerations
    calls = []
    real = root_systems.short_vectors

    def counting(gram, bound, coset=None):
        calls.append((gram.entries, bound, coset))
        return real(gram, bound, coset)

    monkeypatch.setattr(root_systems, "short_vectors", counting)
    root_systems._class_search.cache_clear()
    for lam in L_LABELS:
        assert unique_halfline_search(ls, lam, ns).is_unique_expected()
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_halfline_search_rejects_a_misreported_candidate_norm(ls, ns, monkeypatch):
    # every D4 norm found reported one unit high: assemblies that meet the
    # budget on paper fall short of norm -2
    real = ns_glue.bounded_class_minimizers

    def misreported(sub, cls, floor2):
        search = real(sub, cls, floor2)
        shift = 2 if sub.rank == 4 else 0
        return ClassNormSearch(
            rep=search.rep,
            max_norm2=search.max_norm2,
            maximizers=search.maximizers,
            runner_up2=search.runner_up2,
            floor2=search.floor2,
            norms_all_odd=search.norms_all_odd,
            found=tuple((n2 + shift, x) for n2, x in search.found),
        )

    monkeypatch.setattr(ns_glue, "bounded_class_minimizers", misreported)
    with pytest.raises(GlueError, match="assembled candidate violates the norm or degree condition"):
        unique_halfline_search(ls, "inf", ns)


def test_halfline_search_rejects_a_candidate_outside_the_class(ls, ns, monkeypatch):
    # classes of base vectors that never compare equal
    real = ns_glue.class_of
    monkeypatch.setattr(
        ns_glue, "class_of", lambda v: object() if v.lattice == ls.lattice else real(v)
    )
    with pytest.raises(GlueError, match="assembled candidate left the glue class"):
        unique_halfline_search(ls, "inf", ns)


def test_halfline_search_rejects_a_candidate_outside_the_overlattice(ls):
    # the base itself, glued with nothing, does not contain the half-line class
    base = build_overlattice(ls, ())
    with pytest.raises(GlueError, match="assembled candidate is not in the overlattice"):
        unique_halfline_search(ls, "inf", base)


def test_halfline_search_builds_each_target_once(ls, ns, monkeypatch):
    # the verdict and the report compare against the target the search kept
    calls = []
    real = ns_glue.halfline_class

    def counting(ls_, lam):
        calls.append(lam)
        return real(ls_, lam)

    monkeypatch.setattr(ns_glue, "halfline_class", counting)
    for lam in L_LABELS:
        res = unique_halfline_search(ls, lam, ns)
        assert res.to_json_obj(ls)["unique_expected"] and res.is_unique_expected()
        assert res.target == real(ls, lam).vector
    assert calls == list(L_LABELS)


def test_halfline_search_component_values(ls, ns):
    # the infinity class forces zero fork components and half-root values on
    # the five nodes
    res = unique_halfline_search(ls, "inf", ns)
    v = res.candidates[0]
    assert coords(v)[0] == Fraction(1, 2)
    assert all(c == 0 for c in coords(v)[1:17])
    assert all(coords(v)[off] == Fraction(-1, 2) for off in range(17, 22))


def test_halfline_search_report_breakdown(ls, ns):
    res = unique_halfline_search(ls, "0*", ns)
    obj = res.to_json_obj(ls)
    assert obj["unique_expected"] is True
    cand = obj["candidates"][0]
    assert cand["H-component"] == ["1/2"]
    assert cand["P(00)-component"] == ["-1", "-1/2", "-1", "-1/2"]
    assert cand["P(10)-component"] == ["0", "0", "0", "0"]
    assert cand["Q(inf)-component"] == ["-1/2"]
    assert cand["Q(0)-component"] == ["0"]


def test_candidate_component_norms_satisfy_dichotomies(ls, ns):
    allowed = {Fraction(0), Fraction(-1), Fraction(-1, 2)}
    for lam in L_LABELS:
        res = unique_halfline_search(ls, lam, ns)
        for v in res.candidates:
            for s in ls.summands:
                if s.kind == "H":
                    continue
                assert norm(ls.component(v, s)) in allowed
