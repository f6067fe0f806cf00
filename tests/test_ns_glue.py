import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from k3lat import exact_arith, ns_glue, root_systems
from k3lat.exact_arith import IntMatrix
from k3lat.lattice_core import (
    DualVector,
    Lattice,
    elementary_factors,
    is_even,
    lattice_A1,
    lattice_D4,
    lattice_hyperbolic2,
)
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    EXTRA_GLUE_CHOICES,
    GlueError,
    GlueVector,
    LabeledSum,
    OverlatticeResult,
    Summand,
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
from k3lat.root_systems import ade_type
from rational_oracles import (
    basis_vector,
    closure_glue_classes,
    complement_positivity,
    complement_roots,
    coords,
    enumerate_roots,
    f2_rank,
    hnf_rows,
    invert_rational,
    negated,
    norm,
    orthogonal_complement,
    pairing,
    pairwise_root_types,
    rat_mul,
    rat_mul_vec,
    rat_transpose,
    rational_class,
    rational_gv,
    snf,
    to_rational,
    vector,
)


# the distinguished dual vectors of the labeled sum, one summand at a time:
# the glue vectors of the configuration rows are sums of them
def h_vee(ls):
    return ls.assemble({"H": DualVector(lattice_hyperbolic2(), [1], 2)})


def d_vee(ls, i, ab):
    return ls.assemble({f"P({ab})": lattice_D4().dual_basis_vector(i - 1)})


def a_vee(ls, g):
    return ls.assemble({f"Q({g})": DualVector(lattice_A1(), [-1], 2)})


def test_base_lattice_shape(ls):
    lat = ls.lattice
    assert lat.rank == 22
    assert lat.det() == -(2**14)
    assert lat.inertia() == (1, 21, 0)
    assert is_even(lat)
    # the summand table names the basis: h, then d1..d4 of each D4, then the A1s
    assert [(s.name, s.lattice, s.offset, s.rank) for s in ls.summands[:2]] == [
        ("H", lattice_hyperbolic2(), 0, 1), ("P(00)", lattice_D4(), 1, 4)
    ]
    assert ls.summands[-1] == Summand("Q(inf)", lattice_A1(), 21)


def test_summand_layout_starts_at_h_and_is_consecutive(ls):
    # H at offset 0, each summand where the last ends, and the ranks fill the 22 coordinates
    hs, *exceptional = ls.summands
    assert (hs.name, hs.offset, hs.lattice) == ("H", 0, lattice_hyperbolic2())
    assert [s.offset for s in ls.summands] == list(
        itertools.accumulate([s.rank for s in ls.summands[:-1]], initial=0)
    )
    assert sum(s.rank for s in ls.summands) == ls.lattice.rank == 22
    assert [s.lattice for s in exceptional] == [lattice_D4()] * 4 + [lattice_A1()] * 5
    # the Gram is the block sum of the summand Grams at their offsets
    for s in ls.summands:
        span = slice(s.offset, s.offset + s.rank)
        assert tuple(row[span] for row in ls.lattice.gram.entries[span]) == s.lattice.gram.entries


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
    diff = d_vee(ls, 2, "00") + negated(d_vee(ls, 1, "00") + d_vee(ls, 4, "00"))
    assert diff.den == 1


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
    assert elementary_factors(ns.lattice) == [2] * 4
    assert [f for f in snf(ns.lattice.gram).invariant_factors if f > 1] == [2, 2, 2, 2]
    assert artin_invariant(ns.lattice) == 2
    assert ns.lattice.inertia() == (1, 21, 0)


def test_overlattice_sigma1(ls):
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS) + (extra_glue_class(ls, "w"),)
    ns1 = build_overlattice(ls, glue)
    assert ns1.index == 64
    assert ns1.lattice.det() == -4
    assert artin_invariant(ns1.lattice) == 1


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
    column i of to_result writes e_i in that basis, so
    basis_num^T * to_result = d I."""
    prod = rat_mul(rat_transpose(ns.basis_num.entries), ns.to_result.entries)
    d = prod[0][0]
    n = len(prod)
    assert d > 0 and prod == tuple(tuple(d * (i == j) for j in range(n)) for i in range(n))
    assert d == ns.denom
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
    assert rat_transpose(res.to_result.entries) == base_rows


def _gauss_jordan_base_in_result(b: IntMatrix, denom: int):
    """The Gauss-Jordan route kept as an oracle: row i of denom * b^-1 writes
    e_i in the basis b / denom, or None when some entry is not an integer."""
    num, den = exact_arith.invert(b)
    if any(c * denom % den for row in num.entries for c in row):
        return None
    return tuple(tuple(c * denom // den for c in row) for row in num.entries)


def _buildable_glue_subsets(ls):
    """Every subset of the five half-line and three extra classes that pairs
    integrally: the 128 with at most one extra class."""
    glue = [halfline_class(ls, lam) for lam in L_LABELS]
    glue += [extra_glue_class(ls, c) for c in EXTRA_GLUE_CHOICES]
    for size in range(len(glue) + 1):
        for subset in itertools.combinations(glue, size):
            if sum(gv.name.startswith("G(") for gv in subset) <= 1:
                yield subset


def test_to_result_matches_the_gauss_jordan_oracle(ls):
    # the CLI's overlattices (the five half-lines, with and without each
    # extra class) are among the 128 buildable glue subsets
    cli_sets = {tuple(L_LABELS)} | {tuple(L_LABELS) + (c,) for c in EXTRA_GLUE_CHOICES}
    seen = set()
    for glue in _buildable_glue_subsets(ls):
        res = build_overlattice(ls, glue)
        denom = math.lcm(*(gv.vector.den for gv in glue))
        assert rat_transpose(res.to_result.entries) == _gauss_jordan_base_in_result(res.basis_num, denom)
        seen.add(tuple(gv.name[2:-1] for gv in glue))
    assert len(seen) == 128 and cli_sets <= seen


def test_overlattice_basis_and_index_match_the_hermite_oracle(ls):
    # on every buildable glue subset, the empty one included: denom is the
    # common denominator of the glue, the basis is the row Hermite form of
    # denom I and the glue over denom, and the index is 2 to the F2 rank of
    # the glue's Smith-form classes
    glue = [halfline_class(ls, lam) for lam in L_LABELS]
    glue += [extra_glue_class(ls, c) for c in EXTRA_GLUE_CHOICES]
    masks = {}
    for gv in glue:
        comp = rational_class(ls.lattice.gram, coords(gv.vector))
        masks[gv.name] = sum(c % 2 << i for i, c in enumerate(comp))
    n = ls.lattice.rank
    count = 0
    for subset in _buildable_glue_subsets(ls):
        res = build_overlattice(ls, subset)
        denom = math.lcm(*(c.denominator for gv in subset for c in coords(gv.vector)))
        rows = [[denom * (i == j) for j in range(n)] for i in range(n)]
        rows += [[int(c * denom) for c in coords(gv.vector)] for gv in subset]
        assert res.denom == denom
        assert list(res.basis_num.entries) == hnf_rows(IntMatrix(rows))
        assert res.index == 2 ** f2_rank([masks[gv.name] for gv in subset])
        count += 1
    assert count == 128


def test_overlattice_rejects_a_basis_that_misses_a_base_vector(ls, monkeypatch):
    # the echelon form with its last row doubled: the basis is still of full
    # rank with an integral even form, but the base vector at that row's
    # pivot is not an integer combination of it, so T b^T = denom I fails
    real = ns_glue.echelon_mod_2

    def doubled_last_row(a):
        rows = real(a)
        return rows[:-1] + [tuple(2 * c for c in rows[-1])]

    monkeypatch.setattr(ns_glue, "echelon_mod_2", doubled_last_row)
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    with pytest.raises(GlueError, match="base vector escapes the overlattice"):
        build_overlattice(ls, glue)


def _a1_row(ls, *names):
    """The 0/1 row of the coordinates of the named A1 summands."""
    cols = {s.offset for s in ls.summands if s.name in names}
    return tuple(int(j in cols) for j in range(ls.lattice.rank))


@pytest.mark.parametrize(
    "echelon, message",
    [
        # one A1 coordinate e puts e/2 in the basis, and (e/2)^2 = -1/2
        (lambda ls, rows: [_a1_row(ls, "Q(0)")], "overlattice form is not integral"),
        # two of them put (e + f)/2 in the basis: it pairs integrally with
        # the rest, but its norm is -1
        (lambda ls, rows: [_a1_row(ls, "Q(0)", "Q(1)")], "overlattice is not even"),
        # the last row repeated: the basis and the map to it are those of
        # the true form, but the index counts one row too many
        (lambda ls, rows: rows + rows[-1:], "index does not match the F2-rank of the glue classes"),
    ],
    ids=["not-integral", "odd", "index"],
)
def test_overlattice_rejects_a_bad_echelon_form(ls, monkeypatch, echelon, message):
    real = ns_glue.echelon_mod_2
    monkeypatch.setattr(ns_glue, "echelon_mod_2", lambda a: echelon(ls, real(a)))
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    with pytest.raises(GlueError, match=f"^{message}$"):
        build_overlattice(ls, glue)


def test_assemble_rejects_a_part_in_the_wrong_lattice_and_an_unknown_summand(ls):
    with pytest.raises(GlueError, match=r"^component for P\(00\) lives in the wrong lattice$"):
        ls.assemble({"P(00)": lattice_A1().zero()})
    with pytest.raises(GlueError, match=r"^unknown summand 'X'$"):
        ls.assemble({"X": lattice_A1().zero(), "Q(0)": lattice_A1().zero()})


def test_overlattice_rejects_an_echelon_that_loses_a_row(ls, monkeypatch):
    # the echelon form without its last row: the basis, the index and the
    # determinant check all read it, so they agree on an overlattice of
    # index 16, but two of the five half-line classes are not in it
    real = ns_glue.echelon_mod_2
    monkeypatch.setattr(ns_glue, "echelon_mod_2", lambda a: real(a)[:-1])
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    with pytest.raises(GlueError, match=r"glue vector F\(1\*\) is not in the overlattice"):
        build_overlattice(ls, glue)


def test_overlattice_rejects_glue_of_denominator_3():
    # (2, 2) / 3 in <6> + <-6> is a dual vector of norm 0 whose numerators
    # are even, so it has no bits mod 2: without the denominator check the
    # overlattice would come out as the base, of index 1, not 3
    lattice = Lattice(IntMatrix([[6, 0], [0, -6]]))
    base = LabeledSum(lattice, ())
    glue = (GlueVector("g", DualVector(lattice, [2, 2], 3)),)
    with pytest.raises(GlueError, match="glue vector g has denominator 3, not 1 or 2"):
        build_overlattice(base, glue)


def test_overlattice_takes_no_inverse(ls, monkeypatch):
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
    assert calls == []


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
        v = basis_vector(ls.lattice, i)
        assert ns.to_result_coords(v.num, v.den) is not None
    for lam in L_LABELS:
        v = halfline_class(ls, lam).vector
        assert ns.to_result_coords(v.num, v.den) is not None


def test_to_result_coords_matches_inverse_oracle(ls, ns):
    # oracle: solve basis^T x = v with a full rational inverse
    binv = invert_rational(rat_transpose(_rational_basis(ns)))
    vectors = [basis_vector(ls.lattice, i) for i in range(22)]
    vectors += [halfline_class(ls, lam).vector for lam in L_LABELS]
    for v in vectors:
        expected = rat_mul_vec(binv, coords(v))
        assert all(c.denominator == 1 for c in expected)
        assert ns.to_result_coords(v.num, v.den) == tuple(int(c) for c in expected)


def test_to_result_coords_rejects_a_vector_outside(ls, ns):
    # the extra class is independent of the five half-line classes, so it
    # lies outside the sigma = 2 overlattice
    v = extra_glue_class(ls, "w").vector
    assert ns.to_result_coords(v.num, v.den) is None
    oracle = rat_mul_vec(invert_rational(rat_transpose(_rational_basis(ns))), coords(v))
    assert any(c.denominator != 1 for c in oracle)


@pytest.mark.parametrize("case", ["sigma2", "w"])
def test_to_result_coords_matches_the_gauss_jordan_oracle(ls, case):
    # oracle: x = num (denom b^-1) / den with denom b^-1 from Gauss-Jordan,
    # and None exactly where an entry of x is not an integer; over the basis
    # vectors, the five half-line classes, the glue classes and random
    # numerators over 1, 2 and denom
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    if case in EXTRA_GLUE_CHOICES:
        glue += (extra_glue_class(ls, case),)
    res = build_overlattice(ls, glue)
    x = _gauss_jordan_base_in_result(res.basis_num, res.denom)

    def oracle(num, den):
        dx = [sum(a * row[j] for a, row in zip(num, x)) for j in range(22)]
        return None if any(c % den for c in dx) else tuple(c // den for c in dx)

    cases = [(tuple(int(i == j) for j in range(22)), 1) for i in range(22)]
    cases += [(gv.vector.num, gv.vector.den) for gv in glue[:5]]
    cases += [(c, res.denom) for c in res.glue_classes()]
    rng = random.Random(43)
    for den in (1, 2, res.denom):
        cases += [(tuple(rng.randrange(-3, 4) for _ in range(22)), den) for _ in range(40)]
    outcomes = collections.Counter()
    for num, den in cases:
        got = res.to_result_coords(num, den)
        assert got == oracle(num, den)
        outcomes[got is None] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 22 + 5 + res.index


def test_canonical_positivity_matches_summed_dual_basis(ls, ns):
    # oracle: sum the 21 exceptional dual basis vectors, pair them with the
    # rational overlattice basis, and solve for their dual coordinates in
    # the overlattice
    w = ls.lattice.zero()
    for s in ls.summands[1:]:
        for j in range(s.rank):
            w = w + ls.assemble({s.name: s.lattice.dual_basis_vector(j)})
    p = rat_mul_vec(_rational_basis(ns), rational_gv(ls.lattice.gram, coords(w)))
    coeffs = rat_mul_vec(invert_rational(to_rational(ns.lattice.gram)), p)
    alpha = canonical_positivity(ns)
    # alpha is the form over the positive denominator of the overlattice basis
    form = tuple(Fraction(c, _basis_den(ns)) for c in alpha)
    assert form == rational_gv(ns.lattice.gram, coeffs)
    # the 0/1 pairing: +1 on each exceptional class, 0 on the polarization
    assert [pairing(w, basis_vector(ls.lattice, i)) for i in range(22)] == [0] + [1] * 21


def test_artin_invariant_shapes(ls):
    assert artin_invariant(ls.lattice) == 7

    def diagonal(*entries):
        return Lattice(IntMatrix.block_diagonal([IntMatrix([[x]]) for x in entries]))

    with pytest.raises(GlueError, match="determinant is not negative"):
        artin_invariant(diagonal(2))
    # sigma = 0, an odd exponent of 2, and an odd factor 3
    for lattice, det in ((diagonal(-1), -1), (diagonal(-2), -2), (diagonal(2, -6), -12)):
        form = rf"determinant {det} is not of the form -2\^\(2\*sigma\)"
        with pytest.raises(GlueError, match=form):
            artin_invariant(lattice)
    # <2> + 21 A1 has det -2^22
    with pytest.raises(GlueError, match="Artin invariant 11 is impossible at rank 22"):
        artin_invariant(diagonal(2, *[-2] * 21))


def test_exceptional_root_analysis(ns):
    report = exceptional_root_analysis(ns)
    assert report.complement_rank == 21
    assert report.complement_inertia == (0, 21, 0)
    assert report.root_count == 4 * 24 + 5 * 2
    labels = ade_type(polarization_roots(ns), canonical_positivity(ns))
    assert sorted(labels) == ["A1"] * 5 + ["D4"] * 4
    assert report.type_string == "4D4+5A1"
    assert report.total_component_rank == 21


def _root_glue(ls):
    # norms -1, -1/2 and -1/2: the nonzero coset of this class carries roots
    return GlueVector("R", d_vee(ls, 1, "00") + a_vee(ls, "0") + a_vee(ls, "1"))


def _oracle_case(ls, case):
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    if case == "no-glue":
        return ()
    if case in EXTRA_GLUE_CHOICES:
        return glue + (extra_glue_class(ls, case),)
    if case == "root-coset":
        return (_root_glue(ls),)
    if case == "root-coset+F":
        return (_root_glue(ls), halfline_class(ls, "inf"), halfline_class(ls, "0*"))
    return glue


@pytest.mark.parametrize(
    "case, count",
    [
        ("sigma2", 106),
        ("1", 106),
        ("w", 106),
        ("wb", 106),
        ("no-glue", 106),
        ("root-coset", 138),
        ("root-coset+F", 170),
    ],
)
def test_polarization_roots_match_the_complement_enumeration(ls, case, count):
    # oracle: the Fincke-Pohst enumeration of the rank-21 complement of h,
    # its roots mapped into the overlattice
    ns_case = build_overlattice(ls, _oracle_case(ls, case))
    roots = polarization_roots(ns_case)
    assert len(roots) == len(set(roots.roots)) == count
    assert set(roots.roots) == complement_roots(ns_case)


@pytest.mark.parametrize("case", ["sigma2", "1", "w", "wb", "no-glue"])
def test_root_types_match_the_complement_enumeration(ls, case):
    # the same components and types from the complement's roots, typed with
    # the positivity functional pulled back to the complement basis
    ns_case = build_overlattice(ls, _oracle_case(ls, case))
    comp = orthogonal_complement(ns_case.lattice, ns_case.h_in_result())
    alpha = complement_positivity(ns_case, comp)
    components = pairwise_root_types(enumerate_roots(comp.lattice), alpha)
    report = exceptional_root_analysis(ns_case)
    labels = ade_type(polarization_roots(ns_case), canonical_positivity(ns_case))
    assert sorted(labels) == sorted(c.label for c in components)
    assert report.complement_rank == comp.lattice.rank
    assert report.complement_inertia == comp.lattice.inertia()
    assert report.total_component_rank == sum(len(hnf_rows(IntMatrix(c.roots))) for c in components)


@pytest.mark.parametrize("case", ["sigma2", "w", "no-glue", "root-coset", "root-coset+F"])
def test_glue_classes_are_the_overlattice_modulo_the_base(ls, case):
    # a group of order index, and every class is the class of an overlattice vector
    ns_case = build_overlattice(ls, _oracle_case(ls, case))
    classes = ns_case.glue_classes()
    d = ns_case.denom
    assert len(classes) == len(set(classes)) == ns_case.index
    assert classes[0] == (0,) * 22
    group = set(classes)
    assert all(tuple((a + b) % d for a, b in zip(u, v)) in group for u in classes for v in classes)
    for c in classes:
        assert ns_case.to_result_coords(c, d) is not None


def test_glue_classes_match_the_closure_oracle(ls):
    # on every buildable glue subset, the empty one included: the F2 span of
    # the basis rows in one pass is the closure under addition
    count = 0
    for glue in _buildable_glue_subsets(ls):
        res = build_overlattice(ls, glue)
        assert res.glue_classes() == closure_glue_classes(res)
        count += 1
    assert count == 128


def test_glue_class_count_check_fires_on_a_wrong_index(ns):
    wrong = OverlatticeResult(ns.base, ns.lattice, ns.basis_num, ns.denom, ns.to_result, 2 * ns.index)
    with pytest.raises(GlueError, match="32 glue classes for an overlattice of index 64"):
        wrong.glue_classes()


def test_polarization_roots_reject_a_root_outside_the_overlattice(ls):
    # the glue classes of the root-coset overlattice, but the base's
    # coordinates: the roots of the nonzero coset are not in the base
    glued = build_overlattice(ls, (_root_glue(ls),))
    base = build_overlattice(ls, ())
    wrong = OverlatticeResult(
        ls, base.lattice, glued.basis_num, glued.denom, base.to_result, glued.index
    )
    with pytest.raises(GlueError, match="a root of the summands is not in the overlattice"):
        polarization_roots(wrong)


def test_polarization_roots_reject_a_norm_mismatch(ns):
    # the overlattice Gram doubled: every root found has norm -4 through it
    doubled = Lattice(IntMatrix([[2 * x for x in row] for row in ns.lattice.gram.entries]))
    wrong = OverlatticeResult(ns.base, doubled, ns.basis_num, ns.denom, ns.to_result, ns.index)
    with pytest.raises(GlueError, match="a root violates the norm or degree condition"):
        polarization_roots(wrong)


def test_polarization_roots_reject_a_set_not_closed_under_negation(ns, monkeypatch):
    # the walk loses the last root of each glue class
    real = ns_glue._budget_walk

    def lossy(lists, budget):
        rows, checked = real(lists, budget)
        return rows[:-1], checked

    monkeypatch.setattr(ns_glue, "_budget_walk", lossy)
    with pytest.raises(GlueError, match="root set is not closed under negation"):
        polarization_roots(ns)


def test_halfline_searches_unique(ls, ns):
    for lam in L_LABELS:
        res = unique_halfline_search(halfline_class(ls, lam), ns)
        assert len(res.candidates) == 1
        assert res.is_unique_expected()


def test_halfline_searches_scan_each_class_once(ls, ns, monkeypatch):
    # 9 summands in each of 5 searches, but only 5 distinct (lattice, class)
    # keys; the memo sits under bounded_class_minimizers, so count coset
    # enumerations
    calls = []
    real = root_systems.short_vectors

    def counting(gram, bound, coset):
        calls.append((gram.entries, bound, coset))
        return real(gram, bound, coset)

    monkeypatch.setattr(root_systems, "short_vectors", counting)
    root_systems._class_search.cache_clear()
    root_systems.coset_points.cache_clear()
    for lam in L_LABELS:
        assert unique_halfline_search(halfline_class(ls, lam), ns).is_unique_expected()
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_halfline_search_rejects_a_misreported_candidate_norm(ls, ns, monkeypatch):
    # every D4 norm found reported one unit high: assemblies that meet the
    # budget on paper fall short of norm -2
    real = ns_glue.bounded_class_minimizers

    def misreported(sub, cls, floor2):
        search = real(sub, cls, floor2)
        shift = 2 if sub.rank == 4 else 0
        return tuple((n2 + shift, y) for n2, y in search)

    monkeypatch.setattr(ns_glue, "bounded_class_minimizers", misreported)
    with pytest.raises(GlueError, match="assembled candidate violates the norm or degree condition"):
        unique_halfline_search(halfline_class(ls, "inf"), ns)


def test_halfline_search_rejects_a_candidate_outside_the_class(ls, ns, monkeypatch):
    # classes of base vectors that never compare equal
    real = ns_glue.class_of
    monkeypatch.setattr(
        ns_glue, "class_of", lambda v: object() if v.lattice == ls.lattice else real(v)
    )
    with pytest.raises(GlueError, match="assembled candidate left the glue class"):
        unique_halfline_search(halfline_class(ls, "inf"), ns)


def test_halfline_search_rejects_a_candidate_outside_the_overlattice(ls):
    # the base itself, glued with nothing, does not contain the half-line class
    base = build_overlattice(ls, ())
    with pytest.raises(GlueError, match="assembled candidate is not in the overlattice"):
        unique_halfline_search(halfline_class(ls, "inf"), base)


def test_halfline_search_builds_each_target_once(ls, ns, monkeypatch):
    # the caller builds each target and the search builds none: the verdict
    # and the report compare against the glue vector it was given
    calls = []
    real = ns_glue.halfline_class

    def counting(ls_, lam):
        calls.append(lam)
        return real(ls_, lam)

    monkeypatch.setattr(ns_glue, "halfline_class", counting)
    for lam in L_LABELS:
        gv = ns_glue.halfline_class(ls, lam)
        res = unique_halfline_search(gv, ns)
        obj = res.to_json_obj(ls)
        assert obj["unique_expected"] and res.is_unique_expected()
        assert res.glue is gv and obj["label"] == gv.name
    assert calls == list(L_LABELS)


def test_halfline_search_component_values(ls, ns):
    # the infinity class forces zero fork components and half-root values on
    # the five nodes
    res = unique_halfline_search(halfline_class(ls, "inf"), ns)
    v = res.candidates[0]
    assert coords(v)[0] == Fraction(1, 2)
    assert all(c == 0 for c in coords(v)[1:17])
    assert all(coords(v)[off] == Fraction(-1, 2) for off in range(17, 22))


def test_halfline_search_report_breakdown(ls, ns):
    res = unique_halfline_search(halfline_class(ls, "0*"), ns)
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
        res = unique_halfline_search(halfline_class(ls, lam), ns)
        for v in res.candidates:
            for s in ls.summands[1:]:
                assert norm(ls.component(v, s)) in allowed
