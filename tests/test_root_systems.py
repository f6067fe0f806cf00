import itertools
import math
import random
import re
import time
from fractions import Fraction
from operator import mul

import pytest

from k3lat import exact_arith, root_systems
from k3lat.exact_arith import IntMatrix, inertia, symmetric_elimination
from k3lat.lattice_core import (
    DualVector,
    Lattice,
    class_of,
    lattice_A1,
    lattice_D4,
)
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    build_lambda,
    build_overlattice,
    canonical_positivity,
    extra_glue_class,
    halfline_class,
)
from k3lat.root_systems import (
    RootSet,
    RootSystemError,
    ade_type,
    bounded_class_minimizers,
    norms_all_odd,
    short_vectors,
    simple_roots,
)
from rational_oracles import (
    basis_vector,
    box_scan,
    cartan_matrix,
    cholesky,
    complement_positivity,
    coords,
    det,
    diagram_order,
    enumerate_roots,
    hnf_rows,
    invert_rational,
    is_negative_definite,
    kernel_basis,
    negated,
    nonzero_short_vectors,
    norm,
    orthogonal_complement,
    outside_bound,
    pairing,
    pairwise_root_types,
    rat_mul,
    rat_transpose,
    rational_gv,
    to_rational,
    vector,
)


def naive_box_roots(lattice: Lattice, radius: int = 5) -> set:
    """Independent oracle: scan the full coordinate box for norm -2 vectors."""
    g = lattice.gram
    n = lattice.rank
    out = set()
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        norm = sum(v[i] * g.entries[i][j] * v[j] for i in range(n) for j in range(n))
        if norm == -2:
            out.add(v)
    return out


def a1_plus_a1() -> Lattice:
    return Lattice(IntMatrix.block_diagonal([IntMatrix([[-2]])] * 2))


def dominant_functional(lattice: Lattice) -> tuple[int, ...]:
    """Pairing against the sum of the dual basis: +1 on every basis root."""
    total = lattice.zero()
    for i in range(lattice.rank):
        total = total + lattice.dual_basis_vector(i)
    return total.pairing_numerators()


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_roots_a1():
    rs = enumerate_roots(lattice_A1())
    assert set(rs.roots) == {(1,), (-1,)}


def test_roots_d4_count_and_box_oracle():
    rs = enumerate_roots(lattice_D4())
    assert len(rs) == 24
    assert set(rs.roots) == naive_box_roots(lattice_D4())


def test_roots_a1_plus_a1():
    rs = enumerate_roots(a1_plus_a1())
    assert set(rs.roots) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(rs.roots) == naive_box_roots(a1_plus_a1())


def test_roots_reject_indefinite_or_odd():
    with pytest.raises(RootSystemError):
        enumerate_roots(Lattice(IntMatrix([[2]])))
    with pytest.raises(RootSystemError):
        enumerate_roots(Lattice(IntMatrix([[-1]])))


def test_short_vectors_norm_filter():
    d4 = lattice_D4()
    vs = nonzero_short_vectors(d4.gram, 2)
    g = d4.gram
    for v in vs:
        q = -sum(v[i] * g.entries[i][j] * v[j] for i in range(4) for j in range(4))
        assert 0 < q <= 2


def _floor_sqrt(f: Fraction) -> int:
    """Largest integer m >= 0 with m*m <= f (f >= 0)."""
    if f < 0:
        raise RootSystemError("negative radicand")
    return math.isqrt(f.numerator * f.denominator) // f.denominator


def rational_short_vectors(gram: IntMatrix, bound: int) -> list:
    """Oracle: the former enumeration, with every node's center and
    budget in Fraction arithmetic."""
    n = gram.rows
    q = [[Fraction(-gram.entries[i][j]) for j in range(n)] for i in range(n)]
    d, r = cholesky(q)
    out = []
    x = [0] * n

    def recurse(i: int, remaining: Fraction) -> None:
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        center = sum((r[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        m = _floor_sqrt(remaining / d[i])
        lo = math.ceil(-center) - m - 1
        hi = math.floor(-center) + m + 1
        for xi in range(lo, hi + 1):
            term = d[i] * (xi + center) ** 2
            if term <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - term)
        x[i] = 0

    recurse(n - 1, Fraction(bound))
    return sorted(out)


def _root_sum(blocks: list) -> IntMatrix:
    return IntMatrix.block_diagonal([b.gram for b in blocks])


SMALL_GRAMS = {
    "A1": lambda: lattice_A1().gram,
    "A1+A1": lambda: _root_sum([lattice_A1()] * 2),
    "D4": lambda: lattice_D4().gram,
}


@pytest.mark.parametrize("bound", [2, 4, 6])
@pytest.mark.parametrize("name", sorted(SMALL_GRAMS))
def test_short_vectors_match_rational_oracle(name, bound):
    gram = SMALL_GRAMS[name]()
    assert nonzero_short_vectors(gram, bound) == rational_short_vectors(gram, bound)


@pytest.mark.parametrize("bound", [2, 4])
def test_short_vectors_match_rational_oracle_4d4_5a1(bound):
    gram = _root_sum([lattice_D4()] * 4 + [lattice_A1()] * 5)
    assert nonzero_short_vectors(gram, bound) == rational_short_vectors(gram, bound)


def test_short_vectors_4d4_5a1_bound_6_from_the_summands():
    # The rational oracle takes about 20 s on this rank-21 sum at bound 6,
    # so it runs on the summands only: a vector of an orthogonal sum is a
    # tuple of summand vectors whose norms add up.
    blocks = [lattice_D4()] * 4 + [lattice_A1()] * 5
    per_block = []
    for lat in blocks:
        g = lat.gram
        vecs = [(0, (0,) * lat.rank)] + [
            (-sum(v[i] * g.entries[i][j] * v[j] for i in range(lat.rank) for j in range(lat.rank)), v)
            for v in rational_short_vectors(g, 6)
        ]
        per_block.append(vecs)
    expected = []

    def combine(k: int, used: int, prefix: tuple) -> None:
        if k == len(per_block):
            if any(prefix):
                expected.append(prefix)
            return
        for norm, v in per_block[k]:
            if used + norm <= 6:
                combine(k + 1, used + norm, prefix + v)

    combine(0, 0, ())
    got = nonzero_short_vectors(_root_sum(blocks), 6)
    assert len(got) == 106690
    assert got == sorted(expected)


def test_short_vectors_match_rational_oracle_on_the_complement():
    ls = build_lambda()
    ns = build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
    gram = orthogonal_complement(ns.lattice, ns.h_in_result()).lattice.gram
    got = nonzero_short_vectors(gram, 2)
    assert len(got) == 106
    assert got == rational_short_vectors(gram, 2)


@pytest.mark.parametrize("extra", [None, "1", "w", "wb"])
def test_ordered_complement_has_the_roots_of_the_kernel_basis(extra):
    # the complement basis is the kernel of h's pairing row, stably sorted by
    # |r.r|; the unsorted kernel basis is the oracle, and its roots, mapped
    # into the overlattice, are the same set
    ls = build_lambda()
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    if extra is not None:
        glue += (extra_glue_class(ls, extra),)
    ns = build_overlattice(ls, glue)
    h = ns.h_in_result()
    comp = orthogonal_complement(ns.lattice, h)
    kernel = IntMatrix(kernel_basis(IntMatrix([h.integer_pairings()])))
    ordered = comp.basis_in_ambient
    gram = ns.lattice.gram
    assert ordered.entries == tuple(
        sorted(kernel.entries, key=lambda r: abs(sum(map(mul, r, gram.mul_vec(r)))))
    )
    assert ordered.entries != kernel.entries

    def in_ambient(lattice: Lattice, basis: IntMatrix) -> set:
        embed = IntMatrix(rat_transpose(basis.entries))
        return {embed.mul_vec(r) for r in enumerate_roots(lattice).roots}

    unordered = Lattice(
        IntMatrix(rat_mul(rat_mul(kernel.entries, gram.entries), rat_transpose(kernel.entries)))
    )
    roots = in_ambient(comp.lattice, ordered)
    assert roots == in_ambient(unordered, kernel)
    assert len(roots) == 106


def _random_even_negative_definite(rng: random.Random, n: int) -> IntMatrix:
    while True:
        b = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if det(b) != 0:
            return IntMatrix([[-2 * v for v in row] for row in rat_mul(rat_transpose(b.entries), b.entries)])


def test_short_vectors_match_rational_oracle_on_random_grams():
    rng = random.Random(20071)
    denominators = set()
    for n in range(2, 7):
        for _ in range(4):
            gram = _random_even_negative_definite(rng, n)
            q = [[Fraction(-v) for v in row] for row in gram.entries]
            _, r = cholesky(q)
            denominators.update(c.denominator for row in r for c in row)
            for bound in (2, 4, 8):
                assert nonzero_short_vectors(gram, bound) == rational_short_vectors(gram, bound)
    # the rows of R are not all over 1 or 2, so the per-row scaling is exercised
    assert denominators - {1, 2}


def _cholesky_from_elimination(gram: IntMatrix):
    """d and R of -gram = R^T diag(d) R, read off the integer elimination:
    d_i = D_i / D_(i-1) and R_ij = B_ij / D_i."""
    steps = symmetric_elimination(IntMatrix([[-c for c in row] for row in gram.entries]))
    minors = [1] + [p for _, p, _ in steps]
    d = [Fraction(minors[i + 1], minors[i]) for i in range(len(steps))]
    r = [
        [Fraction(x, p) if j > i else Fraction(0) for j, x in enumerate(row)]
        for i, (_, p, row) in enumerate(steps)
    ]
    return d, r


def test_elimination_matches_the_cholesky_oracle():
    rng = random.Random(1987)
    grams = [_random_even_negative_definite(rng, n) for n in range(1, 8) for _ in range(3)]
    grams.append(_root_sum([lattice_D4()] * 4 + [lattice_A1()] * 5))
    ls = build_lambda()
    ns = build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
    grams.append(orthogonal_complement(ns.lattice, ns.h_in_result()).lattice.gram)
    for gram in grams:
        q = [[Fraction(-v) for v in row] for row in gram.entries]
        assert _cholesky_from_elimination(gram) == cholesky(q)


@pytest.mark.parametrize(
    "rows",
    [[[2]], [[0, 1], [1, 0]], [[-2, 2], [2, -2]], [[-2, 1, 0], [1, 0, 1], [0, 1, -2]]],
    ids=["positive", "hyperbolic", "semidefinite", "indefinite"],
)
def test_short_vectors_rejects_what_the_cholesky_oracle_rejects(rows):
    gram = IntMatrix(rows)
    with pytest.raises(RootSystemError, match="not positive definite"):
        cholesky([[Fraction(-v) for v in row] for row in rows])
    with pytest.raises(RootSystemError, match="not positive definite"):
        nonzero_short_vectors(gram, 2)


def test_positivity_value_matches_the_rational_sum():
    # alpha . x is the rational form scaled by a positive denominator: the
    # summed dual basis over its den on D4, and on the overlattice the
    # 0/1 pairings of the exceptional dual vectors pushed through the basis
    # rows over d, with basis_num^T * to_result = d I
    ls = build_lambda()
    ns = build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
    d4 = lattice_D4()
    total = sum((d4.dual_basis_vector(i) for i in range(4)), d4.zero())
    d = rat_mul(rat_transpose(ns.basis_num.entries), ns.to_result.entries)[0][0]
    assert d == ns.denom
    w = [Fraction(0)] + [Fraction(1)] * 21
    form = [sum(Fraction(b, d) * c for b, c in zip(row, w)) for row in ns.basis_num.entries]
    rng = random.Random(4)
    cases = [
        (dominant_functional(d4), 4, total.den, rational_gv(d4.gram, coords(total))),
        (canonical_positivity(ns), 22, d, form),
    ]
    for alpha, n, scale, form in cases:
        assert scale > 0
        for _ in range(50):
            x = [rng.randint(-3, 3) for _ in range(n)]
            assert Fraction(sum(map(mul, alpha, x)), scale) == sum(a * c for a, c in zip(form, x))


def test_short_vectors_bound_zero_and_negative():
    d4 = lattice_D4().gram
    assert nonzero_short_vectors(d4, 0) == []
    with pytest.raises(RootSystemError):
        nonzero_short_vectors(d4, -1)
    with pytest.raises(RootSystemError):
        rational_short_vectors(d4, -1)


def test_short_vectors_rejects_a_form_that_is_not_definite():
    with pytest.raises(RootSystemError):
        nonzero_short_vectors(IntMatrix([[2]]), 2)


# ---------------------------------------------------------------------------
# irreducible components
# ---------------------------------------------------------------------------

def test_decomposition_a1_plus_a1():
    lat = a1_plus_a1()
    rs = enumerate_roots(lat)
    assert ade_type(rs, dominant_functional(lat)) == ["A1", "A1"]
    assert [len(c.roots) for c in pairwise_root_types(rs, dominant_functional(lat))] == [2, 2]


def test_decomposition_d4_connected():
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    assert ade_type(rs, dominant_functional(d4)) == ["D4"]
    assert len(rs.roots) == 24
    assert len(hnf_rows(IntMatrix(rs.roots))) == 4
    # oracle: every root is reachable from the first by nonzero-pairing steps
    roots = rs.roots
    g = d4.gram

    def pair(u, v):
        return sum(u[i] * g.entries[i][j] * v[j] for i in range(4) for j in range(4))

    reached = {roots[0]}
    frontier = [roots[0]]
    while frontier:
        cur = frontier.pop()
        for other in roots:
            if other not in reached and pair(cur, other) != 0:
                reached.add(other)
                frontier.append(other)
    assert reached == set(roots)


def test_component_sublattices_orthogonal():
    # on D4 + A1 + A1 every positive root is written over the simple roots of
    # one block, and roots written over different blocks are orthogonal
    blocks = [lattice_D4().gram, IntMatrix([[-2]]), IntMatrix([[-2]])]
    lat = Lattice(IntMatrix.block_diagonal(blocks))
    alpha = dominant_functional(lat)
    rs = enumerate_roots(lat)
    assert sorted(ade_type(rs, alpha)) == ["A1", "A1", "D4"]
    simple, coordinates = simple_roots(rs, alpha)
    block = {e: 0 if any(e[:4]) else 1 if e[4] else 2 for e in simple}
    blocks = {}
    for r, coeffs in coordinates.items():
        (b,) = {block[e] for c, e in zip(coeffs, simple) if c}
        blocks[r] = b
    g = lat.gram
    for u, bu in blocks.items():
        for v, bv in blocks.items():
            if bu != bv:
                assert sum(map(mul, g.mul_vec(u), v)) == 0


def _cartan_gram(label: str) -> list[list[int]]:
    return [[-x for x in row] for row in cartan_matrix(label).entries]


NEITHER_A1_NOR_D4 = r"a component of (\d+) simple roots is neither A1 nor D4"


def _assert_typing_matches_the_pairwise_oracle(rs: RootSet, alpha: tuple[int, ...]) -> list:
    """The simple roots and coordinates of the new route equal those of the
    pairwise oracle, and so do its labels where the oracle types every
    component A1 or D4; where it types one otherwise, ade_type raises and
    names the size of such a component.  Returns the oracle's components."""
    oracle = pairwise_root_types(rs, alpha)
    others = {len(c.simple) for c in oracle if c.label not in ("A1", "D4")}
    if others:
        with pytest.raises(RootSystemError, match=NEITHER_A1_NOR_D4) as raised:
            ade_type(rs, alpha)
        assert int(re.match(NEITHER_A1_NOR_D4, str(raised.value))[1]) in others
    else:
        assert sorted(ade_type(rs, alpha)) == sorted(c.label for c in oracle)
    simple, coordinates = simple_roots(rs, alpha)
    assert sorted(simple) == sorted(e for c in oracle for e in c.simple)
    written = {r: {e: k for k, e in zip(coeffs, simple) if k} for r, coeffs in coordinates.items()}
    assert written == {r: coeffs for c in oracle for r, coeffs in c.coordinates.items()}
    return oracle


# the Grams of the decomposition, indecomposable and ADE tests
DECOMPOSITION_GRAMS = {
    "A1": [[-2]],
    "A1+A1": [[-2, 0], [0, -2]],
    "A2": [[-2, 1], [1, -2]],
    "A4": _cartan_gram("A4"),
    "D4": [list(row) for row in lattice_D4().gram.entries],
    "D5": _cartan_gram("D5"),
    "E6": _cartan_gram("E6"),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_GRAMS))
def test_pairing_components_match_the_pairwise_oracle(name):
    lat = Lattice(IntMatrix(DECOMPOSITION_GRAMS[name]))
    rs = enumerate_roots(lat)
    oracle = _assert_typing_matches_the_pairwise_oracle(rs, dominant_functional(lat))
    assert len(oracle) == (2 if name == "A1+A1" else 1)


@pytest.mark.parametrize("extra", [None, "w"], ids=["sigma2", "sigma1"])
def test_pairing_components_match_the_pairwise_oracle_on_the_complements(extra):
    ls = build_lambda()
    glue = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    if extra is not None:
        glue += (extra_glue_class(ls, extra),)
    ns = build_overlattice(ls, glue)
    comp = orthogonal_complement(ns.lattice, ns.h_in_result())
    rs = enumerate_roots(comp.lattice)
    assert len(rs) == 106
    oracle = _assert_typing_matches_the_pairwise_oracle(rs, complement_positivity(ns, comp))
    assert sorted((len(c.roots), c.label) for c in oracle) == [(2, "A1")] * 5 + [(24, "D4")] * 4


RANDOM_BLOCKS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8")


def _random_unimodular(rng: random.Random, n: int, steps: int):
    """A unimodular U and its inverse V, as products of elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # U <- E U, E = 1 + c e_i e_j^T
        for row in v:  # V <- V E^-1
            row[j] -= c * row[i]
    return IntMatrix(u), IntMatrix(v)


def test_simple_root_typing_matches_the_pairwise_oracle_on_random_sums():
    # 48 sums of one to three A1-A5, D4-D6 and E6-E8 blocks, none of them
    # made of A1 and D4 blocks alone, on which src raises, then 16 sums of two
    # to four A1 and D4 blocks, which src types; each in a random basis and
    # under a random functional that vanishes on no root
    rng = random.Random(33)
    labels = set()
    for alphabet, count, sizes in ((RANDOM_BLOCKS, 48, (1, 3)), (("A1", "D4"), 16, (2, 4))):
        for _ in range(count):
            blocks = [rng.choice(alphabet) for _ in range(rng.randint(*sizes))]
            gram = IntMatrix.block_diagonal([IntMatrix(_cartan_gram(b)) for b in blocks])
            n = gram.rows
            # the basis rows U B have the Gram U G U^T, and a vector with
            # coordinates r over B has coordinates r V over U B
            u, v = _random_unimodular(rng, n, 3 * n)
            vt = IntMatrix(rat_transpose(v.entries))
            roots = tuple(sorted(vt.mul_vec(r) for r in nonzero_short_vectors(gram, 2)))
            ugut = rat_mul(rat_mul(u.entries, gram.entries), rat_transpose(u.entries))
            rs = RootSet(Lattice(IntMatrix(ugut)), roots)
            alpha = tuple(rng.randint(-1000, 1000) for _ in range(n))
            while any(sum(map(mul, alpha, r)) == 0 for r in roots):
                alpha = tuple(rng.randint(-1000, 1000) for _ in range(n))
            oracle = _assert_typing_matches_the_pairwise_oracle(rs, alpha)
            assert sorted(c.label for c in oracle) == sorted(blocks)
            labels.update(blocks)
    assert labels == set(RANDOM_BLOCKS)


def test_decomposition_of_a_lattice_without_roots_is_empty():
    rs = enumerate_roots(Lattice(IntMatrix([[-4]])))
    alpha = (1,)
    assert len(rs) == 0
    assert simple_roots(rs, alpha) == ([], {})
    assert ade_type(rs, alpha) == []


def test_root_set_keeps_the_images_it_was_enumerated_with():
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    assert rs == RootSet(d4, rs.roots) and hash(rs) == hash(RootSet(d4, rs.roots))


# ---------------------------------------------------------------------------
# positive parts and simple roots
# ---------------------------------------------------------------------------

def test_indecomposables_a1():
    a1 = lattice_A1()
    simple, _ = simple_roots(enumerate_roots(a1), dominant_functional(a1))
    assert simple == [(1,)]


def test_indecomposables_d4_are_basis_roots():
    d4 = lattice_D4()
    eps, _ = simple_roots(enumerate_roots(d4), dominant_functional(d4))
    assert sorted(eps) == sorted(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    # the fork pattern: center pairs 1 with the three leaves, leaves are orthogonal
    g = d4.gram

    def pair(u, v):
        return sum(u[i] * g.entries[i][j] * v[j] for i in range(4) for j in range(4))

    center = (0, 0, 1, 0)
    leaves = [e for e in eps if e != center]
    assert all(pair(center, l) == 1 for l in leaves)
    assert all(pair(a, b) == 0 for a in leaves for b in leaves if a != b)


def test_indecomposable_count_equals_rank():
    # the rank of the span of the roots, by the Hermite form
    for lat in (lattice_A1(), lattice_D4(), a1_plus_a1()):
        alpha = dominant_functional(lat)
        rs = enumerate_roots(lat)
        rank = len(hnf_rows(IntMatrix(rs.roots)))
        assert len(simple_roots(rs, alpha)[0]) == rank
        assert sum(int(label[1:]) for label in ade_type(rs, alpha)) == rank


def _ade_type_with_simple_roots(monkeypatch, change):
    """ade_type of D4, with the output of simple_roots changed."""
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    real = root_systems.simple_roots
    assert ade_type(rs, alpha) == ["D4"]
    monkeypatch.setattr(root_systems, "simple_roots", lambda r, a: change(*real(r, a)))
    return ade_type(rs, alpha)


def _drop_simple_root(simple, coordinates, root):
    i = simple.index(root)
    return simple[:i] + simple[i + 1 :], {r: c[:i] + c[i + 1 :] for r, c in coordinates.items()}


def test_indecomposable_count_check_fires_on_a_basis_one_short(monkeypatch):
    # with the leaf D1 dropped, the other simple roots are an A3, one
    # component of three nodes, which is neither summand type
    message = "a component of 3 simple roots is neither A1 nor D4"
    with pytest.raises(RootSystemError, match=message):
        _ade_type_with_simple_roots(monkeypatch, lambda s, c: _drop_simple_root(s, c, (1, 0, 0, 0)))


def test_indecomposable_count_check_fires_on_a_basis_one_too_many(monkeypatch):
    # a positive root that is not simple pairs to -1 with a simple root, so
    # the five are one component, and a Gram of 5 roots in rank 4 is singular
    message = "a component of 5 simple roots is neither A1 nor D4"
    with pytest.raises(RootSystemError, match=message):
        _ade_type_with_simple_roots(monkeypatch, lambda s, c: (s + [(1, 0, 1, 0)], c))


def test_cartan_match_fires_on_vectors_of_norm_minus_4():
    # +-e1 of the Gram (-4) give one node with no edge, whose Gram is (-4),
    # not the A1 Gram (-2)
    rs = RootSet(Lattice(IntMatrix([[-4]])), ((-1,), (1,)))
    with pytest.raises(RootSystemError, match="a component of 1 simple roots is neither"):
        ade_type(rs, (1,))


def test_positivity_value_is_pairing_with_the_dual_vector():
    d4 = lattice_D4()
    duals = [d4.dual_basis_vector(j) for j in range(4)]
    vectors = duals + [duals[0] + duals[1] + duals[2] + duals[3], vector(d4, (1, -1, 0, 2))]
    roots = enumerate_roots(d4).roots
    assert len(roots) == 24
    for v in vectors:
        # the form G num_v is v.r scaled by the positive v.den
        alpha = v.pairing_numerators()
        for r in roots:
            assert Fraction(sum(map(mul, alpha, r)), v.den) == pairing(v, vector(d4, r))


def test_positivity_functional_must_not_vanish():
    lat = a1_plus_a1()
    alpha = lat.dual_basis_vector(0).pairing_numerators()
    rs = enumerate_roots(lat)
    assert any(sum(map(mul, alpha, r)) == 0 for r in rs.roots)
    with pytest.raises(RootSystemError, match="vanishes on a root"):
        simple_roots(rs, alpha)
    with pytest.raises(RootSystemError, match="vanishes on a root"):
        ade_type(rs, alpha)


# ---------------------------------------------------------------------------
# coordinates of the positive roots, rebuilt by the last check of ade_type
# ---------------------------------------------------------------------------

def _coeffs_by_simple_root(rs, alpha, root):
    """Map a root's coordinates over the simple roots onto them for readability."""
    simple, coordinates = simple_roots(rs, alpha)
    return dict(zip(simple, coordinates[root]))


D1, D2, D3, D4_ = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def test_decompose_simple_root_unit_vector():
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    assert _coeffs_by_simple_root(rs, alpha, D1) == {D1: 1, D2: 0, D3: 0, D4_: 0}


def test_decompose_highest_root():
    d4 = lattice_D4()
    g = d4.gram
    theta = (1, 1, 2, 1)
    norm = sum(theta[i] * g.entries[i][j] * theta[j] for i in range(4) for j in range(4))
    assert norm == -2
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    assert _coeffs_by_simple_root(rs, alpha, theta) == {D1: 1, D2: 1, D3: 2, D4_: 1}


def test_decompose_d1_plus_d3():
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    assert _coeffs_by_simple_root(rs, alpha, (1, 0, 1, 0)) == {D1: 1, D2: 0, D3: 1, D4_: 0}


def test_decompose_second_path_and_nonnegativity():
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    eps, coordinates = simple_roots(rs, alpha)
    for r in rs.roots:
        if sum(map(mul, alpha, r)) <= 0:
            assert r not in coordinates
            continue
        coeffs = coordinates[r]
        assert all(c >= 0 for c in coeffs)
        # second path: plain coordinate solve against the simple-root matrix
        rebuilt = [0] * 4
        for c, e in zip(coeffs, eps):
            for i in range(4):
                rebuilt[i] += c * e[i]
        assert tuple(rebuilt) == r


def test_decomposition_check_names_the_first_root_that_fails(monkeypatch):
    # with D3 swapped for the highest root theta = D1 + D2 + 2*D3 + D4_ among
    # the simple roots, the four are orthogonal and pass as 4A1, and D3 is
    # the first positive root in increasing alpha that its coordinates do
    # not rebuild
    def swap(simple, coordinates):
        assert simple == [D4_, D3, D2, D1]
        return [D4_, (1, 1, 2, 1), D2, D1], coordinates

    with pytest.raises(RootSystemError, match=r"positive root \(0, 0, 1, 0\) does not decompose"):
        _ade_type_with_simple_roots(monkeypatch, swap)


def test_unique_nonneg_spanning_set_is_the_indecomposables():
    # any set with the unique-non-negative-expression property coincides with
    # the simple roots: verified on A1, a chain of two roots, and D4
    a2 = Lattice(IntMatrix([[-2, 1], [1, -2]]))
    for lat in (lattice_A1(), a2, lattice_D4()):
        alpha = dominant_functional(lat)
        rs = enumerate_roots(lat)
        eps, coordinates = simple_roots(rs, alpha)
        plus = [r for r in rs.roots if sum(map(mul, alpha, r)) > 0]
        # every positive root decomposes uniquely over eps with non-negative
        # integers, and no proper subset can do it
        assert set(coordinates) == set(plus)
        for drop in range(len(eps)):
            subset = [e for i, e in enumerate(eps) if i != drop]
            assert not all(_expressible(lat, subset, r) for r in plus)


def _expressible(lat, gens, target, limit=4):
    span = {(0,) * lat.rank}
    for g in gens:
        new = set()
        for base in span:
            for c in range(limit + 1):
                new.add(tuple(b + c * gi for b, gi in zip(base, g)))
        span = new
    return tuple(target) in span


# ---------------------------------------------------------------------------
# ADE classification: A1 and D4 in the package, the rest in the oracle
# ---------------------------------------------------------------------------

def _roots_of(gram_entries):
    lat = Lattice(IntMatrix(gram_entries))
    return enumerate_roots(lat), dominant_functional(lat)


def test_ade_type_a4_chain():
    # four nodes with no fork: the size of D4, and not its Gram
    gram = [
        [-2, 1, 0, 0],
        [1, -2, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -2],
    ]
    assert pairwise_root_types(*_roots_of(gram))[0].label == "A4"
    with pytest.raises(RootSystemError, match="a component of 4 simple roots is neither"):
        ade_type(*_roots_of(gram))


def test_ade_type_d4():
    assert ade_type(*_roots_of([list(r) for r in lattice_D4().gram.entries])) == ["D4"]


def test_ade_type_single_root():
    assert ade_type(*_roots_of([[-2]])) == ["A1"]


def test_ade_type_e6():
    assert pairwise_root_types(*_roots_of(_cartan_gram("E6")))[0].label == "E6"
    with pytest.raises(RootSystemError, match="a component of 6 simple roots is neither"):
        ade_type(*_roots_of(_cartan_gram("E6")))


def test_ade_type_d5():
    assert pairwise_root_types(*_roots_of(_cartan_gram("D5")))[0].label == "D5"
    with pytest.raises(RootSystemError, match="a component of 5 simple roots is neither"):
        ade_type(*_roots_of(_cartan_gram("D5")))


@pytest.mark.parametrize("label", ["A2", "A4"])
def test_a_component_of_neither_type_is_named_by_its_size(label):
    n = int(label[1:])
    with pytest.raises(RootSystemError) as raised:
        ade_type(*_roots_of(_cartan_gram(label)))
    assert str(raised.value) == f"a component of {n} simple roots is neither A1 nor D4"


def test_gram_of_indecomposables_is_minus_cartan():
    # the classifier itself certifies this; re-check the D4 case explicitly
    d4 = lattice_D4()
    rs = enumerate_roots(d4)
    alpha = dominant_functional(d4)
    (label,) = ade_type(rs, alpha)
    assert cartan_matrix(label).rows == len(hnf_rows(IntMatrix(rs.roots))) == 4
    center, leaves = D3, [D1, D2, D4_]
    order = leaves[:2] + [center] + leaves[2:]
    g = d4.gram
    assert [[-sum(map(mul, g.mul_vec(a), b)) for b in order] for a in order] == [
        list(row) for row in cartan_matrix(label).entries
    ]


def _tree(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return sorted(adj), adj


def test_non_ade_diagram_rejected():
    # a triangle is not a tree
    nodes = [(1,), (2,), (3,)]
    adj = {(1,): [(2,), (3,)], (2,): [(1,), (3,)], (3,): [(1,), (2,)]}
    with pytest.raises(RootSystemError, match="not a tree"):
        diagram_order(nodes, adj)
    # a star with four branches has a node of degree 4
    nodes = [(0,), (1,), (2,), (3,), (4,)]
    adj = {(0,): [(1,), (2,), (3,), (4,)]}
    for i in range(1, 5):
        adj[(i,)] = [(0,)]
    with pytest.raises(RootSystemError, match="degree > 3"):
        diagram_order(nodes, adj)
    # the affine D5 tree: two forks joined by an edge, two leaves at each
    with pytest.raises(RootSystemError, match="two fork nodes"):
        diagram_order(*_tree([(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]))
    # the affine E6 tree: three branches of length 2
    with pytest.raises(RootSystemError, match="branch profile is not of ADE shape"):
        diagram_order(*_tree([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]))
    # the E6 tree with a branch of length 1 in place of one of them passes
    assert diagram_order(*_tree([(0, 1), (0, 3), (3, 4), (0, 5), (5, 6)]))[0] == "E6"


def test_root_set_json():
    rs = enumerate_roots(lattice_A1())
    assert rs.lattice.rank == 1 and rs.roots == ((-1,), (1,)) and len(rs) == 2
    alpha = dominant_functional(lattice_A1())
    assert simple_roots(rs, alpha) == ([(1,)], {(1,): (1,)})
    assert ade_type(rs, alpha) == ["A1"]


# ---------------------------------------------------------------------------
# bounded class searches
# ---------------------------------------------------------------------------

def maximizers(lattice: Lattice, cls, found) -> list:
    """The coordinates of the vectors y / den of a search's entries at its
    maximum norm, den the class's denominator."""
    den = cls.component[1]
    return [coords(DualVector(lattice, y, den)) for norm2, y in found if norm2 == found[0][0]]


def runner_up(found):
    """The first norm of a search below its maximum, or None."""
    return next((norm2 for norm2, _ in found if norm2 < found[0][0]), None)


def test_a1_zero_class_search():
    a1 = lattice_A1()
    cls = class_of(a1.zero())
    found = bounded_class_minimizers(a1, cls, -4)
    assert found[0][0] == 0
    assert maximizers(a1, cls, found) == [(Fraction(0),)]
    assert runner_up(found) == -4
    assert found == ((0, (0,)), (-4, (-1,)))


def test_a1_dual_class_search():
    a1 = lattice_A1()
    cls = class_of(a1.dual_basis_vector(0))
    found = bounded_class_minimizers(a1, cls, -9)
    assert found[0][0] == -1
    assert maximizers(a1, cls, found) == [(Fraction(-1, 2),)]
    assert runner_up(found) == -9
    assert all(norm2 >= -9 for norm2, _ in found)


def test_d4_zero_class_search():
    d4 = lattice_D4()
    cls = class_of(d4.zero())
    found = bounded_class_minimizers(d4, cls, -4)
    assert found[0][0] == 0
    assert len(maximizers(d4, cls, found)) == 1
    assert runner_up(found) == -4
    assert all(norm2 >= -4 for norm2, _ in found)


def test_d4_leaf_class_search():
    d4 = lattice_D4()
    d1_dual = d4.dual_basis_vector(0)
    cls = class_of(d1_dual)
    found = bounded_class_minimizers(d4, cls, -6)
    assert found[0][0] == -2
    assert maximizers(d4, cls, found) == [coords(d1_dual)]
    assert runner_up(found) <= -6
    assert norms_all_odd(d4, d1_dual)
    assert all(norm2 >= -6 for norm2, _ in found)


def test_d4_other_leaf_class_search():
    d4 = lattice_D4()
    d4_dual = d4.dual_basis_vector(3)
    cls = class_of(d4_dual)
    found = bounded_class_minimizers(d4, cls, -5)
    assert found[0][0] == -2
    assert maximizers(d4, cls, found) == [coords(d4_dual)]
    assert norms_all_odd(d4, d4_dual)


def test_d4_sum_class_search():
    # the class of the second dual vector equals the sum of the two leaf classes
    d4 = lattice_D4()
    d2_dual = d4.dual_basis_vector(1)
    cls = class_of(d2_dual)
    assert cls == class_of(d4.dual_basis_vector(0) + d4.dual_basis_vector(3))
    found = bounded_class_minimizers(d4, cls, -5)
    assert found[0][0] == -2
    assert norms_all_odd(d4, d2_dual)


def as_numerators(cls, points) -> list:
    """Each oracle point (norm2, x), the vector rep + x for rep the class's
    component num / den, as the search reports it: (norm2, y) with the
    numerator y = num + den x over den."""
    num, den = cls.component
    return [(norm2, tuple(a + den * b for a, b in zip(num, x))) for norm2, x in points]


def naive_in_box(lattice: Lattice, rep, box: int) -> list:
    """Independent oracle: every rep + x in the box pairing non-negatively with
    each basis vector, as (2 v*v, x) by decreasing norm, computed with pairing."""
    basis = [basis_vector(lattice, i) for i in range(lattice.rank)]
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=lattice.rank):
        v = rep + vector(lattice, x)
        if all(pairing(v, e) >= 0 for e in basis):
            out.append((2 * pairing(v, v), x))
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


@pytest.mark.parametrize(
    "name, dual_index",
    [("A1", None), ("A1", 0), ("D4", None), ("D4", 0), ("D4", 1), ("D4", 3)],
    ids=["A1-zero", "A1-dual", "D4-zero", "D4-d1", "D4-d2", "D4-d4"],
)
def test_in_box_points_match_naive_enumeration(name, dual_index):
    # the hyperplane bound puts every vector outside the box 3 below the
    # budget floor -5, so the search down to it finds exactly the naive box
    # points at or above it
    lattice = lattice_A1() if name == "A1" else lattice_D4()
    v = lattice.zero() if dual_index is None else lattice.dual_basis_vector(dual_index)
    cls = class_of(v)
    rep = DualVector(lattice, *cls.component)
    found = bounded_class_minimizers(lattice, cls, -5)
    assert outside_bound(lattice, rep, 3) < -5
    naive = as_numerators(cls, naive_in_box(lattice, rep, 3))
    assert list(found) == [t for t in naive if t[0] >= -5]
    assert found[0][0] == max(norm2 for norm2, _ in naive)


def test_unsupported_lattice_rejected():
    # A2 is even and negative definite: its zero class certifies, and its two
    # nonzero classes, of norm -2/3 mod 2, have no half-integral norm to scan
    a2 = Lattice(IntMatrix([[-2, 1], [1, -2]]))
    found = bounded_class_minimizers(a2, class_of(a2.zero()), -5)
    assert (found[0][0], runner_up(found), norms_all_odd(a2, a2.zero())) == (0, -4, False)
    classes = {class_of(a2.dual_basis_vector(j)) for j in range(2)}
    assert len(classes) == 2 and class_of(a2.zero()) not in classes
    for cls in classes:
        with pytest.raises(RootSystemError, match="representative norm is not half-integral"):
            bounded_class_minimizers(a2, cls, -5)


def test_class_search_takes_a_class_no_dual_basis_vector_represents():
    # the class (1, 1) of A1 + A1 is the sum of the two dual basis classes;
    # its component (1/2, 1/2) gives the denominator 2 of the numerators, and
    # the cone's maximum is -(1/2, 1/2), then -(3/2, 1/2) and -(1/2, 3/2) at
    # norm -5
    lattice = a1_plus_a1()
    cls = class_of(lattice.dual_basis_vector(0) + lattice.dual_basis_vector(1))
    found = bounded_class_minimizers(lattice, cls, -10)
    assert found[0][0] == -2 and runner_up(found) == -10
    assert maximizers(lattice, cls, found) == [(Fraction(-1, 2), Fraction(-1, 2))]
    assert found == ((-2, (-1, -1)), (-10, (-3, -1)), (-10, (-1, -3)))


def test_class_search_rejects_a_class_of_another_lattice():
    a1, d4 = lattice_A1(), lattice_D4()
    with pytest.raises(RootSystemError, match="class belongs to a different lattice"):
        bounded_class_minimizers(d4, class_of(a1.zero()), -5)


def test_norm_parity_requires_an_even_lattice():
    odd = Lattice(IntMatrix([[-1]]))
    with pytest.raises(RootSystemError, match="norm parity requires an even lattice"):
        norms_all_odd(odd, odd.zero())


def test_norm_parity_requires_a_dual_vector():
    a1 = lattice_A1()
    with pytest.raises(RootSystemError, match="norm parity requires a dual vector"):
        norms_all_odd(a1, vector(a1, [Fraction(1, 4)]))


D4_LEAVES = (0, 1, 3)  # basis positions of the three outer nodes; position 2 is the center


def d4_leaf_forms(leaf: int) -> list:
    """Oracle: the paper's identity 2 (rep + x)^2 = -(f_0^2 + ... + f_3^2) on
    the class of the dual of a D4 leaf, as the four linear forms f_k."""
    others = [k for k in D4_LEAVES if k != leaf]
    return [
        lambda x, j=leaf: 1 - 2 * x[j] + x[2],
        lambda x, k=others[0]: -2 * x[k] + x[2],
        lambda x, k=others[1]: -2 * x[k] + x[2],
        lambda x: x[2] - 1,
    ]


def named_rep(lattice: Lattice, cls) -> tuple:
    """(name, rep, leaf): the first of zero and the dual basis vectors that
    lies in the class, named zero, a_dual or d<j>_dual, with the basis
    position of the leaf on a D4 leaf class and None otherwise."""
    if cls == class_of(lattice.zero()):
        return "zero", lattice.zero(), None
    j = next(j for j in range(lattice.rank) if class_of(lattice.dual_basis_vector(j)) == cls)
    rep = lattice.dual_basis_vector(j)
    if lattice.rank == 1:
        return "a_dual", rep, None
    return f"d{j + 1}_dual", rep, j


def product_box_scan(lattice: Lattice, rep, box: int, forms) -> tuple:
    """Oracle: the former scan, G x summed in full at every point of the box,
    with the leaf norm identity checked and the parity of the norm read at
    every point; the points as (2 v*v, x)."""
    g = lattice.gram.entries
    n = lattice.rank
    grep = list(rep.integer_pairings())
    rep_norm2 = int(2 * norm(rep))
    all_odd = True
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=n):
        gx = [sum(g[i][j] * x[j] for j in range(n)) for i in range(n)]
        quad = sum(x[i] * gx[i] for i in range(n))
        cross = sum(a * b for a, b in zip(grep, x))
        norm2 = rep_norm2 + 4 * cross + 2 * quad
        if forms is not None and norm2 != -sum(f(x) ** 2 for f in forms):
            raise RootSystemError("leaf-class norm identity failed")
        if norm2 % 4 != 2:
            all_odd = False
        if all(a + b >= 0 for a, b in zip(grep, gx)):
            out.append((norm2, x))
    return out, all_odd


def _every_class():
    # the dual basis generates the dual lattice, and 2-elementarity makes
    # its 0/1 combinations meet every class
    for lattice in (lattice_A1(), lattice_D4()):
        classes = {}
        for bits in itertools.product((0, 1), repeat=lattice.rank):
            v = lattice.zero()
            for j, bit in enumerate(bits):
                if bit:
                    v = v + lattice.dual_basis_vector(j)
            classes.setdefault(class_of(v), None)
        assert len(classes) == abs(lattice.det())
        for cls in classes:
            yield lattice, cls


@pytest.mark.parametrize("box", [3, 4, 8])
def test_box_scan_matches_the_product_scan(box):
    # the box scan oracle takes the one interval scan; the parity of the
    # representative's norm agrees with the parity read at every point of
    # the box, where the leaf classes also satisfy the paper's identity
    seen = set()
    for lattice, cls in _every_class():
        name, rep, leaf = named_rep(lattice, cls)
        seen.add((lattice.rank, name))
        forms = d4_leaf_forms(leaf) if leaf is not None else None
        found, all_odd = product_box_scan(lattice, rep, box, forms)
        assert box_scan(lattice, rep, box) == found
        assert norms_all_odd(lattice, rep) == all_odd
    assert seen == {
        (1, "zero"), (1, "a_dual"), (4, "zero"), (4, "d1_dual"), (4, "d2_dual"), (4, "d4_dual")
    }


BLOCKS = {
    "A1": [[-2]],
    "A2": [[-2, 1], [1, -2]],
    "A3": [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
    "D4": [list(row) for row in lattice_D4().gram.entries],
}


def _block_sum(blocks: list) -> Lattice:
    return Lattice(IntMatrix.block_diagonal([IntMatrix(BLOCKS[b]) for b in blocks]))


def _all_classes(lattice: Lattice) -> list:
    """Every discriminant class: the dual basis generates the dual lattice
    and |det| kills the group, so the combinations with coefficients below
    |det| meet every class."""
    d = abs(lattice.det())
    duals = [lattice.dual_basis_vector(j) for j in range(lattice.rank)]
    classes = {}
    for coeffs in itertools.product(range(d), repeat=lattice.rank):
        v = lattice.zero()
        for c, w in zip(coeffs, duals):
            v = v + DualVector(lattice, [c * a for a in w.num], w.den)
        classes.setdefault(class_of(v), None)
    return list(classes)


@pytest.mark.parametrize("box", [3, 8])
def test_found_matches_the_box_scan_oracle(box):
    # the hyperplane bound puts every vector outside the box below the floor
    # one half-unit above it, so down to that floor (and to the budget -5)
    # the coset enumeration finds exactly the box scan's points; on every
    # class of A1, D4, A1 + A1 and A3, whose classes of order 4 have no
    # half-integral norm and are rejected
    rejected = searched = 0
    for blocks in (["A1"], ["D4"], ["A1", "A1"], ["A3"]):
        lattice = _block_sum(blocks)
        for cls in _all_classes(lattice):
            rep = DualVector(lattice, *cls.component)
            if (2 * norm(rep)).denominator != 1:
                assert cls.component[1] == 4
                with pytest.raises(RootSystemError, match="not half-integral"):
                    bounded_class_minimizers(lattice, cls, -5)
                rejected += 1
                continue
            scan = sorted(box_scan(lattice, rep, box), key=lambda t: (-t[0], t[1]))
            scan = as_numerators(cls, scan)
            bound2 = outside_bound(lattice, rep, box)
            for floor2 in {bound2 + 1, -5}:
                found = bounded_class_minimizers(lattice, cls, floor2)
                assert all(norm2 >= floor2 for norm2, _ in found)
                assert list(found) == [t for t in scan if t[0] >= floor2], (blocks, cls)
            searched += 1
    assert (searched, rejected) == (2 + 4 + 4 + 2, 2)


def _naive_coset_points(gram: IntMatrix, bound: int, num, den: int, radius: int) -> list:
    """Oracle: every y = num + den x with x in the box of the radius and
    y^T (-gram) y <= bound, x checked to sit strictly inside the box."""
    n = gram.rows
    g = gram.entries
    out = []
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        y = [a + den * b for a, b in zip(num, x)]
        if -sum(y[i] * g[i][j] * y[j] for i in range(n) for j in range(n)) <= bound:
            assert max(map(abs, x)) < radius
            out.append(tuple(y))
    return out


def test_short_vectors_on_a_coset_match_the_naive_scan():
    # the classes of order 4 of A3 included, and a coset over 3 that is no
    # discriminant class; zero is kept on every coset
    cases = []
    for blocks, bound in ((["A1"], 10), (["A1", "A1"], 10), (["A3"], 6), (["D4"], 3)):
        lattice = _block_sum(blocks)
        for cls in _all_classes(lattice):
            num, den = cls.component
            # -v*v <= bound for v = y / den
            cases.append((lattice.gram, bound * den * den, num, den))
    cases.append((_block_sum(["A2"]).gram, 20, (1, 2), 3))
    assert {den for *_, den in cases} == {1, 2, 3, 4}
    for gram, bound, num, den in cases:
        got = short_vectors(gram, bound, (num, den))
        assert got and got == _naive_coset_points(gram, bound, num, den, 5)
    assert (0,) in short_vectors(lattice_A1().gram, 2, ((0,), 1))


def test_norm_parity_matches_the_product_scan_on_block_sums():
    # every half-integral class that zero or a dual basis vector represents,
    # on seeded block sums of rank <= 4, searched down to one half-unit above
    # the box 3 hyperplane bound
    rng = random.Random(22)
    parities = set()
    for _ in range(12):
        blocks, rank = [], 0
        while not blocks or rng.random() < 0.6:
            fits = [name for name, g in BLOCKS.items() if rank + len(g) <= 4]
            if not fits:
                break
            blocks.append(rng.choice(fits))
            rank += len(BLOCKS[blocks[-1]])
        lattice = _block_sum(blocks)
        duals = [lattice.dual_basis_vector(j) for j in range(lattice.rank)]
        for v in [lattice.zero()] + duals:
            if (2 * norm(v)).denominator != 1:
                continue
            rep = DualVector(lattice, *class_of(v).component)
            floor2 = outside_bound(lattice, rep, 3) + 1
            searched = bounded_class_minimizers(lattice, class_of(v), floor2)
            found, all_odd = product_box_scan(lattice, rep, 3, None)
            expected = sorted((t for t in found if t[0] >= floor2), key=lambda t: (-t[0], t[1]))
            expected = as_numerators(class_of(v), expected)
            assert list(searched) == expected
            assert norms_all_odd(lattice, rep) == all_odd, blocks
            parities.add(all_odd)
    assert parities == {False, True}


def test_box_scan_rejects_a_corrupted_leaf_form():
    # the oracle scan is not vacuous: a wrong leaf form breaks the identity
    d4 = lattice_D4()
    name, rep, leaf = named_rep(d4, class_of(d4.dual_basis_vector(0)))
    forms = d4_leaf_forms(leaf)
    forms[3] = lambda x: x[2]  # the correct form is x[2] - 1
    with pytest.raises(RootSystemError, match="leaf-class norm identity failed"):
        product_box_scan(d4, rep, 3, forms)


def hand_derivedoutside_bound(lattice: Lattice, rep, leaf, box: int) -> Fraction:
    """Oracle: the three case-by-case bounds that the hyperplane bound replaced."""
    b = box
    if lattice.rank == 1:
        return -2 * (Fraction(b + 1) - abs(coords(rep)[0])) ** 2
    if leaf is not None:
        return max(
            -1 - Fraction(b * b - 2, 2),
            -1 - Fraction((b + 1) ** 2 - 2, 2),
            -1 - Fraction((b + 2) ** 2 - 2, 2),
        )
    # zero class on D4: 4 (-G) - I is positive definite, so -v*v > |x|^2 / 4
    # and leaving the box forces v*v < -(b + 1)^2 / 4
    n = lattice.rank
    g = lattice.gram.entries
    four_q_minus_i = IntMatrix([[-4 * g[i][j] - (i == j) for j in range(n)] for i in range(n)])
    assert inertia(four_q_minus_i)[0] == n
    return -Fraction((b + 1) ** 2, 4)


@pytest.mark.parametrize("box", [3, 4, 8, 16])
def test_outside_bound_matches_the_hand_derived_bounds(box):
    # floor(2 B) for the hand-derived norm bound B: equal on both A1 classes
    # and the three D4 leaf classes, tighter on the D4 zero class
    for lattice, cls in _every_class():
        name, rep, leaf = named_rep(lattice, cls)
        bound = outside_bound(lattice, rep, box)
        oracle = math.floor(2 * hand_derivedoutside_bound(lattice, rep, leaf, box))
        if (lattice.rank, name) == (4, "zero"):
            assert bound <= oracle
        else:
            assert bound == oracle


def rationaloutside_bound(lattice: Lattice, rep, box: int) -> Fraction:
    """Oracle: the hyperplane bound B in Fractions, the largest t^2 / (G^-1)_ii
    over i and t = rep_i +- (box + 1), with a rational inverse of the Gram."""
    ginv = invert_rational(to_rational(lattice.gram))
    reach = box + 1
    return max(t * t / ginv[i][i] for i, r in enumerate(coords(rep)) for t in (r + reach, r - reach))


@pytest.mark.parametrize("box", [3, 4, 7])
def test_outside_bound_is_the_floor_of_twice_the_rational_bound(box):
    # on block sums with A2 and A3, where 2 B is not always an integer, so
    # rounding up instead of down would show
    fractional = 0
    for blocks in (["A1"], ["D4"], ["A2"], ["A3"], ["A1", "A2"], ["A2", "A2"], ["A1", "A3"]):
        lattice = _block_sum(blocks)
        for rep in [lattice.zero()] + [lattice.dual_basis_vector(j) for j in range(lattice.rank)]:
            for r in (rep, negated(rep)):
                bound = rationaloutside_bound(lattice, r, box)
                assert outside_bound(lattice, r, box) == math.floor(2 * bound), blocks
                fractional += (2 * bound).denominator != 1
    assert fractional > 0


def test_outside_bounds_at_box_3():
    pinned = {
        (1, "zero"): -32,
        (1, "a_dual"): Fraction(-49, 2),
        (4, "zero"): -8,
        (4, "d1_dual"): Fraction(-9, 2),
        (4, "d2_dual"): Fraction(-9, 2),
        (4, "d4_dual"): Fraction(-9, 2),
    }
    for lattice, cls in _every_class():
        name, rep, _ = named_rep(lattice, cls)
        assert outside_bound(lattice, rep, 3) == 2 * pinned[(lattice.rank, name)]


def test_outside_bound_holds_on_a_shell_around_the_box():
    # every class vector one step outside the box 3 sits at or below
    # the bound, in half-units; -rep has coordinates of the other sign, so
    # both hyperplanes count
    box, width = 3, 1
    for lattice, cls in _every_class():
        g = lattice.gram.entries
        n = lattice.rank
        rep = named_rep(lattice, cls)[1]
        for r in (rep, negated(rep)):
            grep = r.integer_pairings()
            top = None
            for x in itertools.product(range(-box - width, box + width + 1), repeat=n):
                if max(map(abs, x)) <= box:
                    continue
                quad = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
                norm2 = 2 * norm(r) + 4 * sum(map(mul, grep, x)) + 2 * quad
                top = norm2 if top is None else max(top, norm2)
            assert top <= outside_bound(lattice, r, box)


def test_outside_bound_requires_a_negative_definite_lattice():
    lattice = Lattice(IntMatrix([[2]]))
    with pytest.raises(RootSystemError, match="outside bound requires a negative-definite lattice"):
        outside_bound(lattice, lattice.zero(), 3)


def test_outside_bound_requires_the_representative_inside_the_box():
    d4 = lattice_D4()
    with pytest.raises(RootSystemError, match="representative coordinate is not inside the box"):
        outside_bound(d4, vector(d4, [0, 0, -4, 0]), 3)


def test_class_search_rejects_a_bound_above_the_maximum():
    # a floor above the class maximum -1 leaves nothing to find
    a1 = lattice_A1()
    with pytest.raises(RootSystemError, match="empty constrained search"):
        bounded_class_minimizers(a1, class_of(a1.dual_basis_vector(0)), 0)


def test_d4_class_searches_at_box_16_fit_the_budget():
    # each D4 class enumerated down to one half-unit above its box 16
    # hyperplane bound, which covers everything the box 16 scan and its
    # certificate did; the parity is read off each representative's norm
    root_systems._class_search.cache_clear()
    root_systems.coset_points.cache_clear()
    floors = []
    for lattice, cls in _every_class():
        if lattice.rank == 4:
            floors.append((lattice, cls, outside_bound(lattice, DualVector(lattice, *cls.component), 16) + 1))
    assert all(floor2 <= -6 for *_, floor2 in floors)
    start = time.perf_counter()
    searches = [(floor2, bounded_class_minimizers(lattice, cls, floor2)) for lattice, cls, floor2 in floors]
    assert time.perf_counter() - start <= 1.0
    assert all(norm2 >= floor2 for floor2, found in searches for norm2, _ in found)


def test_elimination_of_the_negated_gram_is_read_off_the_gram():
    # short_vectors enumerates -gram from the steps of gram: the entries at
    # step i are (i + 1)-minors, so negating the matrix scales step i by (-1)^(i+1);
    # hyperbolic steps, skipped pivots and singular matrices included
    rng = random.Random(2024)
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[-2, 2], [2, -2]], [[0, 1, 0], [1, 0, 1], [0, 1, 2]]]
    for _ in range(200):
        n = rng.randrange(1, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.choice([0, 0, 0, 1, -1, 2, -2, 3])
        cases.append(a)
    for a in cases:
        steps = symmetric_elimination(IntMatrix(a))
        sign = lambda i: -1 if i % 2 == 0 else 1
        expected = tuple(
            (piv, sign(i) * p, tuple(sign(i) * x for x in row)) for i, (piv, p, row) in enumerate(steps)
        )
        assert symmetric_elimination(IntMatrix([[-x for x in row] for row in a])) == expected


def test_enumerating_the_roots_of_a_lattice_eliminates_its_gram_once(monkeypatch):
    # the signature check and the Fincke-Pohst enumeration share one elimination
    calls = []
    real = exact_arith._eliminate
    monkeypatch.setattr(exact_arith, "_eliminate", lambda a: calls.append(a.rows) or real(a))
    lat = Lattice(_root_sum([lattice_D4()] * 2 + [lattice_A1()] * 3))
    assert is_negative_definite(lat)
    assert len(enumerate_roots(lat)) == 2 * 24 + 3 * 2
    assert calls == [11]
    with pytest.raises(RootSystemError, match="requires a negative-definite lattice"):
        enumerate_roots(Lattice(IntMatrix([[-2, 3], [3, -2]])))
