import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from k3lat import exact_arith
from k3lat.exact_arith import (
    ExactArithError,
    IntMatrix,
    hnf_rows,
    inertia,
    invert,
    rank_mod_2,
    symmetric_elimination,
)
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    EXTRA_GLUE_CHOICES,
    build_lambda,
    build_overlattice,
    extra_glue_class,
    halfline_class,
)
import rational_oracles
from rational_oracles import (
    SnfResult,
    as_fractions,
    check_snf,
    det,
    invert_rational,
    kernel_basis,
    orthogonal_complement,
    rat_identity,
    rat_mul,
    rational_inertia,
    snf,
    to_rational,
)

def identity(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


NEG_CARTAN_D4 = IntMatrix(
    [
        [-2, 0, 1, 0],
        [0, -2, 1, 0],
        [1, 1, -2, 1],
        [0, 0, 1, -2],
    ]
)

# dual-basis coordinate matrix of the D4 Gram above
DUAL_D4 = to_rational(
    [
        [-1, Fraction(-1, 2), -1, Fraction(-1, 2)],
        [Fraction(-1, 2), -1, -1, Fraction(-1, 2)],
        [-1, -1, -2, -1],
        [Fraction(-1, 2), Fraction(-1, 2), -1, -1],
    ]
)


def lambda_rs_gram() -> IntMatrix:
    blocks = [IntMatrix([[2]])]
    blocks += [NEG_CARTAN_D4] * 4
    blocks += [IntMatrix([[-2]])] * 5
    return IntMatrix.block_diagonal(blocks)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def det_cofactor(m: IntMatrix) -> int:
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix([[m.entries[i][k] for k in range(n) if k != j] for i in range(1, n)])
        total += (-1) ** j * m.entries[0][j] * det_cofactor(minor)
    return total


def invariant_factors_minor_gcd(m: IntMatrix) -> list[int]:
    """d_k = gcd(k-minors)/gcd((k-1)-minors), the classical characterization."""
    from itertools import combinations

    n = m.rows
    gcds = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix([[m.entries[i][j] for j in cols] for i in rows])
                g = gcd(g, det_cofactor(sub))
        gcds.append(abs(g))
    return [gcds[k] // gcds[k - 1] for k in range(1, n + 1)]


def random_unimodular(n: int, rng: random.Random) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return IntMatrix(m)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _sparse_random(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Mostly zeros, negative entries too, with a zero row and a zero column
    about half the time."""
    m = [[rng.choice([0, 0, 0, -3, -1, 1, 2, 7]) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    return m


def test_products_match_the_dense_definition():
    rng = random.Random(2007)
    shapes = [(1, 1), (1, 5), (5, 1), (1, 22), (22, 1), (3, 4), (6, 6), (22, 22)]
    for _ in range(60):
        r, k = rng.choice(shapes)
        c = rng.choice([1, 3, 5, 22])
        a, b = _sparse_random(rng, r, k), _sparse_random(rng, k, c)
        cols = list(zip(*b))
        dense = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
        assert IntMatrix(a).mul(IntMatrix(b)).entries == dense
        # one matrix for all three vectors: its column lists are kept after the first
        m = IntMatrix(a)
        for v in (_sparse_random(rng, 1, k)[0], [0] * k, [rng.randrange(-9, 10) for _ in range(k)]):
            assert m.mul_vec(v) == tuple(sum(map(mul, row, v)) for row in a)


def test_products_reject_a_dimension_mismatch():
    a = IntMatrix([[1, 0, 2], [0, -1, 0]])
    with pytest.raises(ExactArithError):
        a.mul(a)
    with pytest.raises(ExactArithError):
        a.mul(IntMatrix([[1], [2]]))
    with pytest.raises(ExactArithError):
        a.mul_vec((1, 2))
    with pytest.raises(ExactArithError):
        a.mul_vec((0, 0, 0, 0))


@pytest.mark.parametrize(
    "rows",
    [[[2.5, 1], [True, -2.9]], [[1, 2], [3, "3"]], [[2.0]], [[1, 0], [0, False]], [[Fraction(2)]]],
    ids=["float-and-bool", "string", "integral-float", "bool", "fraction"],
)
def test_int_matrix_rejects_entries_that_are_not_int(rows):
    # nothing is coerced: 2.5 would become 2, True 1 and "3" 3
    with pytest.raises(ExactArithError, match="entries must be int"):
        IntMatrix(rows)
    with pytest.raises(ExactArithError, match="entries must be int"):
        IntMatrix(iter(map(iter, rows)))


def test_int_matrix_keeps_int_entries_and_rejects_ragged_rows():
    assert IntMatrix(iter([iter([1, -2]), (3, 2**70)])).entries == ((1, -2), (3, 2**70))
    assert IntMatrix([]).entries == ()
    with pytest.raises(ExactArithError, match="ragged"):
        IntMatrix([[1, 2], [3]])


# ---------------------------------------------------------------------------
# rank over F_2
# ---------------------------------------------------------------------------

def test_rank_mod_2_counts_the_odd_invariant_factors():
    # oracle: the Smith form, whose odd factors stay units over F_2; the
    # matrices are rectangular, some with zero rows, and their entries
    # include negative and large even and odd numbers
    rng = random.Random(4)
    big = 2**70
    entries = [0, 0, 0, 1, -1, 2, 3, -4, 6, -7, big, big + 1, -big, -big - 1, 3**50]
    for _ in range(240):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.15:
                rows[i] = [0] * m
        a = IntMatrix(rows)
        factors = snf(a).invariant_factors
        assert rank_mod_2(a) == sum(1 for f in factors if f % 2), rows
    assert rank_mod_2(IntMatrix([])) == 0


# ---------------------------------------------------------------------------
# the Smith form oracle
# ---------------------------------------------------------------------------

def test_snf_identity():
    r = snf(identity(2))
    assert r.s.entries == identity(2).entries


def test_snf_a1():
    r = snf(IntMatrix([[-2]]))
    assert r.invariant_factors == (2,)


def test_snf_d4_matches_minor_gcd_oracle():
    r = snf(NEG_CARTAN_D4)
    assert list(r.invariant_factors) == invariant_factors_minor_gcd(NEG_CARTAN_D4) == [1, 1, 2, 2]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)])
        r = snf(a)  # internal verification re-checks U*A*V = S and unimodularity
        d = r.invariant_factors
        for i in range(len(d) - 1):
            assert d[i] >= 0
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0


@pytest.mark.parametrize(
    "a, u, s, message",
    [
        ([[2]], [[1]], [[1]], r"U\*A\*V != S"),
        ([[1]], [[2]], [[2]], "transform not unimodular"),
        ([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], "divisibility chain"),
        ([[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 1]], "zeros not trailing"),
    ],
    ids=["product", "unimodular", "divisibility", "zeros"],
)
def test_snf_check_rejects_a_wrong_result(a, u, s, message):
    # V is the identity, so U*A*V = S holds exactly when U*A = S
    v = identity(len(a[0]))
    with pytest.raises(ExactArithError, match=f"SNF verification failed: {message}"):
        check_snf(IntMatrix(a), SnfResult(IntMatrix(u), IntMatrix(s), v))


def test_snf_det_is_product_of_factors():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)])
        prod = 1
        for f in snf(a).invariant_factors:
            prod *= f
        assert abs(det(a)) == prod


# ---------------------------------------------------------------------------
# det: the package's, read off the symmetric elimination, against the
# Bareiss oracle and the cofactor expansion
# ---------------------------------------------------------------------------

def test_det_examples():
    assert exact_arith.det(IntMatrix([[-2]])) == det(IntMatrix([[-2]])) == -2
    assert exact_arith.det(NEG_CARTAN_D4) == det(NEG_CARTAN_D4) == det_cofactor(NEG_CARTAN_D4) == 4
    g = lambda_rs_gram()
    blocks = 2 * (4**4) * ((-2) ** 5)
    assert exact_arith.det(g) == det(g) == blocks == -(2**14)
    assert exact_arith.det(IntMatrix([])) == det(IntMatrix([])) == 1
    # hyperbolic steps, then degenerate matrices
    assert exact_arith.det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert exact_arith.det(IntMatrix([[0, 2, 0], [2, 0, 0], [0, 0, 3]])) == -12
    assert exact_arith.det(IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == 2
    assert exact_arith.det(IntMatrix([[0, 0], [0, 0]])) == 0
    assert exact_arith.det(IntMatrix([[1, 2], [2, 4]])) == 0


def test_det_non_square_rejected():
    with pytest.raises(ExactArithError):
        exact_arith.det(IntMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ExactArithError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_non_symmetric_rejected():
    with pytest.raises(ExactArithError, match="non-symmetric"):
        exact_arith.det(IntMatrix([[1, 2], [3, 4]]))


def test_det_matches_the_oracles_on_random_symmetric_matrices():
    # zero diagonals make the first step a hyperbolic pair x_i -> x_i + x_j,
    # a zero corner pivots out of order, and B diag(+-1) B^T of rank below n
    # is degenerate
    rng = random.Random(1985)
    hyperbolic = degenerate = 0
    for _ in range(160):
        n = rng.randrange(1, 8)
        kind = rng.randrange(4)
        a = _random_symmetric(rng, n, kind)
        d = exact_arith.det(a)
        assert d == det(a)
        if n < 7:  # the cofactor expansion takes n! products
            assert d == det_cofactor(a)
        if kind == 1 and n > 1 and d:
            hyperbolic += 1
        if kind == 3:
            assert d == 0
            degenerate += 1
    assert hyperbolic >= 20 and degenerate >= 20


def test_det_random_vs_cofactor():
    # the Bareiss oracle takes any square matrix
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)])
        assert det(a) == det_cofactor(a)


def test_det_sparse_random_vs_cofactor():
    # the Bareiss oracle on mostly zeros: rows skip steps, and rows swapped up as pivots lag behind,
    # so the deferred scalings are exercised; zero rows and columns included
    rng = random.Random(28)
    zero = 0
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = IntMatrix(_sparse_random(rng, n, n))
        d = det(a)
        assert d == det_cofactor(a)
        zero += d == 0
    assert 0 < zero < 300
    # step 1 has a zero pivot and swaps in row 3, which skipped step 0 while
    # the row it replaces did not
    a = IntMatrix([[3, 0, 2, 3], [-2, 0, 0, 0], [2, 0, -2, 2], [0, 2, 0, 1]])
    assert det(a) == det_cofactor(a) == 40


# ---------------------------------------------------------------------------
# inertia
# ---------------------------------------------------------------------------

def test_inertia_examples():
    assert inertia(IntMatrix([[2]])) == (1, 0, 0)
    assert inertia(NEG_CARTAN_D4) == (0, 4, 0)
    assert inertia(lambda_rs_gram()) == (1, 21, 0)


def test_inertia_d4_leading_minor_oracle():
    # all leading principal minors nonzero: signs -,+,-,+ give 4 negative eigenvalues
    signs = []
    for k in range(1, 5):
        sub = IntMatrix([row[:k] for row in [list(r) for r in NEG_CARTAN_D4.entries][:k]])
        signs.append(det_cofactor(sub))
    assert [x > 0 for x in signs] == [False, True, False, True]


def test_inertia_zero_block():
    hyper = IntMatrix([[0, 1], [1, 0]])
    assert inertia(hyper) == (1, 1, 0)
    assert inertia(IntMatrix([[0, 0], [0, 0]])) == (0, 0, 2)


def test_inertia_requires_symmetric():
    with pytest.raises(ExactArithError):
        inertia(IntMatrix([[0, 1], [2, 0]]))


def test_inertia_invariant_under_congruence():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randrange(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randrange(-5, 6)
        a = IntMatrix(a)
        u = random_unimodular(n, rng)
        congruent = u.mul(a).mul(u.transpose())
        assert inertia(a) == inertia(congruent)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_diag():
    assert invert(IntMatrix([[-2]])) == (IntMatrix([[-1]]), 2)
    assert as_fractions(invert(identity(3))) == rat_identity(3)


def test_invert_d4_is_dual_matrix():
    # one denominator, positive: |det| of the Gram
    num, den = invert(NEG_CARTAN_D4)
    assert den == 4
    assert as_fractions((num, den)) == DUAL_D4


def test_invert_random_roundtrip():
    rng = random.Random(13)
    done = 0
    while done < 20:
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)])
        if det(a) == 0:
            continue
        num, den = invert(a)
        assert den > 0
        assert rat_mul(to_rational(a), as_fractions((num, den))) == rat_identity(n)
        done += 1


def test_invert_singular_rejected():
    with pytest.raises(ExactArithError):
        invert(IntMatrix([[1, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# kernels, hermite form
# ---------------------------------------------------------------------------

def test_kernel_basis_simple():
    a = IntMatrix([[2, -2]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    x = basis[0]
    assert 2 * x[0] - 2 * x[1] == 0
    assert gcd(x[0], x[1]) == 1  # saturated


def smith_kernel(a: IntMatrix) -> list[tuple[int, ...]]:
    """Oracle: the columns of the Smith column transform V over the zero
    invariant factors, saturated because V is unimodular."""
    r = snf(a)
    rank = sum(1 for f in r.invariant_factors if f)
    return [tuple(row[j] for row in r.v.entries) for j in range(rank, a.cols)]


def test_kernel_basis_matches_the_smith_kernel_on_random_matrices():
    # the same saturated lattice: the row Hermite form of a basis is
    # canonical, so two bases span the same lattice exactly when their
    # Hermite forms are equal; kernels of rank 0 to 4 occur
    rng = random.Random(16)
    ranks = set()
    for _ in range(80):
        n, m = rng.randrange(1, 5), rng.randrange(1, 7)
        a = IntMatrix([[rng.choice([0, 0, 1, -1, 2, -3, 4, 6]) for _ in range(m)] for _ in range(n)])
        got, expected = kernel_basis(a), smith_kernel(a)
        assert len(got) == len(expected)
        if got:
            assert hnf_rows(IntMatrix(got)) == hnf_rows(IntMatrix(expected)), a.entries
            assert all(f == 1 for f in snf(IntMatrix(got)).invariant_factors)
        ranks.add(len(got))
    assert ranks >= {0, 1, 2, 3, 4}


def test_kernel_basis_of_the_polarization_row_is_the_rest_of_the_basis():
    # h pairs with the sigma = 2 overlattice basis as (1, 0, ..., 0)
    ls = build_lambda()
    ns = build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
    row = ns.h_in_result().integer_pairings()
    assert row == (1,) + (0,) * 21
    basis = kernel_basis(IntMatrix([row]))
    assert basis == [tuple(int(i == j) for j in range(22)) for i in range(1, 22)]
    assert hnf_rows(IntMatrix(basis)) == hnf_rows(IntMatrix(smith_kernel(IntMatrix([row]))))


def _corrupt_hnf(monkeypatch, change):
    real = rational_oracles.hnf_rows
    monkeypatch.setattr(rational_oracles, "hnf_rows", lambda a: change([list(r) for r in real(a)]))


def test_kernel_basis_rejects_a_kernel_row_that_a_does_not_kill(monkeypatch):
    # [A^T | I] for A = (1 1) reduces to rows (1 | 0 1) and (0 | 1 -1); the
    # kernel row with its right block changed to (1 0) is not killed by A
    def change(rows):
        rows[1][1:] = [1, 0]
        return rows

    _corrupt_hnf(monkeypatch, change)
    with pytest.raises(ExactArithError, match=r"kernel verification failed: A t != 0"):
        kernel_basis(IntMatrix([[1, 1]]))


def test_kernel_basis_rejects_a_transform_that_is_not_unimodular(monkeypatch):
    # the kernel row doubled is still killed by A, but T has det 2 and the
    # doubled row is not saturated
    def change(rows):
        rows[1] = [2 * x for x in rows[1]]
        return rows

    _corrupt_hnf(monkeypatch, change)
    with pytest.raises(ExactArithError, match="kernel verification failed: transform not unimodular"):
        kernel_basis(IntMatrix([[1, 1]]))


def test_hnf_rows_spans_same_lattice():
    rng = random.Random(17)
    a = IntMatrix([[rng.randrange(-4, 5) for _ in range(3)] for _ in range(5)])
    rows = hnf_rows(a)
    b = IntMatrix(list(rows))
    # every original row reduces to zero against the hermite basis
    for row in a.entries:
        r = list(row)
        for brow in rows:
            piv = next((i for i, x in enumerate(brow) if x != 0), None)
            if piv is not None and r[piv] % brow[piv] == 0:
                q = r[piv] // brow[piv]
                r = [x - q * y for x, y in zip(r, brow)]
        assert all(x == 0 for x in r)


# ---------------------------------------------------------------------------
# the fraction-free kernels against their rational oracles
# ---------------------------------------------------------------------------

def _leading_minor(rows, k: int) -> int:
    return det(IntMatrix([row[:k] for row in rows[:k]]))


def test_invert_matches_rational_oracle_on_random_matrices():
    rng = random.Random(1968)
    swapped = singular = 0
    for _ in range(80):
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 1 and n > 1:  # the first pivot has to come from a row swap
            rows[0][0] = 0
        elif kind == 2 and n > 1:
            rows[-1] = [2 * x for x in rows[0]]
        a = IntMatrix(rows)
        if det(a) == 0:
            singular += 1
            with pytest.raises(ExactArithError, match="singular"):
                invert(a)
            with pytest.raises(ExactArithError, match="singular"):
                invert_rational(to_rational(a))
            continue
        if any(_leading_minor(rows, k) == 0 for k in range(1, n)):
            swapped += 1
        num, den = invert(a)
        assert den > 0
        assert as_fractions((num, den)) == invert_rational(to_rational(a))
    assert swapped >= 10 and singular >= 10


def _random_symmetric(rng: random.Random, n: int, kind: int) -> IntMatrix:
    if kind == 3:  # B diag(+-1) B^T with B of rank below n: singular
        r = rng.randrange(0, n)
        b = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(n)]
        d = [rng.choice((-1, 1)) for _ in range(r)]
        return IntMatrix(
            [[sum(b[i][k] * d[k] * b[j][k] for k in range(r)) for j in range(n)] for i in range(n)]
        )
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randrange(-4, 5)
    if kind == 1:  # all-zero diagonal: the first step is a hyperbolic pair
        for i in range(n):
            a[i][i] = 0
    elif kind == 2:
        a[0][0] = 0
    return IntMatrix(a)


def test_inertia_matches_rational_oracle_on_random_symmetric_matrices():
    rng = random.Random(2007)
    hyperbolic = singular = 0
    for _ in range(120):
        n = rng.randrange(1, 8)
        a = _random_symmetric(rng, n, rng.randrange(4))
        rows = a.entries
        if not any(rows[i][i] for i in range(n)) and any(map(any, rows)):
            hyperbolic += 1
        expected = rational_inertia(a)
        singular += expected[2] > 0
        assert inertia(a) == expected
        assert len(symmetric_elimination(a)) == n - expected[2]
    assert hyperbolic >= 10 and singular >= 10


def test_symmetric_elimination_pivots_are_the_leading_minors():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randrange(1, 7)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        if det(IntMatrix(b)) == 0:
            continue
        # B^T B is positive definite, so no hyperbolic step and no skipped pivot
        a = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        steps = symmetric_elimination(IntMatrix(a))
        assert [piv for piv, _, _ in steps] == list(range(n))
        for k, (_, p, row) in enumerate(steps):
            assert p == row[k] == _leading_minor(a, k + 1)
            assert all(x == 0 for x in row[:k])


def test_symmetric_elimination_rejects_a_non_symmetric_matrix():
    with pytest.raises(ExactArithError):
        symmetric_elimination(IntMatrix([[1, 2], [3, 4]]))


@pytest.fixture(scope="module")
def lattice_matrices() -> dict[str, IntMatrix]:
    """The rank-22 base Gram, the overlattice Grams and integer bases, and
    the rank-21 polarization complement."""
    ls = build_lambda()
    halflines = tuple(halfline_class(ls, lam) for lam in L_LABELS)
    out = {"base": ls.lattice.gram}
    specs = [("sigma2", halflines)]
    specs += [(f"sigma1-{c}", halflines + (extra_glue_class(ls, c),)) for c in EXTRA_GLUE_CHOICES]
    for name, glue in specs:
        ns = build_overlattice(ls, glue)
        out[name] = ns.lattice.gram
        out[f"{name}-basis"] = ns.basis_num
        if name == "sigma2":
            out["complement"] = orthogonal_complement(ns.lattice, ns.h_in_result()).lattice.gram
    return out


def test_invert_matches_rational_oracle_on_lattice_matrices(lattice_matrices):
    assert len(lattice_matrices) == 10
    for a in lattice_matrices.values():
        num, den = invert(a)
        assert den > 0
        assert as_fractions((num, den)) == invert_rational(to_rational(a))
        # the Gauss-Jordan denominator is |det|, an independent route to it
        assert abs(det(a)) == den


def test_det_matches_the_oracle_on_lattice_grams(lattice_matrices):
    grams = {k: a for k, a in lattice_matrices.items() if not k.endswith("-basis")}
    for a in grams.values():
        assert exact_arith.det(a) == det(a)
    # det = -2^(2 sigma) on the overlattices, sigma = 2 and 1 for every c
    assert exact_arith.det(grams["base"]) == -(2**14)
    assert exact_arith.det(grams["sigma2"]) == -(2**4)
    for c in EXTRA_GLUE_CHOICES:
        assert exact_arith.det(grams[f"sigma1-{c}"]) == -(2**2)


def test_inertia_matches_rational_oracle_on_lattice_grams(lattice_matrices):
    grams = {k: a for k, a in lattice_matrices.items() if not k.endswith("-basis")}
    for a in grams.values():
        assert inertia(a) == rational_inertia(a)
    assert inertia(grams["base"]) == inertia(grams["sigma2"]) == (1, 21, 0)
    assert inertia(grams["complement"]) == (0, 21, 0)
