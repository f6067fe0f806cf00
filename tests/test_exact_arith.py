import random
from fractions import Fraction
from math import gcd

import pytest

from k3lat.exact_arith import (
    ExactArithError,
    IntMatrix,
    RatMatrix,
    det,
    hnf_rows,
    inertia,
    invert,
    kernel_basis,
    snf,
)

NEG_CARTAN_D4 = IntMatrix(
    [
        [-2, 0, 1, 0],
        [0, -2, 1, 0],
        [1, 1, -2, 1],
        [0, 0, 1, -2],
    ]
)

# dual-basis coordinate matrix of the D4 Gram above
DUAL_D4 = RatMatrix(
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
# snf
# ---------------------------------------------------------------------------

def test_snf_identity():
    r = snf(IntMatrix.identity(2))
    assert r.s.entries == IntMatrix.identity(2).entries


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
# det
# ---------------------------------------------------------------------------

def test_det_examples():
    assert det(IntMatrix([[-2]])) == -2
    assert det(NEG_CARTAN_D4) == det_cofactor(NEG_CARTAN_D4) == 4
    g = lambda_rs_gram()
    blocks = 2 * (4**4) * ((-2) ** 5)
    assert det(g) == blocks == -(2**14)


def test_det_non_square_rejected():
    with pytest.raises(ExactArithError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_random_vs_cofactor():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)])
        assert det(a) == det_cofactor(a)


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
    assert invert(IntMatrix([[-2]])).entries == ((Fraction(-1, 2),),)
    assert invert(IntMatrix.identity(3)).entries == RatMatrix.identity(3).entries


def test_invert_d4_is_dual_matrix():
    assert invert(NEG_CARTAN_D4).entries == DUAL_D4.entries


def test_invert_random_roundtrip():
    rng = random.Random(13)
    done = 0
    while done < 20:
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)])
        if det(a) == 0:
            continue
        prod = a.to_rational().mul(invert(a))
        assert prod.entries == RatMatrix.identity(n).entries
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
