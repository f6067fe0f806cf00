"""The Fraction forms of the lattice kernels, kept as test oracles.

The package computes inverses, signatures, the Fincke-Pohst factorization
and G v fraction-free, and holds dual vectors and inverses as integers
over one denominator.  These are the rational algorithms they replaced,
on plain tuples of tuples of ``Fraction``, plus the rational matrix
products the oracles need, the pairwise search of the root-pairing
graph that packed integer products replaced, and the conversions between
rational coordinates and ``DualVector`` (with the basis vectors, which the
package no longer builds).  The discriminant class by the Smith form, with
its generators, is the algorithm that coordinates mod 1 replaced.
"""

import math
from fractions import Fraction
from operator import mul

from k3lat.exact_arith import ExactArithError, IntMatrix, snf
from k3lat.lattice_core import DualVector, Lattice, pairing_numerator
from k3lat.root_systems import RootSystemError


def vector(lattice: Lattice, coords) -> DualVector:
    """The vector with these rational coordinates, written over their lcm."""
    coords = [Fraction(c) for c in coords]
    d = math.lcm(*(c.denominator for c in coords))
    return DualVector(lattice, [c.numerator * (d // c.denominator) for c in coords], d)


def basis_vector(lattice: Lattice, i: int) -> DualVector:
    return DualVector(lattice, [int(j == i) for j in range(lattice.rank)])


def coords(v: DualVector) -> tuple[Fraction, ...]:
    """The rational coordinates num / den of a vector."""
    return tuple(Fraction(c, v.den) for c in v.num)


def pairing(u: DualVector, v: DualVector) -> Fraction:
    """u.v as a Fraction: pairing_numerator over den_u den_v."""
    return Fraction(pairing_numerator(u, v), u.den * v.den)


def norm(v: DualVector) -> Fraction:
    return pairing(v, v)


def to_rational(a) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of an IntMatrix, or rows of numbers, as Fractions."""
    rows = a.entries if isinstance(a, IntMatrix) else a
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def as_fractions(inverse: tuple[IntMatrix, int]) -> tuple[tuple[Fraction, ...], ...]:
    """The (num, den) pair returned by exact_arith.invert as Fractions."""
    num, den = inverse
    return tuple(tuple(Fraction(x, den) for x in row) for row in num.entries)


def rat_identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return to_rational([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def rat_transpose(a) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(zip(*a))


def rat_mul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def rat_mul_vec(a, v) -> tuple[Fraction, ...]:
    vv = [Fraction(x) for x in v]
    return tuple(sum((x * y for x, y in zip(row, vv)), Fraction(0)) for row in a)


def rational_gv(gram: IntMatrix, coords) -> tuple[Fraction, ...]:
    """G v with the Gram as a rational matrix."""
    return rat_mul_vec(to_rational(gram), coords)


def rational_pairing(gram: IntMatrix, u, v) -> Fraction:
    """u^T G v over Q."""
    return sum((a * b for a, b in zip(u, rational_gv(gram, v))), Fraction(0))


def rational_class(gram: IntMatrix, coords) -> tuple[int, ...] | None:
    """The discriminant class of a vector given by rational coordinates:
    U (G v) reduced modulo the invariant factors, with U*G*V = S the Smith
    form, or None when G v is not integral."""
    gv = rational_gv(gram, coords)
    if any(x.denominator != 1 for x in gv):
        return None
    r = snf(gram)
    y = r.u.mul_vec([int(x) for x in gv])
    return tuple(c % f for c, f in zip(y, r.invariant_factors))


def f2_rank(rows) -> int:
    """Rank over F_2 of rows given as bit masks, by an xor basis keyed on
    the leading bit."""
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def smith_generators(lattice: Lattice) -> list[DualVector]:
    """Dual vectors whose classes generate the discriminant group, one of
    order d_i for each invariant factor d_i > 1: column i of V over d_i,
    with U*G*V = S the Smith form."""
    r = snf(lattice.gram)
    return [
        DualVector(lattice, [row[i] for row in r.v.entries], f)
        for i, f in enumerate(r.invariant_factors)
        if f > 1
    ]


def invert_rational(a) -> tuple[tuple[Fraction, ...], ...]:
    """Gauss-Jordan over Q."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ExactArithError("inverse of a non-square matrix")
    m = [list(row) for row in a]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ExactArithError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return tuple(tuple(row) for row in inv)


def rational_inertia(a: IntMatrix) -> tuple[int, int, int]:
    """Congruence diagonalization over Q with the same pivot rule and
    hyperbolic-pair step as the integer elimination."""
    if not a.is_symmetric():
        raise ExactArithError("signature of a non-symmetric matrix")
    n = a.rows
    m = [[Fraction(x) for x in row] for row in a.entries]
    alive = list(range(n))
    pos = neg = zero = 0
    while alive:
        piv = next((i for i in alive if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in alive for j in alive if i < j and m[i][j] != 0), None
            )
            if pair is None:
                zero += len(alive)
                break
            i, j = pair
            # x_i -> x_i + x_j turns the hyperbolic block into one with
            # nonzero diagonal: new m[i][i] = 2*m[i][j].
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        p = m[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(piv)
        pivot_row = [m[piv][j] for j in range(n)]
        for i in alive:
            f = m[i][piv] / p
            if f == 0:
                continue
            for j in alive:
                m[i][j] = m[i][j] - f * pivot_row[j]
            m[i][piv] = Fraction(0)
            m[piv][i] = Fraction(0)
    return pos, neg, zero


def cholesky(q: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Q = R^T diag(d) R with R unit upper triangular; requires Q positive definite."""
    n = len(q)
    q = [row[:] for row in q]
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise RootSystemError("form is not positive definite")
        for j in range(i + 1, n):
            r[i][j] = q[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= d[i] * r[i][k] * r[i][l]
                q[l][k] = q[k][l]
    return d, r


def pairwise_components(roots, gram: IntMatrix) -> list[list[int]]:
    """Index lists of the components of the graph on the roots with an edge
    where the pairing is nonzero: a depth-first walk taking one dot product
    (G r_i) . r_j per pair."""
    images = [gram.mul_vec(r) for r in roots]
    seen = [False] * len(roots)
    comps = []
    for start in range(len(roots)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in range(len(roots)):
                if not seen[j] and sum(map(mul, roots[j], images[i])) != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(members)
    return comps
