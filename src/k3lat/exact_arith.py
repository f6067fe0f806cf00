"""Exact integer and rational linear algebra.

Everything in this package runs on arbitrary-precision integers and
``fractions.Fraction``; there is no floating point anywhere.  The three
workhorses are fraction-free determinants, Smith normal form with
transformation matrices, and exact signature computation by congruence
diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class ExactArithError(ValueError):
    """Raised on contract violations (non-square input, singular matrix, ...)."""


def _freeze_int(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ExactArithError("ragged matrix")
    return out


def _freeze_rat(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ExactArithError("ragged matrix")
    return out


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        object.__setattr__(self, "entries", _freeze_int(entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        n = sum(b.rows for b in blocks)
        rows = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.rows != b.cols:
                raise ExactArithError("block_diagonal expects square blocks")
            for i in range(b.rows):
                for j in range(b.cols):
                    rows[off + i][off + j] = b.entries[i][j]
            off += b.rows
        return IntMatrix(rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactArithError("dimension mismatch in mul")
        ot = other.entries
        return IntMatrix(
            [
                [sum(a * ot[k][j] for k, a in enumerate(row)) for j in range(other.cols)]
                for row in self.entries
            ]
        )

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.cols != len(v):
            raise ExactArithError("dimension mismatch in mul_vec")
        return tuple(sum(a * v[k] for k, a in enumerate(row)) for row in self.entries)

    def to_rational(self) -> "RatMatrix":
        return RatMatrix(self.entries)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix of exact rationals (always stored reduced)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Iterable[Iterable]):
        object.__setattr__(self, "entries", _freeze_rat(entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ExactArithError("dimension mismatch in mul")
        ot = other.entries
        return RatMatrix(
            [
                [sum(a * ot[k][j] for k, a in enumerate(row)) for j in range(other.cols)]
                for row in self.entries
            ]
        )

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise ExactArithError("dimension mismatch in mul_vec")
        vv = [Fraction(x) for x in v]
        return tuple(sum(a * vv[k] for k, a in enumerate(row)) for row in self.entries)


# ---------------------------------------------------------------------------
# determinant (fraction-free Bareiss elimination)
# ---------------------------------------------------------------------------

def det(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix."""
    if not a.is_square():
        raise ExactArithError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# exact inverse (Gauss-Jordan over Q)
# ---------------------------------------------------------------------------

def invert(a: IntMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular square integer matrix."""
    if not a.is_square():
        raise ExactArithError("inverse of a non-square matrix")
    return invert_rational(a.to_rational())


def invert_rational(a: RatMatrix) -> RatMatrix:
    if a.rows != a.cols:
        raise ExactArithError("inverse of a non-square matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
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
    return RatMatrix(inv)


# ---------------------------------------------------------------------------
# exact signature (congruence diagonalization; no eigenvalues, no floats)
# ---------------------------------------------------------------------------

def inertia(a: IntMatrix) -> tuple[int, int, int]:
    """Counts of positive, negative and zero entries of any congruent diagonal form.

    Symmetric pivoting; a fully zero diagonal with a nonzero off-diagonal
    entry is split as the standard hyperbolic pair (one +, one -).
    """
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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """U * A * V = S with U, V unimodular and S = diag(d1 | d2 | ...)."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entries[i][i] for i in range(n))


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form by elementary operations with smallest-pivot selection.

    The result is verified on every call: U*A*V == S, |det U| = |det V| = 1,
    and the divisibility chain of the diagonal.
    """
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, q):
        for r in m:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(m[i][j])
                if x != 0 and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_add(i, t, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_add(j, t, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block; otherwise fold an offending
        # row into row t and restart the step
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if m[t][t] < 0:
            row_negate(t)
        t += 1

    s = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        s[i][i] = m[i][i]
    result = SnfResult(IntMatrix(u), IntMatrix(s), IntMatrix(v))
    _check_snf(a, result)
    return result


def _check_snf(a: IntMatrix, r: SnfResult) -> None:
    if r.u.mul(a).mul(r.v).entries != r.s.entries:
        raise ExactArithError("SNF verification failed: U*A*V != S")
    if abs(det(r.u)) != 1 or abs(det(r.v)) != 1:
        raise ExactArithError("SNF verification failed: transform not unimodular")
    d = r.invariant_factors
    for i in range(len(d) - 1):
        if d[i] < 0 or (d[i + 1] != 0 and d[i] != 0 and d[i + 1] % d[i] != 0):
            raise ExactArithError("SNF verification failed: divisibility chain")
        if d[i] == 0 and d[i + 1] != 0:
            raise ExactArithError("SNF verification failed: zeros not trailing")


# ---------------------------------------------------------------------------
# integer kernels and Hermite form (row style)
# ---------------------------------------------------------------------------

def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Saturated basis of the right integer kernel {x : A x = 0}.

    Columns of the SNF column transform sitting over zero invariant factors;
    saturation is automatic because the transform is unimodular.
    """
    r = snf(a)
    d = r.invariant_factors
    rank = sum(1 for x in d if x != 0)
    n = a.cols
    vt = r.v.transpose().entries
    return [vt[j] for j in range(rank, n)]


def hnf_rows(a: IntMatrix) -> list[tuple[int, ...]]:
    """Row Hermite form; returns the nonzero rows (a Z-basis of the row span)."""
    m = [list(r) for r in a.entries]
    rows, cols = len(m), a.cols
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        nz = [i for i in range(pr, rows) if m[i][pc] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(m[i][pc]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][pc] // m[i0][pc]
                m[i] = [x - q * y for x, y in zip(m[i], m[i0])]
            nz = [i for i in nz if m[i][pc] != 0]
        i0 = nz[0]
        m[pr], m[i0] = m[i0], m[pr]
        if m[pr][pc] < 0:
            m[pr] = [-x for x in m[pr]]
        for i in range(pr):
            q = m[i][pc] // m[pr][pc]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[pr])]
        pr += 1
    return [tuple(r) for r in m[:pr]]
