"""Exact integer linear algebra.

Everything here runs on arbitrary-precision integers; there is no
floating point and no rational type.  The kernels are fraction-free:
determinants, the inverse and the symmetric elimination behind the
signature all run Bareiss updates on integers, and the inverse comes back
as an integer matrix over one denominator.  Integer kernels come from the
row Hermite form and are re-checked on every call.  Products visit only
the nonzero entries of their factors, since the Grams and embeddings of
the lattice side are mostly zeros.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

from .frozen import Frozen


class ExactArithError(ValueError):
    """Raised on contract violations (non-square input, singular matrix, ...)."""


def _freeze_int(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples; an entry that is not an int (a bool, a float or a
    string) raises rather than being coerced."""
    out = tuple(map(tuple, rows))
    if not {int}.issuperset(map(type, chain.from_iterable(out))):
        raise ExactArithError("matrix entries must be int")
    if out and any(len(r) != len(out[0]) for r in out):
        raise ExactArithError("ragged matrix")
    return out


class IntMatrix(Frozen):
    """Immutable integer matrix, row-major."""

    # _elimination: the steps of symmetric_elimination, and _columns: the
    # nonzero entries of each column, both kept on first use
    __slots__ = ("entries", "_elimination", "_columns")
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        object.__setattr__(self, "entries", _freeze_int(entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

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
        """The product, summing a * (row k of other) over the nonzero a of each row.

        The Grams and embeddings multiplied here are mostly zeros, so only
        the nonzero entries of both factors are visited.
        """
        if self.cols != other.rows:
            raise ExactArithError("dimension mismatch in mul")
        terms = [[(j, y) for j, y in enumerate(row) if y] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, row_terms in zip(row, terms):
                if a:
                    for j, y in row_terms:
                        acc[j] += a * y
            out.append(acc)
        return IntMatrix(out)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        """A v as the sum of x * (column k) over the nonzero coordinates x = v[k].

        Each column is visited at its nonzero entries only; they are listed
        once per matrix, since the Grams are applied to many vectors.
        """
        if self.cols != len(v):
            raise ExactArithError("dimension mismatch in mul_vec")
        columns = getattr(self, "_columns", None)
        if columns is None:
            columns = tuple([(i, y) for i, y in enumerate(col) if y] for col in zip(*self.entries))
            object.__setattr__(self, "_columns", columns)
        acc = [0] * self.rows
        for x, terms in zip(v, columns):
            if x:
                for i, y in terms:
                    acc[i] += x * y
        return tuple(acc)


# ---------------------------------------------------------------------------
# determinant (fraction-free Bareiss elimination)
# ---------------------------------------------------------------------------

def det(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss: with p the pivot of step k and prev the pivot before it (1 at
    the start), each row below becomes (p * row - f * pivot_row) // prev, f
    its entry in column k.  A row with f = 0 would only be scaled by
    p / prev, so it is left as it is until a step needs it; the scalings it
    skipped since step s telescope to prevs[k] / prevs[s], prevs[k] being
    prev at step k, and the division is exact because the scaled entries
    are minors.  Block-diagonal Grams thus skip most rows at most steps.
    """
    if not a.is_square():
        raise ExactArithError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    at = [0] * n  # row i holds its values after at[i] steps
    prevs = [1]
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    at[k], at[i] = at[i], at[k]
                    sign = -sign
                    break
            else:
                return 0
        prev = prevs[k]
        if at[k] < k:
            s = prevs[at[k]]
            m[k] = [x * prev // s for x in m[k]]
        p = m[k][k]
        tail = m[k][k + 1 :]
        for i in range(k + 1, n):
            row = m[i]
            if row[k]:
                if at[i] < k:
                    s = prevs[at[i]]
                    row = [x * prev // s for x in row]
                f = row[k]
                # entries left of column k + 1 are never read again
                m[i] = [0] * (k + 1) + [(x * p - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
                at[i] = k + 1
        prevs.append(p)
    return sign * m[n - 1][n - 1] * prevs[n - 1] // prevs[at[n - 1]]


# ---------------------------------------------------------------------------
# exact inverse (fraction-free Gauss-Jordan)
# ---------------------------------------------------------------------------

def invert(a: IntMatrix) -> tuple[IntMatrix, int]:
    """Exact inverse of a nonsingular square integer matrix, as (num, den).

    A^-1 = num / den with num an integer matrix and den > 0, the same form
    a dual vector has.  Fraction-free Gauss-Jordan on [A | I]: with p the
    pivot and prev the previous one (1 at the start), every other row
    becomes (p * row - f * pivot_row) // prev, f its entry in the pivot
    column, and the division is exact because each entry is a minor of
    [A | I].  A zero pivot is swapped with a row below.  The left block
    ends as det * I (det up to the sign of the swaps) and the right one as
    det * A^-1, so den is the last pivot with its sign moved into num.
    The pair is not reduced: den is |det A|.
    """
    if not a.is_square():
        raise ExactArithError("inverse of a non-square matrix")
    n = a.rows
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a.entries)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ExactArithError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
    sign = 1 if prev > 0 else -1
    return IntMatrix([[sign * x for x in row[n:]] for row in m]), abs(prev)


# ---------------------------------------------------------------------------
# symmetric elimination and exact signature (no eigenvalues, no floats)
# ---------------------------------------------------------------------------

def symmetric_elimination(a: IntMatrix) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Fraction-free congruence diagonalization of a symmetric integer matrix.

    Each step eliminates the first remaining coordinate with a nonzero
    diagonal entry.  When every remaining diagonal entry is zero but some
    m_ij is not, x_i -> x_i + x_j first turns the hyperbolic block into one
    with m_ii = 2 m_ij.  With p the pivot and prev the previous one (1 at
    the first step), each remaining entry becomes
    (p * m_ij - m_i,piv * m_piv,j) // prev, exact by Sylvester's identity.

    Returns one (pivot, p, row) per step; row is the pivot row over all n
    coordinates, zero on those eliminated before.  p is the determinant of
    the pivot block so far, so the diagonal entry of the congruent diagonal
    form is p / prev.  The steps stop when the rest is zero, so their count
    is the rank.  On a definite matrix no remaining diagonal entry is ever
    zero, so the pivots run 0, 1, ..., n - 1, p is the leading principal
    minor and the row is in the original coordinates.

    The steps are computed once per matrix and kept on it, so the signature
    and a Fincke-Pohst enumeration of the same Gram share one elimination.
    """
    cached = getattr(a, "_elimination", None)
    if cached is None:
        cached = _eliminate(a)
        object.__setattr__(a, "_elimination", cached)
    return cached


def _eliminate(a: IntMatrix) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    if not a.is_symmetric():
        raise ExactArithError("symmetric elimination of a non-symmetric matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
    alive = list(range(n))
    prev = 1
    steps = []
    while alive:
        piv = next((i for i in alive if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive if i < j and m[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for k in alive:
                m[i][k] += m[j][k]
            for k in alive:
                m[k][i] += m[k][j]
            piv = i
        pivot_row = m[piv]
        p = pivot_row[piv]
        steps.append((piv, p, tuple(pivot_row[j] if j in alive else 0 for j in range(n))))
        alive.remove(piv)
        for i in alive:
            row = m[i]
            f = row[piv]
            for j in alive:
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return tuple(steps)


def inertia(a: IntMatrix) -> tuple[int, int, int]:
    """Counts of positive, negative and zero entries of any congruent diagonal form.

    The diagonal entry of each step of ``symmetric_elimination`` is
    p / prev, so its sign is sign(p) * sign(prev).
    """
    pos = neg = 0
    prev = 1
    for _, p, _ in symmetric_elimination(a):
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = p
    return pos, neg, a.rows - pos - neg


# ---------------------------------------------------------------------------
# rank over a prime field
# ---------------------------------------------------------------------------

def is_prime(p: int) -> bool:
    """Trial division; the primes asked about here are small."""
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of A reduced modulo the prime p, by Gaussian elimination over F_p.

    It counts the invariant factors of A that are prime to p.
    """
    if not is_prime(p):
        raise ExactArithError(f"rank over F_p needs a prime p, not {p}")
    m = [[x % p for x in row] for row in a.entries]
    rank = 0
    for c in range(a.cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        inv = pow(pivot_row[c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], pivot_row)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# integer kernels and Hermite form (row style)
# ---------------------------------------------------------------------------

def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Saturated basis of the right integer kernel {x : A x = 0}.

    The row Hermite form of [A^T | I] is T [A^T | I] with T unimodular, and
    T is its right block.  The rows of T whose left block is zero are the
    t with A t = 0, and they span the kernel saturated because T is
    unimodular.  Both facts are re-checked on every call: A t = 0 on each
    kernel row, and |det T| = 1 by Bareiss.
    """
    m, n = a.rows, a.cols
    at = a.transpose().entries
    rows = hnf_rows(IntMatrix([list(at[i]) + [int(i == j) for j in range(n)] for i in range(n)]))
    kernel = [row[m:] for row in rows if not any(row[:m])]
    if any(any(a.mul_vec(t)) for t in kernel):
        raise ExactArithError("kernel verification failed: A t != 0")
    if abs(det(IntMatrix([row[m:] for row in rows]))) != 1:
        raise ExactArithError("kernel verification failed: transform not unimodular")
    return kernel


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
