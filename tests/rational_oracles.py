"""The Fraction forms of the lattice kernels, kept as test oracles.

The package computes inverses, signatures, the Fincke-Pohst factorization
and G v fraction-free, and holds dual vectors and inverses as integers
over one denominator.  These are the rational algorithms they replaced,
on plain tuples of tuples of ``Fraction``, plus the rational matrix
products the oracles need, the typing of a root set component by
component (the pairwise search of the root-pairing graph, the pair test for
indecomposable roots and the coordinate pass) that one pass over the simple
roots replaced, with the general ADE classifier it types by (A_n, D_n and
E_6-E_8 from the Dynkin diagram, certified against the Cartan matrix), which
the package replaced by the Grams of the base's two summand types, A1 and
D4, and the conversions between rational coordinates and
``DualVector`` (with the basis vectors and the negation, which the package
no longer builds).  The discriminant class by the Smith form, with
its generators, is the algorithm that coordinates mod 1 replaced, and the
Smith form itself, re-checked on every call, is what the Hermite kernel
and the F_2-rank discriminant witness replaced.  The class searches once
scanned a box around the representative and bounded everything outside it
by a hyperplane certificate; that scan and that bound are kept as the
oracle of the coset enumeration.  The roots orthogonal to the polarization
were once enumerated on the rank-21 complement, the saturated Hermite
kernel of h's pairing row; that complement, its kernel and its root
enumeration are kept as the oracle of the walk over glue classes and
summands; the nonzero lattice vectors it enumerates are the coset
enumeration of the zero class less the zero vector.  The determinant was
once a Bareiss elimination of its own; the package now reads it off the
symmetric elimination, and the Bareiss form,
which takes any square matrix, is kept as its oracle and for the
unimodularity checks of the Smith form and the kernel, whose transforms
are not symmetric.  The overlattice bases were once the row Hermite form
of the glue over its denominator, and their base coordinates came by
back-substitution on that triangular basis; the package reads both off the
F_2 echelon form of the glue in closed form, and the Hermite form is kept
as its oracle and for the kernel above.  The glue classes of an overlattice
were once closed under addition by adding each basis row's class until no
new class came; the package takes their F_2 span in one pass, and the
closure is kept as its oracle.
"""

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from k3lat.exact_arith import ExactArithError, IntMatrix
from k3lat.lattice_core import DualVector, Lattice, LatticeError, is_even, pairing_numerator
from k3lat.ns_glue import OverlatticeResult, canonical_positivity
from k3lat.root_systems import (
    RootSet,
    RootSystemError,
    short_vectors,
)


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
    if a.rows != a.cols:
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
# Smith normal form
# ---------------------------------------------------------------------------

class SnfResult(NamedTuple):
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
    check_snf(a, result)
    return result


def check_snf(a: IntMatrix, r: SnfResult) -> None:
    if rat_mul(rat_mul(r.u.entries, a.entries), r.v.entries) != r.s.entries:
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
# Hermite form (row style)
# ---------------------------------------------------------------------------

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


def closure_glue_classes(ns: OverlatticeResult) -> list[tuple[int, ...]]:
    """The classes of the overlattice modulo the base, as numerators over
    denom reduced mod denom, sorted: the basis rows mod the base, closed
    under addition.  The classes found so far form a group, so a row whose
    class is already there adds nothing, and a new class g adds the cosets
    of its multiples."""
    d = ns.denom
    classes = {(0,) * ns.lattice.rank}
    for row in ns.basis_num.entries:
        g = tuple(c % d for c in row)
        new = classes if g not in classes else set()
        while new:
            new = {tuple((a + b) % d for a, b in zip(c, g)) for c in new} - classes
            classes |= new
    return sorted(classes)


# ---------------------------------------------------------------------------
# the polarization complement and its root enumeration
# ---------------------------------------------------------------------------

def is_negative_definite(lattice: Lattice) -> bool:
    return lattice.inertia() == (0, lattice.rank, 0)


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Saturated basis of the right integer kernel {x : A x = 0}.

    The row Hermite form of [A^T | I] is T [A^T | I] with T unimodular, and
    T is its right block.  The rows of T whose left block is zero are the
    t with A t = 0, and they span the kernel saturated because T is
    unimodular.  Both facts are re-checked on every call: A t = 0 on each
    kernel row, and |det T| = 1 by Bareiss.
    """
    m, n = a.rows, a.cols
    at = rat_transpose(a.entries)
    rows = hnf_rows(IntMatrix([list(at[i]) + [int(i == j) for j in range(n)] for i in range(n)]))
    kernel = [row[m:] for row in rows if not any(row[:m])]
    if any(any(a.mul_vec(t)) for t in kernel):
        raise ExactArithError("kernel verification failed: A t != 0")
    if abs(det(IntMatrix([row[m:] for row in rows]))) != 1:
        raise ExactArithError("kernel verification failed: transform not unimodular")
    return kernel


class Sublattice(NamedTuple):
    """A primitive sublattice presented by its own Gram plus an embedding.

    ``basis_in_ambient`` rows are the coordinates of the sublattice basis in
    the ambient lattice basis.
    """

    lattice: Lattice
    basis_in_ambient: IntMatrix


def orthogonal_complement(lattice: Lattice, v: DualVector) -> Sublattice:
    """Saturated orthogonal complement of a lattice vector with v*v != 0.

    The basis is the integer kernel of v's pairing row, stably sorted by
    increasing |r.r|.  That is a reordering, not a reduction: a
    Fincke-Pohst enumeration of the complement's Gram (``short_vectors``)
    branches on the last coordinate first, so the longest basis vectors sit
    at the top of its tree, where the intervals are narrowest.
    """
    if v.lattice != lattice:
        raise LatticeError("vector lives in a different lattice")
    if v.den != 1:
        raise LatticeError("complement requires a lattice vector")
    if pairing_numerator(v, v) == 0:
        raise LatticeError("complement requires a vector of nonzero norm")
    gram = lattice.gram
    basis = kernel_basis(IntMatrix([v.integer_pairings()]))
    basis.sort(key=lambda r: abs(sum(map(mul, r, gram.mul_vec(r)))))
    b = IntMatrix(basis)
    return Sublattice(Lattice(IntMatrix(rat_mul(rat_mul(basis, gram.entries), rat_transpose(basis)))), b)


def nonzero_short_vectors(gram: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """All nonzero integer vectors y with y^T (-gram) y <= bound, sorted: the
    coset enumeration of the lattice itself, less the zero vector."""
    return [y for y in short_vectors(gram, bound, ((0,) * gram.rows, 1)) if any(y)]


def enumerate_roots(lattice: Lattice) -> RootSet:
    """The complete set of lattice vectors of norm -2, by one Fincke-Pohst
    enumeration of the whole lattice."""
    if not is_even(lattice):
        raise RootSystemError("root enumeration requires an even lattice")
    if not is_negative_definite(lattice):
        raise RootSystemError("root enumeration requires a negative-definite lattice")
    gram = lattice.gram
    # the enumeration is exact; the norm is re-derived through G v regardless
    roots = tuple(v for v in nonzero_short_vectors(gram, 2) if sum(map(mul, v, gram.mul_vec(v))) == -2)
    rs = RootSet(lattice, roots)
    rset = set(rs.roots)
    for v in rs.roots:
        if tuple(-c for c in v) not in rset:
            raise RootSystemError("root set is not closed under negation")
    return rs


def complement_positivity(ns: OverlatticeResult, comp: Sublattice) -> tuple[int, ...]:
    """The overlattice's positivity functional pulled back to the complement basis."""
    return comp.basis_in_ambient.mul_vec(canonical_positivity(ns))


def complement_roots(ns: OverlatticeResult) -> set[tuple[int, ...]]:
    """The roots orthogonal to the polarization in overlattice coordinates,
    by enumerating the complement and mapping its roots into the overlattice."""
    comp = orthogonal_complement(ns.lattice, ns.h_in_result())
    embed = IntMatrix(rat_transpose(comp.basis_in_ambient.entries))
    return {embed.mul_vec(r) for r in enumerate_roots(comp.lattice).roots}


# ---------------------------------------------------------------------------
# the box scan and its hyperplane certificate
# ---------------------------------------------------------------------------

def outside_bound(lattice: Lattice, rep: DualVector, box: int) -> int:
    """floor(2 B) for B an upper bound on v*v over rep + Z^n outside rep + [-box, box]^n.

    Such a v has |v_i - rep_i| >= box + 1 for some i, so it lies beyond one
    of the hyperplanes v_i = t, t = rep_i +- (box + 1).  Q(v) = -v*v is
    positive definite with its minimum at 0, which |rep_i| < box + 1 keeps
    on the near side, so beyond the hyperplane Q is at least its minimum
    t^2 / (Q^-1)_ii on it; B is the largest -t^2 / (Q^-1)_ii, and
    (Q^-1)_ii = -(G^-1)_ii is read off the cached dual basis.  For an
    integer n, n <= 2 B iff n <= floor(2 B), so on the half-integral norms
    of the class (``box_scan`` raises unless they are) floor(2 B) bounds
    norm2 = 2 v*v exactly as B bounds v*v.
    """
    if not is_negative_definite(lattice):
        raise RootSystemError("outside bound requires a negative-definite lattice")
    reach = (box + 1) * rep.den  # box + 1, and each t below, over rep.den
    bounds = []
    for i, r in enumerate(rep.num):
        if abs(r) >= reach:
            raise RootSystemError("representative coordinate is not inside the box")
        dual = lattice.dual_basis_vector(i)  # (G^-1)_ii = dual.num[i] / dual.den < 0
        scale = rep.den * rep.den * dual.num[i]
        bounds += [2 * t * t * dual.den // scale for t in (r + reach, r - reach)]
    return max(bounds)


def box_scan(lattice: Lattice, rep: DualVector, box: int) -> list[tuple[int, tuple[int, ...]]]:
    """Integer-arithmetic scan of rep + {|x_i| <= box}, in lexicographic order.

    Returns the (norm2, x) pairs, norm2 = 2 (rep + x)^2, of the points
    pairing non-negatively with every basis vector.

    The coordinates are fixed one at a time.  Fixing x_j = v on a prefix
    adds v times column j of G to G x, and 4 v (G rep + G x)_j + 2 v^2 G_jj
    to twice the norm, so each point costs one column update.  On the last
    coordinate the constraints pair_i + v col_i >= 0 cut out one interval
    of v, found by floor division.
    """
    g = lattice.gram.entries
    n = lattice.rank
    grep = rep.integer_pairings()
    rep_norm2, odd = divmod(2 * pairing_numerator(rep, rep), rep.den * rep.den)
    if odd:
        raise RootSystemError("representative norm is not half-integral")
    values = range(-box, box + 1)
    cols = [tuple(g[i][j] for i in range(n)) for j in range(n)]
    out = []

    def scan(prefix: tuple[int, ...], pair: list[int], norm2: int) -> None:
        # pair = G (rep + x) and norm2 = 2 (rep + x)^2 for the prefix x
        j = len(prefix)
        col, lin, sq = cols[j], 4 * pair[j], 2 * g[j][j]
        if j + 1 < n:
            for v in values:
                p = [a + v * c for a, c in zip(pair, col)]
                scan(prefix + (v,), p, norm2 + v * (lin + v * sq))
            return
        lo, hi = -box, box
        for a, c in zip(pair, col):
            if c > 0:
                lo = max(lo, -(a // c))  # v >= ceil(-a / c)
            elif c < 0:
                hi = min(hi, a // -c)  # v <= floor(a / -c)
            elif a < 0:
                return
        for v in range(lo, hi + 1):
            out.append((norm2 + v * (lin + v * sq), prefix + (v,)))

    scan((), grep, rep_norm2)
    return out


# ---------------------------------------------------------------------------
# rational coordinates
# ---------------------------------------------------------------------------

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


def negated(v: DualVector) -> DualVector:
    """-v; the package adds dual vectors but never negates one."""
    return DualVector(v.lattice, [-c for c in v.num], v.den)


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


def cartan_matrix(label: str) -> IntMatrix:
    """Cartan matrix in the canonical node order of ``diagram_order``.

    A_n: a chain 1-2-...-n.  D_n: the two short leaves first, then the
    center, then the long chain outward.  E_n: short leaf, middle-branch
    inner node, middle-branch leaf, center, long chain outward.  The label
    is one that ``diagram_order`` gives: A_n, D_n with n >= 4, E_6, E_7 or E_8.
    """
    family, n = label[0], int(label[1:])
    if family == "A":
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "D":
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    else:
        edges = [(1, 4), (2, 4), (2, 3)] + [(i, i + 1) for i in range(4, n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i, j in edges:
        m[i - 1][j - 1] = -1
        m[j - 1][i - 1] = -1
    return IntMatrix(m)


def diagram_order(nodes: list, adj: dict) -> tuple[str, list]:
    """Classify a connected Dynkin diagram and return the canonical node order."""
    n = len(nodes)
    edge_count = sum(len(adj[v]) for v in nodes) // 2
    if edge_count != n - 1:
        raise RootSystemError("diagram is not a tree; not an ADE diagram")
    degs = {v: len(adj[v]) for v in nodes}
    if any(d > 3 for d in degs.values()):
        raise RootSystemError("diagram has a node of degree > 3; not an ADE diagram")
    forks = [v for v in nodes if degs[v] == 3]
    if len(forks) > 1:
        raise RootSystemError("diagram has two fork nodes; not an ADE diagram")

    def walk(prev, cur):
        # the branch from cur away from prev; in a tree with at most one
        # fork, every node past it has at most one node ahead
        branch = [cur]
        ahead = [w for w in adj[cur] if w != prev]
        while ahead:
            prev, cur = cur, ahead[0]
            branch.append(cur)
            ahead = [w for w in adj[cur] if w != prev]
        return branch

    if not forks:
        if n == 1:
            return "A1", nodes[:]
        ends = sorted(v for v in nodes if degs[v] == 1)
        return f"A{n}", walk(None, ends[0])
    center = forks[0]
    branches = sorted((walk(center, w) for w in adj[center]), key=lambda b: (len(b), b[0]))
    lens = [len(b) for b in branches]
    if lens[0] == 1 and lens[1] == 1:
        label = f"D{n}"
        order = [branches[0][0], branches[1][0], center] + branches[2]
    elif lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        label = f"E{n}"
        order = [branches[0][0], branches[1][0], branches[1][1], center] + branches[2]
    else:
        raise RootSystemError("branch profile is not of ADE shape")
    return label, order


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


class RootComponent(NamedTuple):
    """A component of a root set as the pairwise oracle types it."""

    label: str
    roots: tuple[tuple[int, ...], ...]
    simple: tuple[tuple[int, ...], ...]
    coordinates: dict  # positive root -> {simple root: its non-zero coefficient}


def pairwise_root_types(root_set: RootSet, alpha: Sequence[int]) -> list[RootComponent]:
    """Each irreducible component of a root set with its Dynkin type and its
    simple roots, one component at a time.

    The components come from ``pairwise_components``.  In each one the
    simple roots are the positive roots that are not a sum of two positive
    roots, tested pair by pair; they must pair to 0 or 1, their diagram is
    ordered by ``diagram_order`` and their Gram must be minus the Cartan
    matrix, and in increasing alpha every positive root is written over them
    as a simple root, or as a simple root plus a positive root written before.
    """
    roots, gram = root_set.roots, root_set.lattice.gram
    images = {}

    def pair(a, b):
        if a not in images:
            images[a] = gram.mul_vec(a)
        return sum(map(mul, images[a], b))

    out = []
    for indices in pairwise_components(roots, gram):
        component = tuple(sorted(roots[i] for i in indices))
        plus = []
        for r in component:
            v = sum(map(mul, alpha, r))
            if v == 0:
                raise RootSystemError("positivity functional vanishes on a root")
            if v > 0:
                plus.append(r)
        plus_set = set(plus)
        simple = [
            r for r in plus if not any(tuple(a - b for a, b in zip(r, s)) in plus_set for s in plus)
        ]
        adj = {e: [] for e in simple}
        for i, a in enumerate(simple):
            for b in simple[i + 1 :]:
                p = pair(a, b)
                if p not in (0, 1):
                    raise RootSystemError("simple roots pair outside {0,1}; not an ADE diagram")
                if p == 1:
                    adj[a].append(b)
                    adj[b].append(a)
        label, order = diagram_order(simple, adj)
        cartan = [list(r) for r in cartan_matrix(label).entries]
        if [[-pair(a, b) for b in order] for a in order] != cartan:
            raise RootSystemError("Gram of the simple roots does not match the Cartan matrix")
        coordinates = {}
        for r in sorted(plus, key=lambda r: sum(map(mul, alpha, r))):
            if r in adj:
                coordinates[r] = {r: 1}
                continue
            for e in simple:
                rest = coordinates.get(tuple(a - b for a, b in zip(r, e)))
                if rest is not None:
                    coordinates[r] = {**rest, e: rest.get(e, 0) + 1}
                    break
            else:
                raise RootSystemError(f"positive root {r} does not decompose into the simple roots")
        out.append(RootComponent(label, component, tuple(simple), coordinates))
    return out
