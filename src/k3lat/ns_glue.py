"""The labeled rank-22 direct sum, its glue vectors and Neron-Severi overlattices.

The base lattice is <2> + four copies of D4 + five copies of A1, with the
basis ordered after the polarization class, the sixteen exceptional
curves over the D4 points and the five exceptional curves over the A1
points.  Half-line classes are glue vectors of norm -2; adding all five
produces the overlattice of Artin invariant 2, and one extra class drops
the invariant to 1.  The base is 2-elementary, so an overlattice's basis
and its base coordinates are closed forms in the glue's F2 echelon form.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from operator import mul
from typing import Sequence

from .configuration import DIAGONALS, LINES, P_LABELS, Q_LABELS
from .exact_arith import IntMatrix, echelon_mod_2
from .frozen import Frozen
from .lattice_core import (
    DualVector,
    Lattice,
    class_of,
    is_even,
    lattice_A1,
    lattice_D4,
    lattice_hyperbolic2,
    pairing_numerator,
    ratio,
)
from .root_systems import (
    RootSet,
    ade_type,
    bounded_class_minimizers,
    coset_points,
    root_type,
)


class GlueError(ValueError):
    pass


EXTRA_GLUE_CHOICES = tuple(DIAGONALS)


class Summand(Frozen):
    __slots__ = ("name", "lattice", "offset")
    name: str
    lattice: Lattice
    offset: int

    @property
    def rank(self) -> int:
        return self.lattice.rank


class LabeledSum(Frozen):
    """The rank-22 block direct sum with its summand table: H at offset 0,
    then the exceptional summands, each at the offset where the last ends."""

    __slots__ = ("lattice", "summands")
    lattice: Lattice
    summands: tuple[Summand, ...]

    def component(self, v: DualVector, s: Summand) -> DualVector:
        """Projection of v onto one summand of the orthogonal decomposition."""
        return DualVector(s.lattice, v.num[s.offset : s.offset + s.rank], v.den)

    def assemble(self, parts: dict[str, DualVector]) -> DualVector:
        """The vector with the given summand components and zero elsewhere."""
        left = dict(parts)
        den = math.lcm(*(part.den for part in parts.values()))
        num: list[int] = []
        for s in self.summands:
            part = left.pop(s.name, s.lattice.zero())
            if part.lattice != s.lattice:
                raise GlueError(f"component for {s.name} lives in the wrong lattice")
            num += [c * (den // part.den) for c in part.num]
        if left:
            raise GlueError(f"unknown summand {min(left)!r}")
        return DualVector(self.lattice, num, den)


def build_lambda() -> LabeledSum:
    """The rank-22 labeled sum: det -2^14, hyperbolic, discriminant (Z/2)^14."""
    named = [("H", lattice_hyperbolic2())]
    named += [(f"P({ab})", lattice_D4()) for ab in P_LABELS]
    named += [(f"Q({g})", lattice_A1()) for g in Q_LABELS]
    summands, off = [], 0
    for name, lat in named:
        summands.append(Summand(name, lat, off))
        off += lat.rank
    lattice = Lattice(IntMatrix.block_diagonal([s.lattice.gram for s in summands]))
    return LabeledSum(lattice, tuple(summands))


# ---------------------------------------------------------------------------
# glue vectors of the configuration rows
# ---------------------------------------------------------------------------

class GlueVector(Frozen):
    __slots__ = ("name", "vector")
    name: str
    vector: DualVector


def _row_glue(ls: LabeledSum, name: str, row: tuple) -> GlueVector:
    """h^ + d^_leaf at each D4 point + a^ at each A1 point of a configuration
    row, with h^ = h/2, d^_leaf the dual basis vector of the leaf in the
    point's P summand and a^ = -e/2 in the point's Q summand."""
    forks, nodes = row
    parts = {"H": DualVector(lattice_hyperbolic2(), [1], 2)}
    parts |= {f"P({ab})": lattice_D4().dual_basis_vector(leaf - 1) for ab, leaf in forks}
    parts |= {f"Q({g})": DualVector(lattice_A1(), [-1], 2) for g in nodes}
    return GlueVector(name, ls.assemble(parts))


def halfline_class(ls: LabeledSum, lam: str) -> GlueVector:
    """The half-line class attached to one of the five splitting lines."""
    if lam not in LINES:
        raise GlueError(f"unknown half-line label {lam!r}")
    return _row_glue(ls, f"F({lam})", LINES[lam])


def extra_glue_class(ls: LabeledSum, c: str) -> GlueVector:
    """The class of the diagonal D(c), supported on P(00), P(11) and Q(c); drops
    the Artin invariant to 1."""
    if c not in DIAGONALS:
        raise GlueError(f"extra glue label must be one of {EXTRA_GLUE_CHOICES}")
    return _row_glue(ls, f"G({c})", DIAGONALS[c])


# ---------------------------------------------------------------------------
# overlattices
# ---------------------------------------------------------------------------

class OverlatticeResult(Frozen):
    __slots__ = ("base", "lattice", "basis_num", "denom", "to_result", "index")
    base: LabeledSum
    lattice: Lattice
    basis_num: IntMatrix  # rows over denom: new basis in base coordinates
    denom: int
    to_result: IntMatrix  # columns: base basis in new coordinates
    index: int

    def to_result_coords(self, num: Sequence[int], den: int) -> tuple[int, ...] | None:
        """Integer coordinates in the overlattice basis of num / den in base
        coordinates, or None if outside: column i of to_result writes e_i in
        the new basis, so den times them is its sparse product with num."""
        dx = self.to_result.mul_vec(num)
        if any([x % den for x in dx]):
            return None
        return tuple([x // den for x in dx])

    def h_in_result(self) -> DualVector:
        """The polarization h = e_0 of the base in the overlattice basis."""
        e0 = (1,) + (0,) * (self.lattice.rank - 1)
        return DualVector(self.lattice, self.to_result_coords(e0, 1))

    def glue_classes(self) -> list[tuple[int, ...]]:
        """The classes of the overlattice modulo the base, as numerators over
        denom reduced mod denom, sorted.

        They are the F2 span of the glue rows of the basis mod the base (a
        row denom e_j is 0 mod denom): denom is 1 or 2, so every class has
        order at most 2, and adding each glue row to every class found so
        far reaches them all.  Their count must be the index.
        """
        d = self.denom
        classes = {(0,) * self.lattice.rank}
        for row in self.basis_num.entries:
            if any([a % d for a in row]):
                classes |= {tuple([(a + b) % d for a, b in zip(c, row)]) for c in classes}
        if len(classes) != self.index:
            raise GlueError(f"{len(classes)} glue classes for an overlattice of index {self.index}")
        return sorted(classes)


def _glue_echelon(classes: Sequence[GlueVector]) -> list[tuple[int, ...]]:
    """The F2 echelon form of the glue classes in the discriminant group: the
    base lattice is 2-elementary, so a class's reduced numerators sit over
    den 1 or 2 and, read mod 2, are its coordinates in (Z/2)^22."""
    return echelon_mod_2(IntMatrix(class_of(gv.vector).component[0] for gv in classes))


def independence_check(classes: Sequence[GlueVector]) -> tuple[bool, int]:
    """Rank over F2 of the glue classes (``_glue_echelon``), and whether it is their count."""
    rank = len(_glue_echelon(classes))
    return rank == len(classes), rank


def build_overlattice(base: LabeledSum, glue: Sequence[GlueVector]) -> OverlatticeResult:
    """Saturate the base plus glue into an integral even overlattice.

    Glue vectors must pair integrally with the base and each other, have
    even norms and denominator 1 or 2; the index equals 2 to the F2-rank of
    the glue classes and the determinant shrinks by the square of the index.

    Over denom = 2 the glue classes are the 0/1 rows of their F2 echelon
    form (``_glue_echelon``), so the basis b, the row Hermite form of
    denom I and the glue, is that row at each pivot p and denom e_j at every
    other j; and ``to_result``, the T with T b^T = denom I, is the identity
    but for column p, which is 2 e_p minus the row's other bits, all at such
    j.  Each glue vector must then have integer coordinates in b.  The
    products are all A v: G is symmetric, so row i of b G b^T is b (G b_i),
    and row i of T b^T is b T_i.
    """
    lattice = base.lattice
    n = lattice.rank
    for gv in glue:
        v = gv.vector
        if not v.is_dual_vector():
            raise GlueError(f"glue vector {gv.name} does not pair integrally with the base")
        if v.den > 2:
            raise GlueError(f"glue vector {gv.name} has denominator {v.den}, not 1 or 2")
        # v^2 = norm / den^2 is even iff 2 den^2 divides norm
        norm, d2 = pairing_numerator(v, v), v.den * v.den
        if norm % (2 * d2):
            raise GlueError(f"glue vector {gv.name} has non-even norm {ratio(norm, d2)}")
    for i, a in enumerate(glue):
        for b in glue[i + 1 :]:
            if pairing_numerator(a.vector, b.vector) % (a.vector.den * b.vector.den):
                raise GlueError(f"glue vectors {a.name}, {b.name} pair non-integrally")

    denom = math.lcm(*(gv.vector.den for gv in glue))
    scaled_identity = tuple(tuple(denom * (i == j) for j in range(n)) for i in range(n))
    basis = list(scaled_identity)
    to_result = [[int(i == j) for j in range(n)] for i in range(n)]
    echelon = _glue_echelon(glue)
    for row in echelon:
        p = next(j for j, c in enumerate(row) if c)
        basis[p] = row
        for j, c in enumerate(row):
            to_result[j][p] = 2 if j == p else -c
    b = IntMatrix(basis)

    # the form on basis/denom is b G b^T / denom^2
    scaled = [b.mul_vec(lattice.gram.mul_vec(row)) for row in basis]
    if any(x % (denom * denom) for row in scaled for x in row):
        raise GlueError("overlattice form is not integral")
    lat = Lattice(IntMatrix([[x // (denom * denom) for x in row] for row in scaled]))
    if not is_even(lat):
        raise GlueError("overlattice is not even")

    if tuple(map(b.mul_vec, to_result)) != scaled_identity:
        raise GlueError("base vector escapes the overlattice")

    index = 2 ** len(echelon)
    if lattice.det() != lat.det() * index * index:
        raise GlueError("index does not match the F2-rank of the glue classes")
    result = OverlatticeResult(base, lat, b, denom, IntMatrix(to_result), index)
    for gv in glue:
        if result.to_result_coords(gv.vector.num, gv.vector.den) is None:
            raise GlueError(f"glue vector {gv.name} is not in the overlattice")
    return result


def artin_invariant(lattice: Lattice) -> int:
    """sigma when det = -2^(2*sigma): half the 2-adic valuation of minus the determinant."""
    d = lattice.det()
    if d >= 0:
        raise GlueError("determinant is not negative")
    e = (-d).bit_length() - 1
    if -d != 1 << e or e % 2 != 0 or e == 0:
        raise GlueError(f"determinant {d} is not of the form -2^(2*sigma)")
    sigma = e // 2
    # a supersingular K3 Neron-Severi lattice has rank 22 and sigma in 1..10
    if lattice.rank == 22 and not (1 <= sigma <= 10):
        raise GlueError(f"Artin invariant {sigma} is impossible at rank 22")
    return sigma


# ---------------------------------------------------------------------------
# the budgeted walk over the summands
# ---------------------------------------------------------------------------

def _budget_walk(
    lists: Sequence[Sequence[tuple[int, tuple[int, ...]]]], budget: int
) -> tuple[list[tuple[int, ...]], int]:
    """Every choice of one (norm, part) from each list whose norms add up to
    the budget, as the concatenation of its parts, and the number of leaves
    the walk reached.

    The norms are integers in one unit, and each list is sorted by
    decreasing norm.  max_tail[i] is the most the lists from i on can still
    add, so the rest of a list is cut at its first entry that can no longer
    reach the budget.  The parts are numerator rows over one denominator,
    so a leaf is one row, not a sum of vectors.
    """
    max_tail = [0] * (len(lists) + 1)
    for i in range(len(lists) - 1, -1, -1):
        max_tail[i] = max_tail[i + 1] + (lists[i][0][0] if lists[i] else 0)
    hits: list[tuple[int, ...]] = []
    checked = 0

    def walk(i: int, used: int, prefix: tuple[int, ...]) -> None:
        nonlocal checked
        if i == len(lists):
            checked += 1
            if used == budget:
                hits.append(prefix)
            return
        for norm, part in lists[i]:
            if used + norm + max_tail[i + 1] < budget:
                break
            walk(i + 1, used + norm, prefix + part)

    if max_tail[0] >= budget:
        walk(0, 0, ())
    return hits, checked


# ---------------------------------------------------------------------------
# the exceptional-root analysis of the polarization complement
# ---------------------------------------------------------------------------

def canonical_positivity(ns: OverlatticeResult) -> tuple[int, ...]:
    """Positivity functional on the overlattice, induced by pairing against
    the sum of all dual basis vectors of the exceptional summands.

    That dual vector pairs to +1 with each of the 21 exceptional classes and
    to 0 with the polarization, so the distinguished simple roots come out
    positive; the form on the overlattice basis is that 0/1 pairing vector
    pushed through the basis rows, up to their positive common denominator.
    """
    hs = ns.base.summands[0]
    w_pairings = [0] * hs.rank + [1] * (ns.base.lattice.rank - hs.rank)
    return ns.basis_num.mul_vec(w_pairings)


def _rescaled(
    points: Sequence[tuple[int, tuple[int, ...]]], d: int, den: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each (norm, y) with y a numerator over d as (norm, y den / d), over den."""
    scale = den // d
    return tuple((norm, tuple(c * scale for c in y)) for norm, y in points)


@functools.cache
def _root_candidates(
    sub: Lattice, num: tuple[int, ...], den: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(q, y) for every vector y / den of norm at least -2 in the class of
    num / den in one summand, with q = y^T G y its norm in units of 1/den^2,
    sorted by (-q, y).

    With d the class's reduced denominator, these are the points of its
    coset enumeration at the bound 2 d^2 (``coset_points``, shared with the
    class searches), which arrive sorted by y, rescaled to den.
    """
    cls = class_of(DualVector(sub, num, den))
    d = cls.component[1]
    gram, scale2 = sub.gram, (den // d) ** 2
    points = [
        (sum(map(mul, y, gram.mul_vec(y))) * scale2, y) for y in coset_points(sub, cls, 2 * d * d)
    ]
    points.sort(key=lambda t: -t[0])
    return _rescaled(points, d, den)


class ExceptionalRootReport(Frozen):
    __slots__ = (
        "complement_rank",
        "complement_inertia",
        "root_count",
        "type_string",
        "total_component_rank",
    )
    complement_rank: int
    complement_inertia: tuple[int, int, int]
    root_count: int
    type_string: str
    total_component_rank: int


def polarization_roots(ns: OverlatticeResult) -> RootSet:
    """The roots of the overlattice orthogonal to the polarization h = e_0,
    in overlattice coordinates.

    Such a root has H-coordinate 0, so it is a sum of one vector per
    exceptional summand, each in the summand class that the glue class of
    the root fixes; their norms are at most 0 and add up to -2.  So the
    budgeted walk (``_budget_walk``) over the lists of norm >= -2
    (``_root_candidates``) of each glue class with zero H part
    (``OverlatticeResult.glue_classes``) finds every root, in base
    coordinates over denom, with the budget -2 in units of 1/denom^2: a
    walk's row, after the zero H part, is the root's numerator row.  Each
    root is mapped into overlattice coordinates (``to_result_coords``),
    where a division that is not exact raises; its norm -2 and h.r = 0 are
    re-derived through the overlattice Gram, and the root set must be
    closed under negation.
    """
    d = ns.denom
    hs, *exceptional = ns.base.summands
    head = (0,) * hs.rank
    spans = [(s.lattice, slice(s.offset, s.offset + s.rank)) for s in exceptional]
    roots = []
    for c in ns.glue_classes():
        if any(c[: hs.rank]):
            continue
        lists = [_root_candidates(lattice, c[span], d) for lattice, span in spans]
        for row in _budget_walk(lists, -2 * d * d)[0]:
            r = ns.to_result_coords(head + row, d)
            if r is None:
                raise GlueError("a root of the summands is not in the overlattice")
            roots.append(r)
    gram = ns.lattice.gram
    h = ns.h_in_result().num
    for r in roots:
        gr = gram.mul_vec(r)
        if sum(map(mul, r, gr)) != -2 or sum(map(mul, h, gr)):
            raise GlueError("a root violates the norm or degree condition in the overlattice")
    members = set(roots)
    if any(tuple([-x for x in r]) not in members for r in roots):
        raise GlueError("root set is not closed under negation")
    return RootSet(ns.lattice, tuple(roots))


def exceptional_root_analysis(ns: OverlatticeResult) -> ExceptionalRootReport:
    """Roots orthogonal to the polarization class (``polarization_roots``),
    typed component by component (``ade_type``).

    The overlattice spans the base over Q, so by Sylvester's law of inertia
    the complement of h has the base's signature less the sign of h^2 (the
    H summand is non-degenerate), read off the elimination kept on the base
    Gram.  The component ranks are those of their types (``ade_type``).
    """
    rs = polarization_roots(ns)
    labels = ade_type(rs, canonical_positivity(ns))
    ordered = sorted(Counter(labels).items(), key=lambda kv: (-int(kv[0][1:]), kv[0]))
    base = ns.base.lattice
    pos, neg, zero = base.inertia()
    h2 = base.gram.entries[0][0]
    return ExceptionalRootReport(
        complement_rank=ns.lattice.rank - 1,
        complement_inertia=(pos - (h2 > 0), neg - (h2 < 0), zero),
        root_count=len(rs),
        type_string=root_type(ordered),
        total_component_rank=sum(int(lbl[1:]) for lbl in labels),
    )


# ---------------------------------------------------------------------------
# the uniqueness search for half-line classes
# ---------------------------------------------------------------------------

def component_breakdown(ls: LabeledSum, v: DualVector) -> dict[str, list[str]]:
    """Summand-by-summand coordinates of a dual vector, fraction strings."""
    out = {}
    for s in ls.summands:
        comp = ls.component(v, s)
        out[f"{s.name}-component"] = [ratio(c, comp.den) for c in comp.num]
    return out


class HalflineSearchResult(Frozen):
    __slots__ = ("glue", "candidates", "budget_checked", "component_candidate_counts")
    glue: GlueVector  # the half-line glue vector the search was run for
    candidates: tuple[DualVector, ...]
    budget_checked: int
    component_candidate_counts: dict[str, int]

    def is_unique_expected(self) -> bool:
        return len(self.candidates) == 1 and self.candidates[0] == self.glue.vector

    def to_json_obj(self, ls: LabeledSum) -> dict:
        return {
            "label": self.glue.name,
            "unique_expected": self.is_unique_expected(),
            "assemblies_checked": self.budget_checked,
            "per_summand_candidates": dict(sorted(self.component_candidate_counts.items())),
            "candidates": [component_breakdown(ls, v) for v in self.candidates],
        }


def unique_halfline_search(gv: GlueVector, ns: OverlatticeResult) -> HalflineSearchResult:
    """All overlattice classes of norm -2 meeting the polarization once,
    non-negative against every exceptional class, in the class of the
    half-line glue vector gv.

    The search fixes the polarization component (norm 1/2), then walks the
    summands (``_budget_walk``) with the remaining norm budget of -5/2.
    Summand norms are in 1/2 Z, so the walk counts in half-units: the
    budget is -5 and each candidate adds 2 v*v.  A summand's candidates
    are the numerators its class search returns down to the budget,
    which is exhaustive by construction and memoized per (lattice, class,
    floor), so each class is enumerated once per process; rescaled to the
    target's denominator they are numerator rows over it, so the H part
    followed by a walk's row is one candidate vector.
    """
    ls = ns.base
    target = gv.vector
    target_class = class_of(target)
    budget2 = -5
    den = target.den

    hs, *exceptional = ls.summands
    head = target.num[: hs.rank]
    lists = []
    counts: dict[str, int] = {}
    for s in exceptional:
        cls = class_of(ls.component(target, s))
        found = bounded_class_minimizers(s.lattice, cls, budget2)
        lists.append(_rescaled(found, cls.component[1], den))
        counts[s.name] = len(found)

    rows, checked = _budget_walk(lists, budget2)
    results: list[DualVector] = []
    for row in rows:
        v = DualVector(ls.lattice, head + row, den)
        # position 0 pairs with the polarization; the other 21 are summand
        # pairings, which the class searches keep non-negative
        if pairing_numerator(v, v) != -2 * v.den * v.den or v.integer_pairings()[0] != 1:
            raise GlueError("assembled candidate violates the norm or degree condition")
        if class_of(v) != target_class:
            raise GlueError("assembled candidate left the glue class")
        if ns.to_result_coords(v.num, v.den) is None:
            raise GlueError("assembled candidate is not in the overlattice")
        results.append(v)
    # every result is in the class of target, so all share its denominator
    results.sort(key=lambda v: v.num)
    return HalflineSearchResult(
        glue=gv,
        candidates=tuple(results),
        budget_checked=checked,
        component_candidate_counts=counts,
    )
