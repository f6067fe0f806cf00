"""The labeled rank-22 direct sum, its glue vectors and Neron-Severi overlattices.

The base lattice is <2> + four copies of D4 + five copies of A1, with the
basis ordered after the polarization class, the sixteen exceptional
curves over the D4 points and the five exceptional curves over the A1
points.  Half-line classes are glue vectors of norm -2; adding all five
produces the overlattice of Artin invariant 2, and one extra class drops
the invariant to 1.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .exact_arith import IntMatrix, hnf_rows, is_prime, rank_mod_p
from .frozen import Frozen
from .lattice_core import (
    DiscClass,
    DualVector,
    Lattice,
    Sublattice,
    class_of,
    is_even,
    lattice_A1,
    lattice_D4,
    lattice_hyperbolic2,
    orthogonal_complement,
    pairing_numerator,
    ratio,
)
from .root_systems import (
    PositivityFunctional,
    ade_type,
    bounded_class_minimizers,
    enumerate_roots,
    irreducible_decomposition,
    root_type,
)


class GlueError(ValueError):
    pass


P_LABELS = ("00", "01", "10", "11")
Q_LABELS = ("0", "1", "w", "wb", "inf")
L_LABELS = ("inf", "0*", "1*", "*0", "*1")
EXTRA_GLUE_CHOICES = ("1", "w", "wb")


class Summand(Frozen):
    __slots__ = ("name", "kind", "offset", "rank")
    name: str
    kind: str  # "H", "D4" or "A1"
    offset: int
    rank: int


class LabeledSum(Frozen):
    """The rank-22 block direct sum with its summand table."""

    __slots__ = ("lattice", "summands")
    lattice: Lattice
    summands: tuple[Summand, ...]

    def summand(self, name: str) -> Summand:
        for s in self.summands:
            if s.name == name:
                return s
        raise GlueError(f"unknown summand {name!r}")

    def summand_lattice(self, s: Summand) -> Lattice:
        if s.kind == "H":
            return lattice_hyperbolic2()
        if s.kind == "D4":
            return lattice_D4()
        return lattice_A1()

    def component(self, v: DualVector, s: Summand) -> DualVector:
        """Projection of v onto one summand of the orthogonal decomposition."""
        return DualVector(self.summand_lattice(s), v.num[s.offset : s.offset + s.rank], v.den)

    def assemble(self, parts: dict[str, DualVector]) -> DualVector:
        """The vector with the given summand components and zero elsewhere."""
        v = self.lattice.zero()
        for name, part in parts.items():
            s = self.summand(name)
            if part.lattice != self.summand_lattice(s):
                raise GlueError(f"component for {name} lives in the wrong lattice")
            num = [0] * self.lattice.rank
            num[s.offset : s.offset + s.rank] = part.num
            v = v + DualVector(self.lattice, num, part.den)
        return v


def build_lambda() -> LabeledSum:
    """The rank-22 labeled sum: det -2^14, hyperbolic, discriminant (Z/2)^14."""
    blocks = [lattice_hyperbolic2().gram]
    summands = [Summand("H", "H", 0, 1)]
    off = 1
    for ab in P_LABELS:
        blocks.append(lattice_D4().gram)
        summands.append(Summand(f"P({ab})", "D4", off, 4))
        off += 4
    for g in Q_LABELS:
        blocks.append(lattice_A1().gram)
        summands.append(Summand(f"Q({g})", "A1", off, 1))
        off += 1
    lattice = Lattice(IntMatrix.block_diagonal(blocks))
    return LabeledSum(lattice, tuple(summands))


# ---------------------------------------------------------------------------
# the distinguished dual vectors
# ---------------------------------------------------------------------------

def h_vee(ls: LabeledSum) -> DualVector:
    return ls.assemble({"H": DualVector(lattice_hyperbolic2(), [1], 2)})


def d_vee(ls: LabeledSum, i: int, ab: str) -> DualVector:
    return ls.assemble({f"P({ab})": lattice_D4().dual_basis_vector(i - 1)})


def a_vee(ls: LabeledSum, g: str) -> DualVector:
    return ls.assemble({f"Q({g})": DualVector(lattice_A1(), [-1], 2)})


class GlueVector(Frozen):
    __slots__ = ("name", "vector")
    name: str
    vector: DualVector


def halfline_class(ls: LabeledSum, lam: str) -> GlueVector:
    """The half-line class attached to one of the five splitting lines."""
    hv = h_vee(ls)
    if lam == "inf":
        v = hv
        for g in Q_LABELS:
            v = v + a_vee(ls, g)
    elif lam == "0*":
        v = hv + d_vee(ls, 1, "00") + d_vee(ls, 1, "01") + a_vee(ls, "inf")
    elif lam == "1*":
        v = hv + d_vee(ls, 1, "10") + d_vee(ls, 1, "11") + a_vee(ls, "inf")
    elif lam == "*0":
        v = hv + d_vee(ls, 4, "00") + d_vee(ls, 4, "10") + a_vee(ls, "0")
    elif lam == "*1":
        v = hv + d_vee(ls, 4, "01") + d_vee(ls, 4, "11") + a_vee(ls, "0")
    else:
        raise GlueError(f"unknown half-line label {lam!r}")
    return GlueVector(f"F({lam})", v)


def extra_glue_class(ls: LabeledSum, c: str) -> GlueVector:
    """The extra class supported on P(00), P(11) and Q(c); drops the Artin invariant to 1."""
    if c not in EXTRA_GLUE_CHOICES:
        raise GlueError(f"extra glue label must be one of {EXTRA_GLUE_CHOICES}")
    v = h_vee(ls) + d_vee(ls, 2, "00") + d_vee(ls, 2, "11") + a_vee(ls, c)
    return GlueVector(f"G({c})", v)


# ---------------------------------------------------------------------------
# overlattices
# ---------------------------------------------------------------------------

class OverlatticeResult(Frozen):
    __slots__ = ("base", "lattice", "basis_num", "base_in_result", "index")
    base: LabeledSum
    lattice: Lattice
    basis_num: IntMatrix  # rows over a common denominator: new basis in base coordinates
    base_in_result: IntMatrix  # rows: base basis in new coordinates
    index: int

    def to_result_coords(self, v: DualVector) -> tuple[int, ...] | None:
        """Integer coordinates of v in the overlattice basis, or None if outside."""
        # v = sum_i v_i e_i, and row i of base_in_result writes e_i in the new
        # basis, so den * x is an integer product with num
        dx = [sum(map(mul, v.num, col)) for col in zip(*self.base_in_result.entries)]
        if any(c % v.den for c in dx):
            return None
        return tuple(c // v.den for c in dx)

    def h_in_result(self) -> DualVector:
        return DualVector(self.lattice, self.base_in_result.entries[0])


def independence_check(classes: Sequence[GlueVector]) -> tuple[bool, int]:
    """Rank over F2 of the glue classes inside the discriminant group.

    The base lattice is 2-elementary, so a class's reduced numerators sit
    over den 1 or 2 and, read mod 2, are its coordinates in (Z/2)^22.
    """
    rows = [[c % 2 for c in class_of(gv.vector).component[0]] for gv in classes]
    rank = rank_mod_p(IntMatrix(rows), 2)
    return rank == len(classes), rank


def _base_in_result(b: IntMatrix, denom: int) -> list[list[int]]:
    """The integer X with X b = denom I: row i writes e_i in the basis b / denom.

    b is a row Hermite form of full rank n in n columns, so it is upper
    triangular with a positive diagonal, and so is X.  Row i is solved by
    back-substitution: rem starts as denom e_i, and for j = i, ..., n - 1
    x_ij = rem_j / b_jj, then x_ij times row j of b leaves rem.  A division
    that is not exact means e_i is not an integer combination of the basis.
    Only the nonzero entries right of each pivot are visited, since the
    basis is mostly denom on the diagonal.
    """
    n = b.rows
    tails = [
        [(k, c) for k, c in enumerate(row[j + 1 :], j + 1) if c] for j, row in enumerate(b.entries)
    ]
    out = []
    for i in range(n):
        rem = [0] * n
        rem[i] = denom
        x = [0] * n
        for j in range(i, n):
            q, r = divmod(rem[j], b.entries[j][j])
            if r:
                raise GlueError("base vector escapes the overlattice")
            if q:
                x[j] = q
                for k, c in tails[j]:
                    rem[k] -= q * c
        out.append(x)
    return out


def build_overlattice(base: LabeledSum, glue: Sequence[GlueVector]) -> OverlatticeResult:
    """Saturate the base plus glue into an integral even overlattice.

    Glue vectors must pair integrally with the base and each other and have
    even norms; the index equals 2 to the F2-rank of the glue classes and
    the determinant shrinks by the square of the index.  The basis is the
    row Hermite form b of denom I and the glue over their common
    denominator denom, and ``base_in_result`` is X with X b = denom I,
    solved by back-substitution on the triangular b (``_base_in_result``).
    """
    lattice = base.lattice
    n = lattice.rank
    for gv in glue:
        v = gv.vector
        if not v.is_dual_vector():
            raise GlueError(f"glue vector {gv.name} does not pair integrally with the base")
        # v^2 = norm / den^2 is even iff 2 den^2 divides norm
        norm, d2 = pairing_numerator(v, v), v.den * v.den
        if norm % (2 * d2):
            raise GlueError(f"glue vector {gv.name} has non-even norm {ratio(norm, d2)}")
    for i, a in enumerate(glue):
        for b in glue[i + 1 :]:
            if pairing_numerator(a.vector, b.vector) % (a.vector.den * b.vector.den):
                raise GlueError(f"glue vectors {a.name}, {b.name} pair non-integrally")

    # integer generators over one common denominator: denom*I and denom*glue
    denom = math.lcm(*(gv.vector.den for gv in glue))
    gen_rows = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    gen_rows += [[c * (denom // gv.vector.den) for c in gv.vector.num] for gv in glue]
    b = IntMatrix(hnf_rows(IntMatrix(gen_rows)))
    if b.rows != n:
        raise GlueError("overlattice basis has wrong rank")

    # the form on basis/denom is b G b^T / denom^2
    scaled = b.mul(lattice.gram).mul(b.transpose())
    if any(x % (denom * denom) for row in scaled.entries for x in row):
        raise GlueError("overlattice form is not integral")
    gram = IntMatrix([[x // (denom * denom) for x in row] for row in scaled.entries])
    lat = Lattice(gram)
    if not is_even(lat):
        raise GlueError("overlattice is not even")

    base_in_result = _base_in_result(b, denom)

    d_base = lattice.det()
    d_new = lat.det()
    if d_base % d_new != 0:
        raise GlueError("determinant drop is not integral")
    drop = d_base // d_new
    _, glue_rank = independence_check(glue)
    index = 2**glue_rank
    if drop != index * index:
        raise GlueError("index does not match the F2-rank of the glue classes")
    return OverlatticeResult(base, lat, b, IntMatrix(base_in_result), index)


def artin_invariant(lattice: Lattice, p: int) -> int:
    """Half the p-adic valuation of minus the determinant, when det = -p^(2*sigma)."""
    if not is_prime(p):
        raise GlueError(f"the Artin invariant needs a prime p, not {p}")
    d = lattice.det()
    if d >= 0:
        raise GlueError("determinant is not negative")
    m = -d
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1 or e % 2 != 0 or e == 0:
        raise GlueError(f"determinant {d} is not of the form -{p}^(2*sigma)")
    sigma = e // 2
    # a supersingular K3 Neron-Severi lattice has rank 22 and sigma in 1..10
    if lattice.rank == 22 and not (1 <= sigma <= 10):
        raise GlueError(f"Artin invariant {sigma} is impossible at rank 22")
    return sigma


# ---------------------------------------------------------------------------
# the exceptional-root analysis of the polarization complement
# ---------------------------------------------------------------------------

def canonical_positivity(ns: OverlatticeResult, comp: Sublattice) -> PositivityFunctional:
    """Positivity functional on a sublattice of the overlattice, induced by
    pairing against the sum of all dual basis vectors of the exceptional
    summands.

    That dual vector pairs to +1 with each of the 21 exceptional classes and
    to 0 with the polarization, so the distinguished simple roots come out
    positive; the form on the sublattice basis is that 0/1 pairing vector
    pushed through the two embeddings, up to the positive common denominator
    of the overlattice basis.
    """
    w_pairings = [0 if s.kind == "H" else 1 for s in ns.base.summands for _ in range(s.rank)]
    form = comp.basis_in_ambient.mul_vec(ns.basis_num.mul_vec(w_pairings))
    return PositivityFunctional(tuple(form))


class ExceptionalRootReport(Frozen):
    __slots__ = (
        "complement_rank",
        "complement_inertia",
        "root_count",
        "component_types",
        "type_string",
        "total_component_rank",
    )
    complement_rank: int
    complement_inertia: tuple[int, int, int]
    root_count: int
    component_types: tuple[str, ...]
    type_string: str
    total_component_rank: int


def exceptional_root_analysis(ns: OverlatticeResult) -> ExceptionalRootReport:
    """Roots orthogonal to the polarization class, decomposed and typed."""
    h = ns.h_in_result()
    comp = orthogonal_complement(ns.lattice, h)
    alpha = canonical_positivity(ns, comp)
    roots = enumerate_roots(comp.lattice)
    comps = irreducible_decomposition(roots)
    labels = [ade_type(c, alpha) for c in comps]
    counted: dict[str, int] = {}
    for lbl in labels:
        counted[lbl] = counted.get(lbl, 0) + 1
    ordered = sorted(counted.items(), key=lambda kv: (-int(kv[0][1:]), kv[0]))
    return ExceptionalRootReport(
        complement_rank=comp.lattice.rank,
        complement_inertia=comp.lattice.inertia(),
        root_count=len(roots),
        component_types=tuple(labels),
        type_string=root_type(ordered),
        total_component_rank=sum(c.rank for c in comps),
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
    __slots__ = ("label", "target", "candidates", "budget_checked",
                 "component_candidate_counts")
    label: str
    target: DualVector  # the half-line glue vector the search was run for
    candidates: tuple[DualVector, ...]
    budget_checked: int
    component_candidate_counts: dict[str, int]

    def is_unique_expected(self) -> bool:
        return len(self.candidates) == 1 and self.candidates[0] == self.target

    def to_json_obj(self, ls: LabeledSum) -> dict:
        return {
            "label": f"F({self.label})",
            "unique_expected": self.is_unique_expected(),
            "assemblies_checked": self.budget_checked,
            "per_summand_candidates": dict(sorted(self.component_candidate_counts.items())),
            "candidates": [component_breakdown(ls, v) for v in self.candidates],
        }


def _summand_candidates(
    sub: Lattice,
    cls: DiscClass,
    budget2: int,
) -> tuple[tuple[int, DualVector], ...]:
    """(norm2, v) for all dual vectors v of one summand in a given class with
    norm2 = 2 v*v >= budget2 and non-negative pairing against the summand's
    basis roots.

    These are the ``found`` vectors of the class search down to the budget,
    which is exhaustive by construction; bounded_class_minimizers memoizes
    it per (lattice, class, floor), so each class is enumerated once per
    process.
    """
    search = bounded_class_minimizers(sub, cls, budget2)
    rep = search.rep
    # found is sorted by (-norm2, x); adding rep keeps that order on coordinates
    return tuple((norm2, rep + DualVector(sub, x)) for norm2, x in search.found)


def unique_halfline_search(
    ls: LabeledSum, lam: str, ns: OverlatticeResult
) -> HalflineSearchResult:
    """All overlattice classes of norm -2 meeting the polarization once,
    non-negative against every exceptional class, in the class of the
    half-line glue vector.

    The search fixes the polarization component (norm 1/2), then walks the
    summands with the remaining norm budget of -5/2 threaded as a running
    bound.  Summand norms are in 1/2 Z, so the walk counts in half-units:
    the budget is -5 and each candidate adds 2 v*v.
    """
    target = halfline_class(ls, lam).vector
    target_class = class_of(target)
    budget2 = -5

    per_summand: list[tuple[Summand, tuple[tuple[int, DualVector], ...]]] = []
    counts: dict[str, int] = {}
    for s in ls.summands:
        if s.kind == "H":
            continue
        sub = ls.summand_lattice(s)
        comp = ls.component(target, s)
        cands = _summand_candidates(sub, class_of(comp), budget2)
        per_summand.append((s, cands))
        counts[s.name] = len(cands)

    # D4 components first, then A1: mirrors the budget pruning order
    per_summand.sort(key=lambda t: (t[0].kind != "D4", t[0].offset))
    max_tail = [0] * (len(per_summand) + 1)
    for i in range(len(per_summand) - 1, -1, -1):
        best = per_summand[i][1][0][0] if per_summand[i][1] else 0
        max_tail[i] = max_tail[i + 1] + best

    results: list[DualVector] = []
    checked = 0
    choice: list[tuple[int, DualVector]] = []

    def walk(i: int, used: int) -> None:
        nonlocal checked
        if used + max_tail[i] < budget2:
            return
        if i == len(per_summand):
            checked += 1
            if used != budget2:
                return
            v = h_vee(ls) + ls.assemble(
                {s.name: part for (s, _), (_, part) in zip(per_summand, choice)}
            )
            # position 0 pairs with the polarization, the other 21 with the exceptional classes
            gv = v.integer_pairings()
            if pairing_numerator(v, v) != -2 * v.den * v.den or gv[0] != 1:
                raise GlueError("assembled candidate violates the norm or degree condition")
            if any(x < 0 for x in gv[1:]):
                return
            if class_of(v) != target_class:
                raise GlueError("assembled candidate left the glue class")
            if ns.to_result_coords(v) is None:
                raise GlueError("assembled candidate is not in the overlattice")
            results.append(v)
            return
        for norm2, part in per_summand[i][1]:
            if used + norm2 + max_tail[i + 1] < budget2:
                break
            choice.append((norm2, part))
            walk(i + 1, used + norm2)
            choice.pop()

    walk(0, 0)
    # every result is in the class of target, so all share its denominator
    results.sort(key=lambda v: v.num)
    return HalflineSearchResult(
        label=lam,
        target=target,
        candidates=tuple(results),
        budget_checked=checked,
        component_candidate_counts=counts,
    )
