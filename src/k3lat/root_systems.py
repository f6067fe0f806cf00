"""Roots of even negative-definite lattices.

Enumeration of norm -2 vectors by exact lattice-point search, irreducible
decomposition, positive and indecomposable roots with respect to a
positivity functional, Dynkin-diagram classification, and the bounded
dual-class norm searches used by the glue-vector uniqueness arguments.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul, sub
from typing import Iterable, Sequence

from .exact_arith import IntMatrix, hnf_rows, symmetric_elimination
from .frozen import Frozen
from .lattice_core import (
    DiscClass,
    DualVector,
    Lattice,
    is_even,
    pairing_numerator,
)


class RootSystemError(ValueError):
    pass


def short_vectors(
    gram: IntMatrix, bound: int, coset: tuple[Sequence[int], int] | None = None
) -> list[tuple[int, ...]]:
    """All nonzero integer vectors x with x^T (-gram) x <= bound, gram
    negative definite, sorted.

    With ``coset`` = (num, den), the points are y = num + den x, the vectors
    y / den of the coset num / den + Z^n, and the result is every x, zero
    included, with y^T (-gram) y <= bound; on the zero coset that is the
    default with the zero vector kept.

    Fincke-Pohst enumeration in integers.  The symmetric elimination of
    -gram takes its pivots in order and gives the leading minors
    D_1, ..., D_n (D_0 = 1).  It is read off the elimination of gram itself
    (see ``symmetric_elimination``, kept on the matrix, so the lattice's
    signature shares it): the entries at step i are (i + 1)-minors by
    Sylvester's identity, so negating the matrix multiplies step i by
    (-1)^(i+1).  With B_i its integer row i (B_ii = D_i), -gram(y) = sum_i (B_i . y)^2 / (D_(i-1) D_i).  Row i
    divided by its gcd g_i is den_i = D_i / g_i on the diagonal and a_ij
    after it, with weight g_i^2 / (D_(i-1) D_i); the weights and the bound
    are put over one common denominator as integers W_i and B.  The form
    becomes sum_i W_i (den_i y_i + s_i)^2 with s_i = sum_{j>i} a_ij y_j, so
    each node's interval for x_i, where y_i = num_i + den x_i, comes from an
    integer square root and a floor division, and every comparison is
    exact.  A form that is not positive definite has some D_i <= 0 (or
    fewer than n pivots) and raises.  The enumeration is exhaustive for its
    bound by construction.
    """
    if bound < 0:
        raise RootSystemError("negative bound")
    n = gram.rows
    steps = [
        (piv, p, row) if i % 2 else (piv, -p, tuple(-x for x in row))
        for i, (piv, p, row) in enumerate(symmetric_elimination(gram))
    ]
    if len(steps) < n or any(p <= 0 for _, p, _ in steps):
        raise RootSystemError("form is not positive definite")
    dens, rows, weights = [], [], []
    prev = 1
    for i, (_, p, row) in enumerate(steps):
        g = math.gcd(*row)
        dens.append(p // g)
        rows.append([(j, row[j] // g) for j in range(i + 1, n) if row[j]])
        h = math.gcd(g * g, prev * p)
        weights.append((g * g // h, prev * p // h))
        prev = p
    scale = math.lcm(*(den for _, den in weights))
    w_int = [num * (scale // den) for num, den in weights]
    keep_zero = coset is not None
    num, step = coset if keep_zero else ((0,) * n, 1)
    out: list[tuple[int, ...]] = []
    x = [0] * n
    y = list(num)  # y = num + step * x

    def recurse(i: int, remaining: int) -> None:
        s = dens[i] * num[i] + sum(a * y[j] for j, a in rows[i])
        w, den = w_int[i], dens[i] * step
        m = math.isqrt(remaining // w)
        # -m <= den*x_i + s <= m, so every x_i in the range fits the budget
        lo, hi = -((m + s) // den), (m - s) // den
        if i == 0:
            for xi in range(lo, hi + 1):
                x[0] = xi
                if keep_zero or any(x):
                    out.append(tuple(x))
        else:
            for xi in range(lo, hi + 1):
                t = den * xi + s
                x[i] = xi
                y[i] = num[i] + step * xi
                recurse(i - 1, remaining - w * t * t)
        x[i] = 0
        y[i] = num[i]

    recurse(n - 1, bound * scale)
    out.sort()
    return out


class RootSet(Frozen):
    __slots__ = ("lattice", "roots", "_groots")  # G r per root, cached
    lattice: Lattice
    roots: tuple[tuple[int, ...], ...]

    def __init__(self, lattice: Lattice, roots: Iterable[tuple[int, ...]]):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "roots", tuple(roots))

    def __len__(self) -> int:
        return len(self.roots)

    def gram_images(self) -> tuple[tuple[int, ...], ...]:
        """G r for every root, in the order of ``roots``, computed once."""
        cached = getattr(self, "_groots", None)
        if cached is None:
            gram = self.lattice.gram
            cached = tuple(gram.mul_vec(r) for r in self.roots)
            object.__setattr__(self, "_groots", cached)
        return cached


def enumerate_roots(lattice: Lattice) -> RootSet:
    """The complete set of lattice vectors of norm -2."""
    if not is_even(lattice):
        raise RootSystemError("root enumeration requires an even lattice")
    if not lattice.is_negative_definite():
        raise RootSystemError("root enumeration requires a negative-definite lattice")
    gram = lattice.gram
    # the enumeration is exact; the norm is re-derived through G v regardless,
    # and the G v are kept for the pairing graph
    roots, images = [], []
    for v in short_vectors(gram, 2):
        gv = gram.mul_vec(v)
        if sum(map(mul, v, gv)) == -2:
            roots.append(v)
            images.append(gv)
    rs = RootSet(lattice, roots)
    object.__setattr__(rs, "_groots", tuple(images))
    rset = set(rs.roots)
    for v in rs.roots:
        if tuple(-c for c in v) not in rset:
            raise RootSystemError("root set is not closed under negation")
    return rs


# ---------------------------------------------------------------------------
# irreducible decomposition
# ---------------------------------------------------------------------------

class RootComponent(Frozen):
    """A connected class of roots together with the sublattice they generate."""

    __slots__ = ("lattice", "roots", "basis")
    lattice: Lattice
    roots: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def _pairing_components(
    roots: Sequence[Sequence[int]], images: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Index lists of the connected components of the graph on the roots
    with an edge where the pairing r_i . r_j = (G r_i) . r_j is nonzero.

    Kronecker substitution: coordinate k of every root is packed into one
    integer col_k, root j in the w-bit slot j, so sum_k (G r_i)_k col_k
    holds every pairing of r_i in its slots.  Each |r_i . r_j| is at most
    max ||r||_1 * max ||G r||_inf < 2^(w-1) = B; adding B to every slot
    makes slot j equal r_i . r_j + B, in [1, 2^w), so no slot carries into
    the next, and XOR with that bias leaves slot j nonzero exactly when
    r_i . r_j is nonzero.
    """
    count = len(roots)
    if not count:
        return []
    bound = max(sum(map(abs, r)) for r in roots) * max(max(map(abs, g)) for g in images)
    w = bound.bit_length() + 1
    ones = ((1 << (w * count)) - 1) // ((1 << w) - 1)  # a 1 in every slot
    bias = ones << (w - 1)  # B in every slot: also the top bit of every slot
    low = bias - ones  # B - 1 in every slot
    cols = []
    for k in range(len(roots[0])):
        col = 0
        for r in reversed(roots):
            col = (col << w) + r[k]
        cols.append(col)
    unseen = bias  # the top bit of slot j stays set until root j is reached
    comps = []
    for start in range(count):
        top = 1 << (w * start + w - 1)
        if not unseen & top:
            continue
        unseen ^= top
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            x = (sum(map(mul, images[i], cols)) + bias) ^ bias
            # the top bit of each slot of x that is nonzero, in one step
            reached = ((x & low) + low | x) & unseen
            unseen ^= reached
            while reached:
                bit = reached & -reached
                stack.append(bit.bit_length() // w - 1)
                reached ^= bit
        comps.append(members)
    return comps


def irreducible_decomposition(root_set: RootSet) -> list[RootComponent]:
    """Connected components of the graph on roots with edges where the pairing is nonzero."""
    roots = root_set.roots
    comps = []
    for indices in _pairing_components(roots, root_set.gram_images()):
        members = sorted(roots[i] for i in indices)
        basis = hnf_rows(IntMatrix(members))
        comps.append(RootComponent(root_set.lattice, tuple(members), tuple(basis)))
    comps.sort(key=lambda c: c.roots[0])
    return comps


# ---------------------------------------------------------------------------
# positivity functionals, indecomposable roots
# ---------------------------------------------------------------------------

class PositivityFunctional(Frozen):
    """Linear form alpha(x) = num . x, up to a positive scale; pairing
    against a dual vector v has num = G num_v.  Only the signs and the
    order of its values are read, which the scale does not change."""

    __slots__ = ("num",)
    num: tuple[int, ...]

    def value(self, x: Sequence[int]) -> int:
        return sum(map(mul, self.num, x))


def positive_part(component: RootComponent, alpha: PositivityFunctional) -> list[tuple[int, ...]]:
    out = []
    for r in component.roots:
        v = alpha.value(r)
        if v == 0:
            raise RootSystemError("positivity functional vanishes on a root")
        if v > 0:
            out.append(r)
    return out


def positive_indecomposables(
    component: RootComponent, alpha: PositivityFunctional
) -> list[tuple[int, ...]]:
    """Roots of the positive part that are not sums of two positive roots."""
    plus = positive_part(component, alpha)
    plus_set = set(plus)
    out = []
    for r in plus:
        decomposable = any(
            tuple(a - b for a, b in zip(r, r1)) in plus_set for r1 in plus
        )
        if not decomposable:
            out.append(r)
    out.sort()
    if len(out) != component.rank:
        raise RootSystemError("indecomposable count differs from the component rank")
    return out


def _positive_root_coordinates(
    component: RootComponent,
    alpha: PositivityFunctional,
    basis: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every positive root as its non-negative integer coordinates over the basis.

    In increasing order of alpha, a positive root is a basis root, or a
    basis root e plus a positive root r - e already written; its
    coordinates are then those of r - e with one added at e, so they rebuild
    it.  The first positive root that is neither is named in a
    RootSystemError.  No inverse is taken, so no Gram is inverted twice in
    one run.
    """
    units = {e: tuple(int(i == j) for j in range(len(basis))) for i, e in enumerate(basis)}
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for r in sorted(positive_part(component, alpha), key=alpha.value):
        if r in units:
            out[r] = units[r]
            continue
        for e, unit in units.items():
            rest = out.get(tuple(map(sub, r, e)))
            if rest is not None:
                out[r] = tuple(map(add, rest, unit))
                break
        else:
            raise RootSystemError(f"positive root {r} does not decompose into the indecomposables")
    return out


# ---------------------------------------------------------------------------
# ADE classification
# ---------------------------------------------------------------------------

def cartan_matrix(label: str) -> IntMatrix:
    """Cartan matrix in the canonical node order used by ade_type.

    A_n: a chain 1-2-...-n.  D_n: the two short leaves first, then the
    center, then the long chain outward.  E_n: short leaf, middle-branch
    inner node, middle-branch leaf, center, long chain outward.
    """
    family, n = label[0], int(label[1:])
    edges: list[tuple[int, int]] = []
    if family == "A":
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "D":
        if n < 4:
            raise RootSystemError("D type needs rank >= 4")
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    elif family == "E":
        if n not in (6, 7, 8):
            raise RootSystemError("E type needs rank 6, 7 or 8")
        edges = [(1, 4), (2, 4), (2, 3)] + [(i, i + 1) for i in range(4, n)]
    else:
        raise RootSystemError(f"unknown type {label!r}")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i, j in edges:
        m[i - 1][j - 1] = -1
        m[j - 1][i - 1] = -1
    return IntMatrix(m)


def _diagram_order(
    nodes: list[tuple[int, ...]], adj: dict[tuple[int, ...], list[tuple[int, ...]]]
) -> tuple[str, list[tuple[int, ...]]]:
    """Classify a Dynkin diagram and return the canonical node order."""
    n = len(nodes)
    edge_count = sum(len(v) for v in adj.values()) // 2
    if edge_count != n - 1:
        raise RootSystemError("diagram is not a tree; not an ADE diagram")
    degs = {v: len(adj[v]) for v in nodes}
    if any(d > 3 for d in degs.values()):
        raise RootSystemError("diagram has a node of degree > 3; not an ADE diagram")
    forks = [v for v in nodes if degs[v] == 3]
    if len(forks) > 1:
        raise RootSystemError("diagram has two fork nodes; not an ADE diagram")

    def walk(frm, nxt):
        # nodes of the branch starting at nxt, walking away from frm
        branch = [nxt]
        prev, cur = frm, nxt
        while True:
            ahead = [w for w in adj[cur] if w != prev]
            if not ahead:
                return branch
            if len(ahead) > 1:
                raise RootSystemError("branch re-forks; not an ADE diagram")
            prev, cur = cur, ahead[0]
            branch.append(cur)

    if not forks:
        if n == 1:
            return "A1", nodes[:]
        ends = sorted(v for v in nodes if degs[v] == 1)
        order = walk(None, ends[0])
        return f"A{n}", order
    center = forks[0]
    branches = sorted((walk(center, w) for w in adj[center]), key=lambda b: (len(b), b[0]))
    lens = [len(b) for b in branches]
    if lens[0] == 1 and lens[1] == 1:
        label = f"D{n}"
        order = [branches[0][0], branches[1][0], center] + branches[2][:]
    elif lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        label = f"E{n}"
        order = [branches[0][0], branches[1][0], branches[1][1], center] + branches[2][:]
    else:
        raise RootSystemError("branch profile is not of ADE shape")
    return label, order


def ade_type(component: RootComponent, alpha: PositivityFunctional) -> str:
    """Dynkin type of a root component, certified against the Cartan matrix.

    The indecomposables are ordered canonically and their Gram matrix is
    checked to equal minus the Cartan matrix of the reported type; then
    every positive root is checked to be a non-negative integer
    combination of them (``_positive_root_coordinates``).
    """
    eps = positive_indecomposables(component, alpha)
    gram = component.lattice.gram
    images = {e: gram.mul_vec(e) for e in eps}

    def pair(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return sum(map(mul, images[a], b))

    adj: dict[tuple[int, ...], list[tuple[int, ...]]] = {e: [] for e in eps}
    for i, a in enumerate(eps):
        for b in eps[i + 1 :]:
            p = pair(a, b)
            if p not in (0, 1):
                raise RootSystemError("indecomposable pairing outside {0,1}; not an ADE diagram")
            if p == 1:
                adj[a].append(b)
                adj[b].append(a)
    label, order = _diagram_order(eps, adj)
    cartan = cartan_matrix(label)
    actual = [[-pair(a, b) for b in order] for a in order]
    if actual != [list(r) for r in cartan.entries]:
        raise RootSystemError("Gram of the indecomposables does not match the Cartan matrix")
    _positive_root_coordinates(component, alpha, eps)
    return label


def root_type(components: Iterable[tuple[str, int]]) -> str:
    """Formal-sum notation such as '4D4+5A1' from (label, count) pairs."""
    parts = []
    for label, count in components:
        parts.append(label if count == 1 else f"{count}{label}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# bounded dual-class norm searches
# ---------------------------------------------------------------------------

class ClassNormSearch(Frozen):
    """Outcome of the exhaustive search over one dual class, down to a floor.

    The norms of the class are in 1/2 Z and are carried in half-units, as
    the integers norm2 = 2 v*v.  ``found`` holds every (norm2, x) with
    norm2 >= ``floor2`` and rep + x pairing non-negatively with every basis
    vector, by decreasing norm; every such vector that is not found has
    norm2 < floor2.  So the maximum is global, and ``runner_up2``, the
    largest norm2 below it, is exact whenever it is not None.  ``rep`` is
    the class's component (num mod den) / den.  ``norms_all_odd`` holds
    when every norm of the class is odd, which the parity of the
    representative's norm decides (``_norms_all_odd``); it holds on the D4
    leaf classes and on no A1 class.
    """

    __slots__ = ("rep", "max_norm2", "maximizers", "runner_up2", "floor2", "norms_all_odd",
                 "found")
    rep: DualVector
    max_norm2: int
    maximizers: tuple[DualVector, ...]
    runner_up2: int | None
    floor2: int
    norms_all_odd: bool
    found: tuple[tuple[int, tuple[int, ...]], ...]


def _norms_all_odd(lattice: Lattice, rep: DualVector) -> bool:
    """Whether every vector of the class rep + L has odd norm.

    For x in L, (rep + x)^2 = rep^2 + 2 rep.x + x^2 with rep.x an integer
    and, on an even lattice, x^2 even: the norm of a dual vector is well
    defined mod 2 on its class (the discriminant quadratic form), so the
    class has only odd norms exactly when rep^2 is an odd integer.
    """
    if not is_even(lattice):
        raise RootSystemError("norm parity requires an even lattice")
    if not rep.is_dual_vector():
        raise RootSystemError("norm parity requires a dual vector")
    d2 = rep.den * rep.den  # rep^2 = pairing_numerator(rep, rep) / d2
    return pairing_numerator(rep, rep) % (2 * d2) == d2


def bounded_class_minimizers(lattice: Lattice, cls: DiscClass, floor2: int = -5) -> ClassNormSearch:
    """Maximum of v*v over dual vectors in a fixed class pairing non-negatively
    with every basis vector, and every such vector with 2 v*v >= floor2.

    The search is the Fincke-Pohst enumeration of the coset (``short_vectors``),
    exhaustive down to the floor, which defaults to -5 (norm -5/2, the
    budget of the half-line walk).
    """
    if cls.lattice != lattice:
        raise RootSystemError("class belongs to a different lattice")
    return _class_search(lattice, cls, floor2)


@functools.cache
def _class_search(lattice: Lattice, cls: DiscClass, floor2: int) -> ClassNormSearch:
    """The search behind bounded_class_minimizers, memoized per (lattice, class, floor).

    The representative is the class's component, and the parity of its norm
    is the parity of every norm in the class (``_norms_all_odd``).  With
    y = num + den x, norm2 >= floor2 is y^T (-G) y <= -floor2 den^2 / 2, so
    the floor asks for the coset scan (``_coset_scan``) at the bound
    floor(-floor2 den^2 / 2), and floors that round to one bound share it.
    Every point of that scan has norm2 >= -2 bound / den^2 >= floor2, and
    every point outside it has norm2 < floor2, so the scan is ``found``.
    """
    num, den = cls.component
    rep = DualVector(lattice, num, den)
    if 2 * pairing_numerator(rep, rep) % (den * den):
        raise RootSystemError("representative norm is not half-integral")
    all_odd = _norms_all_odd(lattice, rep)
    found = _coset_scan(lattice, cls, -floor2 * den * den // 2)
    if not found:
        raise RootSystemError("empty constrained search")
    max_norm2 = found[0][0]
    maximizers = tuple(rep + DualVector(lattice, x) for norm2, x in found if norm2 == max_norm2)
    rest = [norm2 for norm2, _ in found if norm2 < max_norm2]
    return ClassNormSearch(
        rep=rep,
        max_norm2=max_norm2,
        maximizers=maximizers,
        runner_up2=max(rest) if rest else None,
        floor2=floor2,
        norms_all_odd=all_odd,
        found=found,
    )


@functools.cache
def _coset_scan(
    lattice: Lattice, cls: DiscClass, bound: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every (norm2, x) of the class's coset with y = num + den x,
    y^T (-G) y <= bound and G y >= 0, sorted by (-norm2, x): the Fincke-Pohst
    enumeration (``short_vectors``), memoized per (lattice, class, bound).
    """
    num, den = cls.component
    gram = lattice.gram
    rows = list(zip(gram.mul_vec(num), gram.entries))
    found = []
    for x in short_vectors(gram, bound, (num, den)):
        # G y = G num + den G x, row by row: most points leave the cone early
        for gnum, row in rows:
            if gnum + den * sum(map(mul, row, x)) < 0:
                break
        else:
            y = [a + den * b for a, b in zip(num, x)]
            found.append((2 * sum(map(mul, y, gram.mul_vec(y))) // (den * den), x))
    found.sort(key=lambda t: (-t[0], t[1]))
    return tuple(found)
