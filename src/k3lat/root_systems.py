"""Roots of even negative-definite lattices.

Exact lattice-point search on a lattice or a coset of it, the simple roots
of a root set with respect to a positivity functional, the ADE type of its
irreducible components from their Dynkin diagrams, and the bounded
dual-class norm searches used by the glue-vector uniqueness arguments.
"""

from __future__ import annotations

import functools
import math
from operator import mul, sub
from typing import Iterable, Sequence

from .exact_arith import IntMatrix, symmetric_elimination
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
    gram: IntMatrix, bound: int, coset: tuple[Sequence[int], int]
) -> list[tuple[int, ...]]:
    """Every point y = num + den x, x integral, with y^T (-gram) y <= bound,
    gram negative definite, sorted, for ``coset`` = (num, den): the
    numerators of the vectors y / den of the coset num / den + Z^n, zero
    included.

    Fincke-Pohst enumeration in integers.  The symmetric elimination of
    -gram takes its pivots in order and gives the leading minors
    D_1, ..., D_n (D_0 = 1).  It is read off the elimination of gram itself
    (see ``symmetric_elimination``, kept on the matrix, so the lattice's
    signature shares it): the entries at step i are (i + 1)-minors by
    Sylvester's identity, so negating the matrix multiplies step i by
    (-1)^(i+1).  With B_i its integer row i (B_ii = D_i),
    -gram(y) = sum_i (B_i . y)^2 / (D_(i-1) D_i).  Row i divided by its gcd
    g_i is den_i = D_i / g_i on the diagonal and a_ij after it, with weight
    g_i^2 / (D_(i-1) D_i); the weights and the bound are put over one
    common denominator as integers W_i and B.  The form becomes
    sum_i W_i (den_i y_i + s_i)^2 with s_i = sum_{j>i} a_ij y_j, so each
    node's interval for y_i = num_i + den x_i comes from an integer square
    root and a floor division, and every comparison is exact.  A form that
    is not positive definite has some D_i <= 0 (or fewer than n pivots) and
    raises.  The enumeration is exhaustive for its bound by construction.
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
    num, step = coset
    out: list[tuple[int, ...]] = []
    y = list(num)  # y = num + step * x

    def recurse(i: int, remaining: int) -> None:
        y0, w, den = num[i], w_int[i], dens[i] * step
        s = dens[i] * y0 + sum(a * y[j] for j, a in rows[i])
        m = math.isqrt(remaining // w)
        # -m <= den*x_i + s <= m, so every x_i in the range fits the budget
        lo, hi = -((m + s) // den), (m - s) // den
        if i == 0:
            for yi in range(y0 + step * lo, y0 + step * hi + 1, step):
                y[0] = yi
                out.append(tuple(y))
        else:
            for xi in range(lo, hi + 1):
                t = den * xi + s
                y[i] = y0 + step * xi
                recurse(i - 1, remaining - w * t * t)

    recurse(n - 1, bound * scale)
    out.sort()
    return out


class RootSet(Frozen):
    __slots__ = ("lattice", "roots")
    lattice: Lattice
    roots: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.roots)


# ---------------------------------------------------------------------------
# positivity functionals, simple roots
# ---------------------------------------------------------------------------

def simple_roots(
    root_set: RootSet, alpha: Sequence[int]
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], tuple[int, ...]]]:
    """The simple roots of the positive roots {r : alpha(r) > 0}, in the
    order found, and every positive root's non-negative integer coordinates
    over them, in increasing alpha.

    The positivity functional is the linear form alpha(x) = alpha . x, up
    to a positive scale; pairing against a dual vector v has alpha = G num_v.
    Only the signs and the order of its values are read, which the scale
    does not change.

    The positive roots are walked in increasing alpha.  A positive root that
    is not simple is a simple root e plus a positive root (Humphreys, 10.2),
    and alpha(e) and alpha(r - e) are both below alpha(r), so both were
    walked before r; its coordinates are those of r - e with one added at e.
    A difference of two simple roots is not a root, so a root for which no
    such e is found is simple.  alpha must not vanish on a root.
    """
    positive = []
    for r in root_set.roots:
        v = sum(map(mul, alpha, r))
        if v == 0:
            raise RootSystemError("positivity functional vanishes on a root")
        if v > 0:
            positive.append((v, r))
    positive.sort()
    simple: list[tuple[int, ...]] = []
    summands: dict[tuple[int, ...], tuple[int, ...]] = {}  # indices into simple
    for _, r in positive:
        for i, e in enumerate(simple):
            rest = summands.get(tuple(map(sub, r, e)))
            if rest is not None:
                summands[r] = rest + (i,)
                break
        else:
            summands[r] = (len(simple),)
            simple.append(r)
    indices = range(len(simple))
    return simple, {r: tuple(map(s.count, indices)) for r, s in summands.items()}


# ---------------------------------------------------------------------------
# ADE classification
# ---------------------------------------------------------------------------

def cartan_matrix(label: str) -> IntMatrix:
    """Cartan matrix in the canonical node order used by ade_type.

    A_n: a chain 1-2-...-n.  D_n: the two short leaves first, then the
    center, then the long chain outward.  E_n: short leaf, middle-branch
    inner node, middle-branch leaf, center, long chain outward.  The label
    is one that ``_diagram_order`` gives: A_n, D_n with n >= 4, E_6, E_7 or E_8.
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


def _diagram_order(nodes: list, adj: dict) -> tuple[str, list]:
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


def ade_type(root_set: RootSet, alpha: Sequence[int]) -> list[str]:
    """Dynkin type of each irreducible component of a root set, certified
    against the Cartan matrix.

    The components are those of the Dynkin diagram of the simple roots
    (``simple_roots``): distinct simple roots pair to 0 or 1, with an edge
    at 1.  Each component's nodes are ordered canonically and their Gram is
    checked to equal minus the Cartan matrix of its type; a Cartan matrix is
    non-degenerate, so the simple roots are independent.  Then every
    positive root is rebuilt from its coordinates, so they span, and the
    rank n of each label is its component's rank.
    """
    simple, coordinates = simple_roots(root_set, alpha)
    gram = root_set.lattice.gram
    images = [gram.mul_vec(e) for e in simple]
    pairs = [[sum(map(mul, g, e)) for e in simple] for g in images]
    n = len(simple)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if pairs[i][j] not in (0, 1):
                raise RootSystemError("simple roots pair outside {0,1}; not an ADE diagram")
            if pairs[i][j]:
                adj[i].append(j)
                adj[j].append(i)
    labels = []
    unseen = set(range(n))
    for start in range(n):
        if start not in unseen:
            continue
        unseen.remove(start)
        stack, component = [start], []
        while stack:
            i = stack.pop()
            component.append(i)
            for j in adj[i]:
                if j in unseen:
                    unseen.remove(j)
                    stack.append(j)
        label, order = _diagram_order(component, adj)
        if [[-pairs[i][j] for j in order] for i in order] != [
            list(row) for row in cartan_matrix(label).entries
        ]:
            raise RootSystemError("Gram of the simple roots does not match the Cartan matrix")
        labels.append(label)
    for r, coords in coordinates.items():
        rebuilt = [0] * len(r)
        for k, e in zip(coords, simple):
            if k:
                rebuilt = [x + k * y for x, y in zip(rebuilt, e)]
        if tuple(rebuilt) != r:
            raise RootSystemError(f"positive root {r} does not decompose into the simple roots")
    return labels


def root_type(components: Iterable[tuple[str, int]]) -> str:
    """Formal-sum notation such as '4D4+5A1' from (label, count) pairs."""
    parts = []
    for label, count in components:
        parts.append(label if count == 1 else f"{count}{label}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# bounded dual-class norm searches
# ---------------------------------------------------------------------------

def norms_all_odd(lattice: Lattice, rep: DualVector) -> bool:
    """Whether every vector of the class rep + L has odd norm.

    For x in L, (rep + x)^2 = rep^2 + 2 rep.x + x^2 with rep.x an integer
    and, on an even lattice, x^2 even: the norm of a dual vector is well
    defined mod 2 on its class (the discriminant quadratic form), so the
    class has only odd norms exactly when rep^2 is an odd integer.  That
    holds on the D4 leaf classes and on no A1 class.
    """
    if not is_even(lattice):
        raise RootSystemError("norm parity requires an even lattice")
    if not rep.is_dual_vector():
        raise RootSystemError("norm parity requires a dual vector")
    d2 = rep.den * rep.den  # rep^2 = pairing_numerator(rep, rep) / d2
    return pairing_numerator(rep, rep) % (2 * d2) == d2


def bounded_class_minimizers(
    lattice: Lattice, cls: DiscClass, floor2: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every dual vector v = y / den of a fixed class pairing non-negatively
    with every basis vector and with 2 v*v >= floor2, as (norm2, y), by
    decreasing norm, ties in y order; den is the class's denominator.

    The norms of the class are in 1/2 Z and are carried in half-units, as
    the integers norm2 = 2 v*v.  The search is the Fincke-Pohst enumeration
    of the coset (``short_vectors``), exhaustive down to the floor: every
    such vector that is not returned has norm2 < floor2.  So entry 0 is the
    global maximum, and the first norm below it is the exact runner-up.
    The half-line walk asks for -5 (norm -5/2, its budget).
    """
    if cls.lattice != lattice:
        raise RootSystemError("class belongs to a different lattice")
    return _class_search(lattice, cls, floor2)


@functools.cache
def _class_search(
    lattice: Lattice, cls: DiscClass, floor2: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The search behind bounded_class_minimizers, memoized per (lattice, class, floor).

    The class's component num / den represents it.  For v = y / den,
    norm2 >= floor2 is y^T (-G) y <= -floor2 den^2 / 2, so the floor asks
    for the coset points (``coset_points``) at the bound
    floor(-floor2 den^2 / 2), and floors that round to one bound share that
    enumeration.  Every point of it has norm2 >= -2 bound / den^2 >= floor2,
    and every point outside it has norm2 < floor2, so the result is the
    points with G y >= 0.  The cone is tested row by row, since most points
    leave it early; the points arrive sorted, and the stable sort by norm
    keeps ties in that order.
    """
    num, den = cls.component
    rep = DualVector(lattice, num, den)
    if 2 * pairing_numerator(rep, rep) % (den * den):
        raise RootSystemError("representative norm is not half-integral")
    gram = lattice.gram
    found = []
    for y in coset_points(lattice, cls, -floor2 * den * den // 2):
        for row in gram.entries:
            if sum(map(mul, row, y)) < 0:
                break
        else:
            found.append((2 * sum(map(mul, y, gram.mul_vec(y))) // (den * den), y))
    if not found:
        raise RootSystemError("empty constrained search")
    found.sort(key=lambda t: -t[0])
    return tuple(found)


@functools.cache
def coset_points(lattice: Lattice, cls: DiscClass, bound: int) -> tuple[tuple[int, ...], ...]:
    """Every numerator y of the class with y^T (-G) y <= bound, sorted: with
    num / den the class's component, y = num + den x for x integral, and the
    vector is y / den.  The Fincke-Pohst enumeration of the coset
    (``short_vectors``), memoized per (lattice, class, bound), so the class
    searches and the root lists of ``ns_glue`` share it.
    """
    return tuple(short_vectors(lattice.gram, bound, cls.component))
