"""Lattices with explicit Gram matrices and labeled bases.

A lattice here is a free Z-module with a non-degenerate symmetric integer
bilinear form, given by its Gram matrix in a distinguished basis.  Dual
vectors are stored as rational coordinate vectors in that same basis, so
the lattice itself is exactly the set of integer-coordinate vectors and
the dual consists of vectors pairing integrally with the whole basis.
The pairings G v of a vector are computed once, in integers over the
common denominator of its coordinates; the Gram itself never becomes a
rational matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_arith import (
    IntMatrix,
    det,
    inertia,
    invert,
    kernel_basis,
    snf,
)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    gram: IntMatrix
    labels: tuple[str, ...]

    def __init__(self, gram: IntMatrix, labels: Sequence[str] | None = None):
        if not gram.is_symmetric():
            raise LatticeError("Gram matrix must be symmetric")
        d = det(gram)
        if d == 0:
            raise LatticeError("Gram matrix must be non-degenerate")
        if labels is None:
            labels = tuple(f"e{i}" for i in range(gram.rows))
        labels = tuple(labels)
        if len(labels) != gram.rows:
            raise LatticeError("label count must equal the rank")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_det", d)

    @property
    def rank(self) -> int:
        return self.gram.rows

    def det(self) -> int:
        """Determinant of the Gram, computed once by the constructor."""
        return self._det

    def inertia(self) -> tuple[int, int, int]:
        """Signature counts of the Gram, computed once per lattice."""
        cached = getattr(self, "_inertia", None)
        if cached is None:
            cached = inertia(self.gram)
            object.__setattr__(self, "_inertia", cached)
        return cached

    def is_negative_definite(self) -> bool:
        return self.inertia() == (0, self.rank, 0)

    def basis_vector(self, i: int) -> "DualVector":
        coords = [Fraction(0)] * self.rank
        coords[i] = Fraction(1)
        return DualVector(self, tuple(coords))

    def zero(self) -> "DualVector":
        return DualVector(self, tuple(Fraction(0) for _ in range(self.rank)))

    def vector(self, coords: Sequence) -> "DualVector":
        return DualVector(self, tuple(Fraction(c) for c in coords))

    def dual_basis_vector(self, j: int) -> "DualVector":
        """Column j of the inverse Gram; the Gram is inverted once per lattice."""
        cached = getattr(self, "_dual_basis", None)
        if cached is None:
            cached = invert(self.gram)
            object.__setattr__(self, "_dual_basis", cached)
        return DualVector(self, tuple(row[j] for row in cached.entries))


@dataclass(frozen=True)
class DualVector:
    """Element of L tensor Q in lattice coordinates; integral coords mean membership in L."""

    lattice: Lattice
    coords: tuple[Fraction, ...]

    def __init__(self, lattice: Lattice, coords: Sequence):
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(coords) != lattice.rank:
            raise LatticeError("coordinate length must equal the rank")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "DualVector") -> "DualVector":
        self._same(other)
        return DualVector(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DualVector") -> "DualVector":
        self._same(other)
        return DualVector(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DualVector":
        return DualVector(self.lattice, tuple(-a for a in self.coords))

    def _same(self, other: "DualVector") -> None:
        if self.lattice != other.lattice:
            raise LatticeError("vectors live in different lattices")

    def is_lattice_vector(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def pair_with_basis(self) -> tuple[Fraction, ...]:
        """G v: the pairings of v with the basis vectors, computed once.

        With d the lcm of the coordinate denominators, G v = G (d v) / d:
        one integer product and one Fraction per entry.
        """
        cached = getattr(self, "_gv", None)
        if cached is None:
            d = math.lcm(*(c.denominator for c in self.coords))
            dv = [c.numerator * (d // c.denominator) for c in self.coords]
            cached = tuple(Fraction(x, d) for x in self.lattice.gram.mul_vec(dv))
            object.__setattr__(self, "_gv", cached)
        return cached

    def is_dual_vector(self) -> bool:
        """True when the vector pairs integrally with every basis vector."""
        return all(x.denominator == 1 for x in self.pair_with_basis())

    def norm(self) -> Fraction:
        return pairing(self, self)


def pairing(u: DualVector, v: DualVector) -> Fraction:
    """Bilinear form extended to the dual: u^T * Gram * v, exact."""
    u._same(v)
    return sum((a * b for a, b in zip(u.coords, v.pair_with_basis())), Fraction(0))


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

# Lattices are immutable, so the fixed named lattices are built (and their
# determinants computed) once and shared.

@functools.cache
def lattice_A1() -> Lattice:
    """Rank-1 root lattice with Gram (-2)."""
    return Lattice(IntMatrix([[-2]]), ("a",))


@functools.cache
def lattice_D4() -> Lattice:
    """Rank-4 root lattice of the four-node fork diagram (center d3)."""
    gram = IntMatrix(
        [
            [-2, 0, 1, 0],
            [0, -2, 1, 0],
            [1, 1, -2, 1],
            [0, 0, 1, -2],
        ]
    )
    return Lattice(gram, ("d1", "d2", "d3", "d4"))


def lattice_hyperbolic2() -> Lattice:
    """Rank-1 lattice with Gram (2); carries a degree-2 polarization class."""
    return Lattice(IntMatrix([[2]]), ("h",))


# ---------------------------------------------------------------------------
# parity and elementarity
# ---------------------------------------------------------------------------

def is_even(lattice: Lattice) -> bool:
    """Every vector has even self-intersection iff all Gram diagonal entries are even."""
    return all(lattice.gram.entries[i][i] % 2 == 0 for i in range(lattice.rank))


def is_p_elementary(lattice: Lattice, p: int) -> bool:
    """True when the discriminant group is annihilated by the prime p."""
    return all(f in (1, p) for f in discriminant_group(lattice).invariant_factors)


# ---------------------------------------------------------------------------
# discriminant group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quotient (dual lattice)/(lattice), with explicit generators.

    ``generators[i]`` is a dual vector whose class has order
    ``invariant_factors[i]``; factors equal to 1 are kept (with zero
    generators dropped) so classes are tuples over the full factor list.
    """

    lattice: Lattice
    invariant_factors: tuple[int, ...]
    generators: tuple[DualVector, ...]
    _u: IntMatrix

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def class_of(self, v: DualVector) -> "DiscClass":
        if v.lattice != self.lattice:
            raise LatticeError("vector lives in a different lattice")
        gv = v.pair_with_basis()
        if any(x.denominator != 1 for x in gv):
            raise LatticeError("vector does not pair integrally with the lattice")
        y = self._u.mul_vec([int(x) for x in gv])
        comp = tuple(y[i] % f for i, f in enumerate(self.invariant_factors))
        return DiscClass(self, comp)

    def zero_class(self) -> "DiscClass":
        return DiscClass(self, tuple(0 for _ in self.invariant_factors))


@dataclass(frozen=True)
class DiscClass:
    group: DiscriminantGroup
    component: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.component)

    def __add__(self, other: "DiscClass") -> "DiscClass":
        if self.group.lattice != other.group.lattice:
            raise LatticeError("classes from different groups")
        return DiscClass(
            self.group,
            tuple(
                (a + b) % f
                for a, b, f in zip(self.component, other.component, self.group.invariant_factors)
            ),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscClass)
            and self.group.lattice == other.group.lattice
            and self.component == other.component
        )

    def __hash__(self):
        return hash((self.group.lattice, self.component))


_DISC_CACHE: dict[tuple, DiscriminantGroup] = {}


def discriminant_group(lattice: Lattice) -> DiscriminantGroup:
    """Invariant factors and generating dual vectors of the discriminant group.

    With U*G*V = S, the class of a dual vector v is U*(G v) reduced modulo
    the invariant factors, and the generator for factor d_i > 1 is the
    column of G^{-1} U^{-1} = V S^{-1} at position i, i.e. column i of V
    divided by d_i.  Results are memoized per Gram matrix and label tuple.
    """
    key = (lattice.gram.entries, lattice.labels)
    cached = _DISC_CACHE.get(key)
    if cached is not None:
        return cached
    g = lattice.gram
    r = snf(g)
    factors = r.invariant_factors
    gens = [
        DualVector(lattice, tuple(Fraction(row[i], f) for row in r.v.entries))
        for i, f in enumerate(factors)
        if f > 1
    ]
    grp = DiscriminantGroup(lattice, factors, tuple(gens), r.u)
    if grp.order != abs(lattice.det()):
        raise LatticeError("discriminant group order mismatch")
    for gen in gens:
        if not gen.is_dual_vector():
            raise LatticeError("discriminant generator does not pair integrally")
    _DISC_CACHE[key] = grp
    return grp


# ---------------------------------------------------------------------------
# orthogonal complements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sublattice:
    """A primitive sublattice presented by its own Gram plus an embedding.

    ``basis_in_ambient`` rows are the coordinates of the sublattice basis in
    the ambient lattice basis.
    """

    lattice: Lattice
    ambient: Lattice
    basis_in_ambient: IntMatrix

    def to_ambient(self, v: DualVector) -> DualVector:
        if v.lattice != self.lattice:
            raise LatticeError("vector not in the sublattice")
        n = self.ambient.rank
        coords = [Fraction(0)] * n
        for i, c in enumerate(v.coords):
            for j in range(n):
                coords[j] += c * self.basis_in_ambient.entries[i][j]
        return DualVector(self.ambient, tuple(coords))


def orthogonal_complement(lattice: Lattice, v: DualVector) -> Sublattice:
    """Saturated orthogonal complement of a lattice vector with v*v != 0."""
    if v.lattice != lattice:
        raise LatticeError("vector lives in a different lattice")
    if not v.is_lattice_vector():
        raise LatticeError("complement requires a lattice vector")
    if v.norm() == 0:
        raise LatticeError("complement requires a vector of nonzero norm")
    gv = [int(x) for x in v.pair_with_basis()]
    basis = kernel_basis(IntMatrix([gv]))
    b = IntMatrix(basis)
    gram = b.mul(lattice.gram).mul(b.transpose())
    labels = tuple(f"c{i}" for i in range(len(basis)))
    return Sublattice(Lattice(gram, labels), lattice, b)
