"""Lattices with explicit Gram matrices.

A lattice here is a free Z-module with a non-degenerate symmetric integer
bilinear form, given by its Gram matrix in a distinguished basis.  Dual
vectors are stored in that same basis as integers over one denominator,
in lowest terms, so the lattice itself is exactly the set of vectors of
denominator 1 and the dual consists of vectors pairing integrally with
the whole basis.  The class v + L of a dual vector in the discriminant
group is therefore v's coordinates mod 1 (``class_of``), and no diagonal
form of the Gram is built for it.  The pairings G v of a vector are one integer product
over its denominator, and u.v is the integer ``pairing_numerator(u, v)``
over den_u den_v; the Gram itself never becomes a rational matrix, and a
rational becomes a string only through ``ratio``.
"""

from __future__ import annotations

import functools
import math
from operator import mul
from typing import Sequence

from .exact_arith import (
    IntMatrix,
    det,
    echelon_mod_2,
    inertia,
    invert,
)
from .frozen import Frozen


class LatticeError(ValueError):
    pass


class Lattice(Frozen):
    # _dual_basis is set on first use
    __slots__ = ("gram", "_dual_basis")
    gram: IntMatrix

    def __init__(self, gram: IntMatrix):
        if det(gram) == 0:
            raise LatticeError("Gram matrix must be non-degenerate")
        object.__setattr__(self, "gram", gram)

    @property
    def rank(self) -> int:
        return self.gram.rows

    def det(self) -> int:
        """Determinant of the Gram, read off the elimination kept on it."""
        return det(self.gram)

    def inertia(self) -> tuple[int, int, int]:
        """Signature counts of the Gram, read off the elimination kept on it."""
        return inertia(self.gram)

    def zero(self) -> "DualVector":
        return DualVector(self, [0] * self.rank)

    def dual_basis_vector(self, j: int) -> "DualVector":
        """Column j of the inverse Gram; the Gram is inverted once per lattice."""
        cached = getattr(self, "_dual_basis", None)
        if cached is None:
            cached = invert(self.gram)
            object.__setattr__(self, "_dual_basis", cached)
        num, den = cached
        return DualVector(self, [row[j] for row in num.entries], den)


class DualVector(Frozen):
    """Element of L tensor Q in lattice coordinates: the integers num over den.

    The constructor puts the pair in lowest terms (den > 0 and
    gcd(*num, den) = 1), so equal vectors compare and hash equal and
    den = 1 means membership in L.
    """

    __slots__ = ("lattice", "num", "den", "_gnum")  # _gnum: G num, cached
    lattice: Lattice
    num: tuple[int, ...]
    den: int

    def __init__(self, lattice: Lattice, num: Sequence[int], den: int = 1):
        num = tuple(num)
        if len(num) != lattice.rank:
            raise LatticeError("coordinate length must equal the rank")
        if den == 0:
            raise LatticeError("zero denominator")
        g = math.gcd(den, *num) * (1 if den > 0 else -1)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __add__(self, other: "DualVector") -> "DualVector":
        self._same(other)
        d = math.lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return DualVector(self.lattice, [a * s + b * t for a, b in zip(self.num, other.num)], d)

    def _same(self, other: "DualVector") -> None:
        if self.lattice != other.lattice:
            raise LatticeError("vectors live in different lattices")

    def pairing_numerators(self) -> tuple[int, ...]:
        """G num, computed once: the pairings with the basis are G num / den."""
        cached = getattr(self, "_gnum", None)
        if cached is None:
            cached = tuple(self.lattice.gram.mul_vec(self.num))
            object.__setattr__(self, "_gnum", cached)
        return cached

    def integer_pairings(self) -> tuple[int, ...]:
        """G v as integers; raises unless v is a dual vector."""
        if not self.is_dual_vector():
            raise LatticeError("vector does not pair integrally with the lattice")
        return tuple(x // self.den for x in self.pairing_numerators())

    def is_dual_vector(self) -> bool:
        """True when the vector pairs integrally with every basis vector."""
        return all(x % self.den == 0 for x in self.pairing_numerators())


def pairing_numerator(u: DualVector, v: DualVector) -> int:
    """num_u . (G num_v): the bilinear form is u.v = this / (den_u den_v)."""
    u._same(v)
    return sum(map(mul, u.num, v.pairing_numerators()))


def ratio(n: int, d: int) -> str:
    """n / d in lowest terms, printed as str(fractions.Fraction(n, d)) prints it."""
    if d == 0:
        raise ZeroDivisionError(f"ratio({n}, 0)")
    g = math.gcd(n, d) * (1 if d > 0 else -1)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

# Lattices are immutable, so the fixed named lattices are built (and their
# determinants computed) once and shared.

@functools.cache
def lattice_A1() -> Lattice:
    """Rank-1 root lattice with Gram (-2)."""
    return Lattice(IntMatrix([[-2]]))


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
    return Lattice(gram)


@functools.cache
def lattice_hyperbolic2() -> Lattice:
    """Rank-1 lattice with Gram (2); carries a degree-2 polarization class."""
    return Lattice(IntMatrix([[2]]))


# ---------------------------------------------------------------------------
# parity and elementarity
# ---------------------------------------------------------------------------

def is_even(lattice: Lattice) -> bool:
    """Every vector has even self-intersection iff all Gram diagonal entries are even."""
    return all(lattice.gram.entries[i][i] % 2 == 0 for i in range(lattice.rank))


def elementary_factors(lattice: Lattice) -> list[int] | None:
    """The nontrivial invariant factors [2] * a of the Gram when the
    discriminant group is (Z/2)^a, and None when it is not.

    The rank of the Gram over F_2 counts its odd invariant factors, so the
    group is (Z/2)^a exactly when |det| = 2^a and the F_2 corank is a, and
    then the a even factors multiply to 2^a, so each is 2.
    """
    d = abs(lattice.det())
    a = d.bit_length() - 1
    if d == 1 << a and lattice.rank - len(echelon_mod_2(lattice.gram)) == a:
        return [2] * a
    return None


# ---------------------------------------------------------------------------
# discriminant classes
# ---------------------------------------------------------------------------

class DiscClass(Frozen):
    """The class v + L of a dual vector in the discriminant group L^dual / L.

    ``component`` is the pair (num, den) of v's coordinates reduced mod 1,
    in lowest terms: two dual vectors share a class exactly when their
    difference has denominator 1, so equal classes have equal components.
    """

    __slots__ = ("lattice", "component")
    lattice: Lattice
    component: tuple[tuple[int, ...], int]


def class_of(v: DualVector) -> DiscClass:
    """The discriminant class of a dual vector; raises unless v pairs integrally."""
    if not v.is_dual_vector():
        raise LatticeError("vector does not pair integrally with the lattice")
    r = DualVector(v.lattice, [c % v.den for c in v.num], v.den)
    return DiscClass(v.lattice, (r.num, r.den))
