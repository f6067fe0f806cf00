"""Sparse homogeneous polynomials in three variables over GF(2^k).

A polynomial is a map from exponent triples (l, m, n) with l+m+n = degree
to nonzero coefficients.  Formal partial derivatives keep only odd
exponents (the characteristic kills the rest), restriction to a line
produces a binary form in the two kept variables, and squares are
recognized monomial-wise since the Frobenius is bijective.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from ..frozen import Frozen
from .field import BinaryField


class PolyError(ValueError):
    pass


class HomPoly:
    """Homogeneous trivariate polynomial; immutable by convention."""

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field: BinaryField, degree: int, terms: Mapping[tuple[int, int, int], int]):
        clean: dict[tuple[int, int, int], int] = {}
        for exp, c in terms.items():
            l, m, n = exp
            if l < 0 or m < 0 or n < 0 or l + m + n != degree:
                raise PolyError(f"exponent triple {exp} does not sum to degree {degree}")
            c = field.check(c)
            if c:
                clean[(l, m, n)] = c
        self.field = field
        self.degree = degree
        self.terms = clean

    # -- construction helpers -----------------------------------------------

    @staticmethod
    def zero(field: BinaryField, degree: int) -> "HomPoly":
        return HomPoly(field, degree, {})

    @staticmethod
    def linear(field: BinaryField, coeffs: Sequence[int]) -> "HomPoly":
        a, b, c = coeffs
        return HomPoly(field, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: tuple[int, int, int]) -> int:
        return self.terms.get(exp, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.field == other.field
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        items = " + ".join(
            f"{format(c, 'x')}*x^{l}y^{m}z^{n}" for (l, m, n), c in sorted(self.terms.items())
        )
        return f"HomPoly({items or '0'})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.field != other.field or self.degree != other.degree:
            raise PolyError("sum of forms of different degree or field")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            r = terms.get(exp, 0) ^ c
            if r:
                terms[exp] = r
            else:
                terms.pop(exp, None)
        return HomPoly(self.field, self.degree, terms)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        if self.field != other.field:
            raise PolyError("product over different fields")
        f = self.field
        terms: dict[tuple[int, int, int], int] = {}
        for (l1, m1, n1), c1 in self.terms.items():
            for (l2, m2, n2), c2 in other.terms.items():
                exp = (l1 + l2, m1 + m2, n1 + n2)
                c = f.mul(c1, c2)
                r = terms.get(exp, 0) ^ c
                if r:
                    terms[exp] = r
                else:
                    terms.pop(exp, None)
        return HomPoly(f, self.degree + other.degree, terms)

    def scale(self, c: int) -> "HomPoly":
        f = self.field
        c = f.check(c)
        return HomPoly(f, self.degree, {e: f.mul(c, v) for e, v in self.terms.items()})

    def square(self) -> "HomPoly":
        f = self.field
        return HomPoly(
            f,
            2 * self.degree,
            {(2 * l, 2 * m, 2 * n): f.sqr(c) for (l, m, n), c in self.terms.items()},
        )

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, var: int) -> "HomPoly":
        """Formal derivative; even exponents vanish in characteristic 2."""
        terms: dict[tuple[int, int, int], int] = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e % 2 == 1:
                new = list(exp)
                new[var] = e - 1
                terms[tuple(new)] = c
        return HomPoly(self.field, max(self.degree - 1, 0), terms)

    def evaluate(self, point: Sequence[int]) -> int:
        f = self.field
        x, y, z = point
        acc = 0
        for (l, m, n), c in self.terms.items():
            acc ^= f.mul(f.mul(c, f.pow(x, l)), f.mul(f.pow(y, m), f.pow(z, n)))
        return acc

    def compose_linear(self, mat: Sequence[Sequence[int]]) -> "HomPoly":
        """Substitute x_i -> sum_j mat[i][j] * y_j."""
        f = self.field
        subs = [
            HomPoly(
                f,
                1,
                {(1, 0, 0): mat[i][0], (0, 1, 0): mat[i][1], (0, 0, 1): mat[i][2]},
            )
            for i in range(3)
        ]
        out = HomPoly.zero(f, self.degree)
        for (l, m, n), c in self.terms.items():
            t = HomPoly(f, 0, {(0, 0, 0): c})
            for var, e in ((0, l), (1, m), (2, n)):
                for _ in range(e):
                    t = t * subs[var]
            pad = self.degree - t.degree
            if pad:
                raise PolyError("composition changed the degree")
            out = out + t
        return out

    # -- division by a linear form ----------------------------------------------

    def divide_by_linear(self, ell: "HomPoly") -> "HomPoly":
        """Exact division by a nonzero linear form; raises if there is a remainder."""
        if ell.degree != 1 or ell.is_zero():
            raise PolyError("divisor must be a nonzero linear form")
        f = self.field
        var = max(v for v in (0, 1, 2) if ell.coeff(_unit(v)))
        lead = ell.coeff(_unit(var))
        lead_inv = f.inv(lead)
        rest = [(v, ell.coeff(_unit(v))) for v in (0, 1, 2) if v != var and ell.coeff(_unit(v))]
        remainder = {exp: c for exp, c in self.terms.items()}
        quotient: dict[tuple[int, int, int], int] = {}
        # peel monomials with the highest power of the leading variable first
        while remainder:
            exp = max(remainder, key=lambda e: (e[var], e))
            if exp[var] == 0:
                raise PolyError("linear form does not divide the polynomial")
            c = remainder.pop(exp)
            qc = f.mul(c, lead_inv)
            qexp = list(exp)
            qexp[var] -= 1
            quotient[tuple(qexp)] = quotient.get(tuple(qexp), 0) ^ qc
            for v, a in rest:
                nexp = list(qexp)
                nexp[v] += 1
                key = tuple(nexp)
                r = remainder.get(key, 0) ^ f.mul(qc, a)
                if r:
                    remainder[key] = r
                else:
                    remainder.pop(key, None)
        return HomPoly(f, self.degree - 1, {e: c for e, c in quotient.items() if c})

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "field": {"k": self.field.k, "modulus_bits": format(self.field.modulus, "b")},
            "degree": self.degree,
            "terms": [
                {"exp": list(exp), "coeff": format(c, "b")}
                for exp, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "HomPoly":
        """Inverse of ``to_json_obj``; a non-int field degree, degree or exponent,
        or a repeated triple, raises."""
        k = obj["field"]["k"]
        if type(k) is not int:
            raise PolyError(f"field degree {k!r} is not an integer")
        fld = BinaryField(k, int(obj["field"]["modulus_bits"], 2))
        degree = obj["degree"]
        if type(degree) is not int:
            raise PolyError(f"degree {degree!r} is not an integer")
        terms: dict[tuple[int, int, int], int] = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if any(type(n) is not int for n in exp):
                raise PolyError(f"exponent triple {list(exp)} is not of integers")
            if exp in terms:
                raise PolyError(f"exponent triple {list(exp)} is given twice")
            terms[exp] = int(t["coeff"], 2)
        return HomPoly(fld, degree, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "HomPoly":
        return HomPoly.from_json_obj(json.loads(text))


def _unit(var: int) -> tuple[int, int, int]:
    return tuple(1 if i == var else 0 for i in range(3))


# ---------------------------------------------------------------------------
# binary forms (restrictions to lines)
# ---------------------------------------------------------------------------

class BinForm(Frozen):
    """Homogeneous form in two variables; coeffs[i] multiplies u^(d-i) v^i.

    ``kept`` records which two of the original variables the parameters
    (u, v) stand for.
    """

    __slots__ = ("field", "degree", "coeffs", "kept")
    field: BinaryField
    degree: int
    coeffs: tuple[int, ...]
    kept: tuple[int, int]

    def __init__(self, field: BinaryField, degree: int, coeffs: tuple[int, ...], kept: tuple):
        if len(coeffs) != degree + 1:
            raise PolyError("coefficient list does not match the degree")
        super().__init__(field, degree, coeffs, kept)

    def is_square(self) -> "BinForm | None":
        f = self.field
        if self.degree % 2 != 0:
            return None
        half = self.degree // 2
        root = [0] * (half + 1)
        for i, c in enumerate(self.coeffs):
            if c and i % 2 != 0:
                return None
            if c:
                root[i // 2] = f.sqrt(c)
        return BinForm(f, half, tuple(root), self.kept)


def cubic_has_distinct_roots(form: BinForm) -> bool:
    """Separability of a binary cubic: the mod-2 discriminant is (ad + bc)^2."""
    if form.degree != 3:
        raise PolyError("separability test expects a cubic")
    a, b, c, d = form.coeffs
    f = form.field
    return f.mul(a, d) != f.mul(b, c)
