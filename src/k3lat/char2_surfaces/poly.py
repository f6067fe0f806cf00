"""Sparse homogeneous polynomials in three variables over GF(2^k).

A polynomial is a map from exponent triples (l, m, n) with l+m+n = degree
to nonzero coefficients.  Formal partial derivatives keep only odd
exponents (the characteristic kills the rest), restriction to a line
produces a binary form in the two kept variables, and squares are
recognized monomial-wise since the Frobenius is bijective.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..frozen import Frozen
from .field import BinaryField, is_digits


class PolyError(ValueError):
    pass


def _binary(text) -> int:
    """[01]+ as an integer; int(text, 2) would also take a sign, spaces, _ or 0b."""
    if type(text) is not str or not is_digits(text, 2):
        raise PolyError(f"{text!r} is not a string of binary digits")
    return int(text, 2)


class HomPoly:
    """Homogeneous trivariate polynomial; immutable by convention."""

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field: BinaryField, degree: int, terms: Mapping[tuple[int, int, int], int]):
        clean: dict[tuple[int, int, int], int] = {}
        q = field.q
        for exp, c in terms.items():
            l, m, n = exp
            if l < 0 or m < 0 or n < 0 or l + m + n != degree:
                raise PolyError(f"exponent triple {exp} does not sum to degree {degree}")
            if not 0 <= c < q:
                field.check(c)  # raises with the field's message
            if c:
                clean[(l, m, n)] = c
        self.field = field
        self.degree = degree
        self.terms = clean

    # -- construction helpers -----------------------------------------------

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
        antilog, log = f.exp, f.log
        right = [(e, log[c]) for e, c in other.terms.items()]
        terms: dict[tuple[int, int, int], int] = {}
        for (l1, m1, n1), c1 in self.terms.items():
            lc1 = log[c1]
            for (l2, m2, n2), lc2 in right:
                exp = (l1 + l2, m1 + m2, n1 + n2)
                r = terms.get(exp, 0) ^ antilog[lc1 + lc2]
                if r:
                    terms[exp] = r
                else:
                    del terms[exp]
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

    # -- calculus and substitution --------------------------------------------

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

    def compose_linear(self, mat: Sequence[Sequence[int]]) -> "HomPoly":
        """Substitute x_i -> sum_j mat[i][j] * y_j.

        The powers L_i^e (e <= degree) of the three substituted linear forms
        are built once, as (packed exponent, log of coefficient) lists, where
        the triple (a, b, c) packs to a*B^2 + b*B + c with B = degree + 1:
        two triples of total degree at most the degree add without a carry.
        The terms are grouped by their x0 exponent l, each group's sum of
        c * L1^m * L2^n is formed first and multiplied by L0^l once.
        """
        f = self.field
        antilog, log, m = f.exp, f.log, f.q - 1
        d = self.degree
        base = d + 1
        units = (base * base, base, 1)
        powers = []
        for row in mat:
            # L^e = L^(e-1) * L, with L's nonzero coefficients at packed unit exponents
            form = [(u, log[a]) for u, a in zip(units, row) if a]
            rows = [[(0, 0)]]
            for _ in range(d):
                nxt: dict[int, int] = {}
                for k1, lc1 in rows[-1]:
                    for k2, lc2 in form:
                        nxt[k1 + k2] = nxt.get(k1 + k2, 0) ^ antilog[lc1 + lc2]
                rows.append([(k, log[c]) for k, c in nxt.items() if c])
            powers.append(rows)
        pow0, pow1, pow2 = powers
        groups: dict[int, dict[int, int]] = {}
        for (l, e1, e2), c in self.terms.items():
            acc = groups.setdefault(l, {})
            lc = log[c]
            for k1, lc1 in pow1[e1]:
                lcc = lc + lc1
                if lcc >= m:
                    lcc -= m
                for k2, lc2 in pow2[e2]:
                    acc[k1 + k2] = acc.get(k1 + k2, 0) ^ antilog[lcc + lc2]
        out: dict[int, int] = {}
        for l, acc in groups.items():
            for k1, c1 in acc.items():
                if c1:
                    lc1 = log[c1]
                    for k2, lc2 in pow0[l]:
                        out[k1 + k2] = out.get(k1 + k2, 0) ^ antilog[lc1 + lc2]
        return HomPoly(
            f, d, {(k // units[0], k // base % base, k % base): c for k, c in out.items() if c}
        )

    # -- division by a linear form ----------------------------------------------

    def divide_by_linear(self, ell: Sequence[int]) -> "HomPoly":
        """Exact division by the linear form with coefficient triple ell; raises
        if the triple is zero or there is a remainder.

        Monomials are peeled level by level of the leading variable's power,
        highest first: a step on level e adds only to level e - 1, so each
        level is final when its turn comes, and a nonzero level 0 is the
        remainder.
        """
        f = self.field
        cf = [f.check(c) for c in ell]
        if not any(cf):
            raise PolyError("divisor must be a nonzero linear form")
        antilog, log, m = f.exp, f.log, f.q - 1
        var = max(v for v in (0, 1, 2) if cf[v])
        lead = m - log[cf[var]]
        rest = [(v, log[cf[v]]) for v in (0, 1, 2) if v != var and cf[v]]
        levels: list[dict[tuple[int, int, int], int]] = [{} for _ in range(self.degree + 1)]
        for exp, c in self.terms.items():
            levels[exp[var]][exp] = c
        quotient: dict[tuple[int, int, int], int] = {}
        for level in range(self.degree, 0, -1):
            below = levels[level - 1]
            for exp, c in levels[level].items():
                if not c:
                    continue
                lq = log[c] + lead
                if lq >= m:
                    lq -= m
                qexp = list(exp)
                qexp[var] -= 1
                quotient[tuple(qexp)] = antilog[lq]
                for v, la in rest:
                    nexp = list(qexp)
                    nexp[v] += 1
                    key = tuple(nexp)
                    below[key] = below.get(key, 0) ^ antilog[lq + la]
        if any(levels[0].values()):
            raise PolyError("linear form does not divide the polynomial")
        return HomPoly(f, self.degree - 1, quotient)

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
        a non-triple or repeated exponent, or a non-binary digit string raises."""
        k = obj["field"]["k"]
        if type(k) is not int:
            raise PolyError(f"field degree {k!r} is not an integer")
        fld = BinaryField(k, _binary(obj["field"]["modulus_bits"]))
        degree = obj["degree"]
        if type(degree) is not int:
            raise PolyError(f"degree {degree!r} is not an integer")
        terms: dict[tuple[int, int, int], int] = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if len(exp) != 3:
                raise PolyError(f"term {t!r} does not have three exponents")
            if any(type(n) is not int for n in exp):
                raise PolyError(f"exponent triple {list(exp)} is not of integers")
            if exp in terms:
                raise PolyError(f"exponent triple {list(exp)} is given twice")
            terms[exp] = _binary(t["coeff"])
        return HomPoly(fld, degree, terms)


# ---------------------------------------------------------------------------
# binary forms (restrictions to lines)
# ---------------------------------------------------------------------------

class BinForm(Frozen):
    """The restriction of a form to a line; coeffs[i] multiplies u^(d-i) v^i.

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


def cubic_has_distinct_roots(f: BinaryField, a: int, b: int, c: int, d: int) -> bool:
    """Separability of the binary cubic a u^3 + b u^2 v + c u v^2 + d v^3:
    the mod-2 discriminant is (ad + bc)^2."""
    return f.mul(a, d) != f.mul(b, c)
