import itertools
import json
import re
import random

import pytest

from k3lat.char2_surfaces.field import BinaryField, FieldError
from k3lat.char2_surfaces.poly import BinForm, HomPoly, PolyError, cubic_has_distinct_roots
from k3lat.char2_surfaces.surfaces import (
    restrict_to_line,
    schroeer_sextic,
)
from surface_oracles import compose_linear as oracle_compose, evaluate


# vanishing orders of binary forms, used as oracles here and in
# test_char2_surfaces.py


def form_value(form: BinForm, u: int, v: int) -> int:
    """The form at (u, v): coeffs[i] multiplies u^(d-i) v^i."""
    f = form.field
    acc = 0
    for i, c in enumerate(form.coeffs):
        acc ^= f.mul(c, f.mul(f.pow(u, form.degree - i), f.pow(v, i)))
    return acc


def multiplicity_at(form: BinForm, u0: int, v0: int) -> int:
    """Vanishing order of the form at the parameter point (u0 : v0)."""
    if u0 == 0 and v0 == 0:
        raise PolyError("(0:0) is not a projective point")
    cur = form
    mult = 0
    while any(cur.coeffs) and form_value(cur, u0, v0) == 0 and cur.degree > 0:
        cur = _divide_linear(cur, v0, u0)
        mult += 1
    if not any(cur.coeffs):
        raise PolyError("form vanishes identically")
    return mult


def _divide_linear(form: BinForm, a: int, b: int) -> BinForm:
    """Exact division by a*u + b*v."""
    f = form.field
    d = form.degree
    out = [0] * d
    rem = list(form.coeffs)
    if a != 0:
        ainv = f.inv(a)
        # divide treating u as the leading variable
        for i in range(d):
            q = f.mul(rem[i], ainv)
            out[i] = q
            rem[i + 1] ^= f.mul(q, b)
            rem[i] = 0
        if rem[d] != 0:
            raise PolyError("linear form does not divide")
    else:
        binv = f.inv(b)
        for i in range(d, 0, -1):
            q = f.mul(rem[i], binv)
            out[i - 1] = q
            rem[i] = 0
        if rem[0] != 0:
            raise PolyError("linear form does not divide")
    return BinForm(f, d - 1, tuple(out), form.kept)


def test_term_validation(gf16):
    obj = schroeer_sextic(gf16, 3, 5).to_json_obj()
    with pytest.raises(PolyError, match=r"^exponent triple \(1, 2, 2\) does not sum to degree 6$"):
        HomPoly.from_json_obj({**obj, "terms": [{"exp": [1, 2, 2], "coeff": "1"}]})
    with pytest.raises(PolyError, match=r"^exponent triple \(-1, 4, 3\) has a negative exponent$"):
        HomPoly.from_json_obj({**obj, "terms": [{"exp": [-1, 4, 3], "coeff": "1"}]})
    p = HomPoly(gf16, 2, {(2, 0, 0): 1, (0, 1, 1): 0})
    assert p.terms == {(2, 0, 0): 1}


def test_add_mul_degree(gf16):
    x2 = HomPoly(gf16, 2, {(2, 0, 0): 1})
    yz = HomPoly(gf16, 2, {(0, 1, 1): 1})
    s = x2 + yz
    assert s.degree == 2 and len(s.terms) == 2
    prod = s * s
    assert prod.degree == 4
    # char 2: cross terms cancel in the square
    assert prod.terms == {(4, 0, 0): 1, (0, 2, 2): 1}
    # the constructor drops the terms that cancel
    assert (s + s).terms == {}
    assert 0 not in prod.terms.values()
    assert s.square() == prod
    with pytest.raises(PolyError, match=r"^sum of forms of different degree or field$"):
        s + HomPoly(gf16, 1, {(1, 0, 0): 1})
    with pytest.raises(PolyError, match=r"^sum of forms of different degree or field$"):
        s + HomPoly(BinaryField(8), 2, {(2, 0, 0): 1})
    with pytest.raises(PolyError, match=r"^product over different fields$"):
        s * HomPoly(BinaryField(8), 2, {(2, 0, 0): 1})


def test_form_repr_lists_terms_in_exponent_order_with_hex_coefficients(gf16):
    form = HomPoly(gf16, 2, {(2, 0, 0): 1, (0, 1, 1): 0xA})
    assert repr(form) == "HomPoly(a*x^0y^1z^1 + 1*x^2y^0z^0)"
    assert repr(HomPoly(gf16, 3, {})) == "HomPoly(0)"


def test_partial_derivatives(gf16):
    g = HomPoly(gf16, 6, {(6, 0, 0): 1, (1, 5, 0): 1})
    dx = g.partial(0)
    # x^6 dies (even exponent), x*y^5 keeps its unit coefficient
    assert dx.terms == {(0, 5, 0): 1}
    dy = g.partial(1)
    assert dy.terms == {(1, 4, 0): 1}


def test_evaluate(gf16):
    g = HomPoly(gf16, 2, {(1, 1, 0): 3, (0, 0, 2): 1})
    f = gf16
    for x, y, z in [(1, 2, 3), (0, 7, 2)]:
        expected = f.mul(3, f.mul(x, y)) ^ f.sqr(z)
        assert evaluate(g, (x, y, z)) == expected


def test_restriction_kills_multiples(gf16):
    # the family sextic has x2 as a factor, so restricting to x2 = 0 gives zero
    g = schroeer_sextic(gf16, 1, 2)
    ell = (0, 0, 1)
    assert not any(restrict_to_line(g, ell).coeffs)
    # same for x0 = 0
    assert not any(restrict_to_line(g, (1, 0, 0)).coeffs)


def test_restriction_fork_line_both_parametrizations(gf16):
    f = gf16
    r, s = 3, 7
    g = schroeer_sextic(f, r, s)
    ell = (1, 0, r)  # x0 + r*x2 = 0

    # canonical: eliminate x2 = x0/r, kept variables (x0, x1)
    rho = restrict_to_line(g, ell)
    assert rho.kept == (0, 1)
    rinv = f.inv(r)
    expected = {}
    # (1/r) x0^2 x1^4 + (s^2/r^3) x0^4 x1^2
    expected[(2, 4)] = rinv
    expected[(4, 2)] = f.mul(f.sqr(s), f.pow(rinv, 3))
    for (iu, iv), c in expected.items():
        assert rho.coeffs[rho.degree - iu] == c

    # the other parametrization: substitute x0 = r*x2, kept variables (x1, x2)
    g0 = g.compose_linear([[0, 0, r], [0, 1, 0], [0, 0, 1]])
    # r*x1^4 x2^2 + r*s^2 x1^2 x2^4 = r x1^2 x2^2 (x1 + s x2)^2
    assert g0.terms == {(0, 4, 2): r, (0, 2, 4): f.mul(r, f.sqr(s))}
    # both are squares: every exponent of g0 is even
    assert rho.is_square() is not None
    assert all(e % 2 == 0 for exp in g0.terms for e in exp)


def test_restriction_diagonal_not_square(gf16):
    f = gf16
    s = 2  # outside GF(2)
    g = schroeer_sextic(f, 1, s)
    rho = restrict_to_line(g, (1, 1, 0))
    # (1 + s^2) u^3 v^3 in the kept variables (x0, x2)
    assert rho.kept == (0, 2)
    assert rho.coeffs[rho.degree - 3] == 1 ^ f.sqr(s)
    assert rho.is_square() is None


def compose_onto_line(g, l, e):
    """g with x_e = l_i*x_i + l_j*x_j substituted (l_e = 1), by the term-by-term oracle compose.

    The binary form's coefficient list: entry m multiplies x_i^(d-m) x_j^m.
    """
    f = g.field
    i, j = (v for v in range(3) if v != e)
    mat = [[int(r == c) for c in range(3)] for r in range(3)]
    mat[e] = [0 if c == e else l[c] for c in range(3)]
    coeffs = [0] * (g.degree + 1)
    for exp, c in oracle_compose(g, mat).terms.items():
        assert exp[e] == 0
        coeffs[exp[j]] = c
    return tuple(coeffs), (i, j)


def test_restriction_matches_composition_oracle(gf16):
    f = gf16
    rng = random.Random(12)
    for degree in (3, 6):
        for _ in range(40):
            g = HomPoly(
                f,
                degree,
                {(l, m, degree - l - m): rng.randrange(f.q) for l in range(degree + 1) for m in range(degree + 1 - l)},
            )
            l = tuple(rng.randrange(f.q) for _ in range(3))
            if not any(l):
                continue
            e = max(v for v in range(3) if l[v])
            normalized = tuple(f.mul(f.inv(l[e]), c) for c in l)
            rho = restrict_to_line(g, l)
            assert (rho.coeffs, rho.kept) == compose_onto_line(g, normalized, e)


def test_restriction_degree(gf16):
    g = schroeer_sextic(gf16, 1, 2)
    rho = restrict_to_line(g, (1, 2, 3))
    assert rho.degree == 6


def test_divide_by_linear_roundtrip(gf16):
    rng = random.Random(5)
    for _ in range(20):
        ell = [rng.randrange(16) for _ in range(3)]
        if not any(ell):
            continue
        q = HomPoly(
            gf16,
            5,
            {
                (l, m, 5 - l - m): rng.randrange(16)
                for l in range(6)
                for m in range(6 - l)
                if rng.random() < 0.3
            },
        )
        prod = HomPoly.linear(gf16, ell) * q
        if prod.is_zero():
            continue
        assert prod.divide_by_linear(ell) == q


@pytest.mark.parametrize(
    "ell,error,match",
    [
        ((0, 1, 0), PolyError, "does not divide"),
        ((0, 0, 0), PolyError, "nonzero linear form"),
        ((0, 1, 16), FieldError, "out of range"),
    ],
    ids=["nondivisor", "zero-triple", "outside-the-field"],
)
def test_divide_by_linear_rejects_nondivisor(gf16, ell, error, match):
    g = HomPoly(gf16, 6, {(6, 0, 0): 1})
    with pytest.raises(error, match=match):
        g.divide_by_linear(ell)


def test_compose_linear_identity_and_swap(gf16):
    g = schroeer_sextic(gf16, 3, 5)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert g.compose_linear(ident) == g
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    swapped = g.compose_linear(swap)
    assert swapped.terms == {(m, l, n): c for (l, m, n), c in g.terms.items()}


def test_poly_json_roundtrip(gf16):
    g = schroeer_sextic(gf16, 3, 5)
    text = json.dumps(g.to_json_obj(), sort_keys=True)
    again = HomPoly.from_json_obj(json.loads(text))
    assert again == g
    assert '"modulus_bits": "10011"' in text


@pytest.mark.parametrize("bits", ["1_1", "0b11", " 11 ", "+11", "11\n", "", "2", 3])
def test_poly_json_takes_plain_binary_digits_only(gf16, bits):
    obj = schroeer_sextic(gf16, 3, 5).to_json_obj()
    bad_coeff = {**obj, "terms": obj["terms"] + [{"exp": [0, 0, 6], "coeff": bits}]}
    bad_modulus = {**obj, "field": {"k": 4, "modulus_bits": bits}}
    for bad in (bad_coeff, bad_modulus):
        with pytest.raises(PolyError, match="is not a string of binary digits"):
            HomPoly.from_json_obj(bad)


@pytest.mark.parametrize("exp", [[1, 5], [6], [], [1, 2, 3, 0]])
def test_poly_json_names_a_term_without_three_exponents(gf16, exp):
    obj = schroeer_sextic(gf16, 3, 5).to_json_obj()
    term = {"exp": exp, "coeff": "1"}
    with pytest.raises(PolyError, match=re.escape(f"term {term!r} does not have three exponents")):
        HomPoly.from_json_obj({**obj, "terms": [term]})


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

def test_binform_square_detection(gf16):
    rho = BinForm(gf16, 6, (1, 0, 3, 0, 7, 0, 2), (0, 1))
    root = rho.is_square()
    assert root is not None
    f = gf16
    # squaring the root reproduces the even coefficients
    assert root.coeffs == (f.sqrt(1), f.sqrt(3), f.sqrt(7), f.sqrt(2))
    assert BinForm(gf16, 6, (0, 1, 0, 0, 0, 0, 0), (0, 1)).is_square() is None


def test_binform_multiplicity(gf16):
    f = gf16
    # (u + 2v)^2 * (u + 3v) has a double root at (2:1) and a simple one at (3:1)
    lin1 = BinForm(f, 1, (1, 2), (0, 1))
    lin2 = BinForm(f, 1, (1, 3), (0, 1))

    def mul(a, b):
        out = [0] * (a.degree + b.degree + 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                out[i + j] ^= f.mul(ca, cb)
        return BinForm(f, a.degree + b.degree, tuple(out), (0, 1))

    prod = mul(mul(lin1, lin1), lin2)
    assert multiplicity_at(prod, 2, 1) == 2
    assert multiplicity_at(prod, 3, 1) == 1
    assert multiplicity_at(prod, 5, 1) == 0


def _all_cubics(field):
    for coeffs in itertools.product(range(field.q), repeat=4):
        if any(coeffs):
            yield BinForm(field, 3, coeffs, (0, 1))


def _has_repeated_rational_double_root(form):
    """Oracle: a repeated root of a cubic over a perfect field is rational."""
    f = form.field
    points = [(1, 0)] + [(u, 1) for u in range(f.q)]
    return any(
        form_value(form, u, v) == 0 and multiplicity_at(form, u, v) >= 2 for u, v in points
    )


def test_cubic_separability_gf4_exhaustive():
    f = BinaryField(2)
    for form in _all_cubics(f):
        assert cubic_has_distinct_roots(f, *form.coeffs) == (not _has_repeated_rational_double_root(form))


def test_cubic_separability_gf16_sampled(gf16):
    rng = random.Random(9)
    for _ in range(400):
        coeffs = tuple(rng.randrange(16) for _ in range(4))
        if not any(coeffs):
            continue
        form = BinForm(gf16, 3, coeffs, (0, 1))
        assert cubic_has_distinct_roots(gf16, *coeffs) == (not _has_repeated_rational_double_root(form))
