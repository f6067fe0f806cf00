"""The log-domain GF(2^k) kernels against their one-``f.mul``-per-product oracles.

Seeded random inputs over GF(2), GF(4), GF(8), GF(16), GF(256) and
GF(2^16) (modulus 0x1002D), with zero coefficients, divisors of degree 0
and 1, and zero or singular substitutions.  A work counter pins that one
root search squares k times and that the trace splitting squares no more.
"""

import contextlib
import functools
import io
import random

import pytest

import surface_oracles as oracle
from k3lat import cli
from k3lat.char2_surfaces import surfaces, upoly
from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.poly import HomPoly, PolyError
from k3lat.char2_surfaces.surfaces import restrict_to_line
from k3lat.char2_surfaces.upoly import (
    frobenius_powers,
    interpolate,
    poly_eval,
    poly_quo,
    poly_rem,
    split_roots,
    trim,
)
from test_char2_poly import compose_onto_line

FIELDS = [(1, 0b11), (2, 0b111), (3, 0b1011), (4, 0b10011), (8, 0b100011011), (16, 0x1002D)]
FIELD_IDS = [f"k{k}" for k, _ in FIELDS]


@functools.cache
def _field(k, modulus):
    return BinaryField(k, modulus)


def _element(f, rng):
    """A field element, zero about a third of the time."""
    return 0 if rng.random() < 0.3 else rng.randrange(f.q)


def _poly(f, rng, degree):
    """A polynomial of the given degree (-1 for zero) with zeros among its lower coefficients."""
    if degree < 0:
        return []
    return [_element(f, rng) for _ in range(degree)] + [rng.randrange(1, f.q)]


def _form(f, rng, degree):
    terms = {
        (l, m, degree - l - m): _element(f, rng)
        for l in range(degree + 1)
        for m in range(degree + 1 - l)
        if rng.random() < 0.7
    }
    return HomPoly(f, degree, terms)


def _times(f, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= f.mul(x, y)
    return trim(out)


def _horner(f, a, y):
    acc = 0
    for c in reversed(a):
        acc = f.mul(acc, y) ^ c
    return acc


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_remainder_and_quotient_match_the_oracle(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"rem/{k}")
    for trial in range(150):
        b = _poly(f, rng, trial % 3 if trial < 60 else rng.randrange(7))  # degree 0 and 1 often
        a = _poly(f, rng, rng.randrange(-1, 13))
        if trial % 10 == 0:
            a = a + [0]  # an untrimmed dividend
        assert poly_rem(f, a, b) == oracle.poly_rem(f, a, b), (a, b)
        q = _poly(f, rng, rng.randrange(-1, 8))
        ab = _times(f, q, b)
        assert poly_quo(f, ab, b) == oracle.poly_quo(f, ab, b) == q
        if len(b) > 1 and ab:
            off = list(ab)
            off[0] ^= 1
            with pytest.raises(ValueError, match="inexact"):
                oracle.poly_quo(f, off, b)
            with pytest.raises(ValueError, match="inexact"):
                poly_quo(f, off, b)


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_evaluation_and_interpolation_match_the_oracle(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"eval/{k}")
    for _ in range(100):
        a = _poly(f, rng, rng.randrange(-1, 10))
        for y in (0, 1, rng.randrange(f.q)):
            assert poly_eval(f, a, y) == _horner(f, a, y)
    for _ in range(20):
        n = rng.randrange(1, min(f.q, 16) + 1)
        xs = rng.sample(range(f.q), n)
        p = _poly(f, rng, rng.randrange(-1, n))
        assert interpolate(f, xs, [_horner(f, p, x) for x in xs]) == p


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_split_roots_match_the_oracle_with_powers_of_a_multiple(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"split-oracle/{k}")
    for _ in range(25):
        roots = sorted(rng.sample(range(f.q), rng.randrange(min(f.q, 8) + 1)))
        h = _times(f, [rng.randrange(1, f.q)], [1])
        for t in roots:
            h = _times(f, h, [t, 1])
        assert oracle.split_roots(f, h) == roots
        assert split_roots(f, h, frobenius_powers(f, h)) == roots
        # the powers may be taken modulo any multiple of h
        multiple = _times(f, h, _poly(f, rng, rng.randrange(4)))
        assert split_roots(f, h, frobenius_powers(f, multiple)) == roots


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_compose_linear_matches_the_oracle(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"compose/{k}")
    for trial in range(30):
        g = _form(f, rng, rng.randrange(7))
        mat = [[_element(f, rng) for _ in range(3)] for _ in range(3)]
        if trial % 5 == 0:
            mat[rng.randrange(3)] = [0, 0, 0]  # a singular substitution
        assert g.compose_linear(mat) == oracle.compose_linear(g, mat), (g, mat)


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_products_and_linear_division_match_the_oracle(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"product/{k}")
    for _ in range(30):
        a, b = _form(f, rng, rng.randrange(5)), _form(f, rng, rng.randrange(4))
        assert (a * b).terms == oracle.product(f, a.terms, b.terms)
        ell = HomPoly.linear(f, [_element(f, rng) for _ in range(3)])
        if ell.is_zero():
            continue
        q = _form(f, rng, 5)
        assert (ell * q).divide_by_linear(ell) == q
        off = ell * q + HomPoly(f, 6, {(0, 0, 6): 1, (0, 6, 0): 1, (6, 0, 0): 1})
        with pytest.raises(PolyError, match="does not divide"):
            off.divide_by_linear(ell)


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_restriction_and_local_expansion_match_the_oracles(k, modulus):
    f = _field(k, modulus)
    rng = random.Random(f"restrict/{k}")
    for _ in range(20):
        g = _form(f, rng, 6)
        l = tuple(_element(f, rng) for _ in range(3))
        if not any(l):
            continue
        e = max(v for v in range(3) if l[v])
        normalized = tuple(f.div(c, l[e]) for c in l)
        rho = restrict_to_line(g, HomPoly.linear(f, l))
        assert (rho.coeffs, rho.kept) == compose_onto_line(g, normalized, e)
        p = tuple(_element(f, rng) for _ in range(3))
        if any(p):
            assert surfaces._local_expansion(g, p) == oracle.local_expansion(g, p)


def test_one_root_search_squares_k_times_and_split_roots_none(monkeypatch):
    # a work counter on the family case --k 8 --r 3 --s 5: every Frobenius
    # power comes from frobenius_powers, k squarings per root search, and the
    # trace splitting reduces those powers instead of squaring again
    counts = {"squarings": 0, "in_split_roots": 0, "searches": 0}
    inside = []
    square_mod, split, powers = upoly._square_mod, upoly.split_roots, upoly.frobenius_powers

    def counted_square_mod(*args):
        counts["squarings"] += 1
        counts["in_split_roots"] += bool(inside)
        return square_mod(*args)

    def counted_split_roots(*args):
        inside.append(True)
        try:
            return split(*args)
        finally:
            inside.pop()

    def counted_powers(*args):
        counts["searches"] += 1
        return powers(*args)

    monkeypatch.setattr(upoly, "_square_mod", counted_square_mod)
    monkeypatch.setattr(upoly, "split_roots", counted_split_roots)
    monkeypatch.setattr(upoly, "frobenius_powers", counted_powers)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["surface", "--k", "8", "--r", "3", "--s", "5"]) == 0
    assert counts["in_split_roots"] == 0
    assert counts["squarings"] == 8 * counts["searches"]
    assert counts["searches"] == 7
