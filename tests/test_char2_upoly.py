import random

import pytest

from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.upoly import (
    common_roots,
    frobenius_powers,
    interpolate,
    poly_eval,
    poly_quo,
    rational_roots_part,
    resultant,
    split_roots,
    trim,
)
from surface_oracles import scan_roots, sylvester_resultant

FIELDS = [(1, 0b11), (2, None), (4, None), (8, None)]
FIELD_IDS = ["k1", "k2", "k4", "k8"]


def _random_of_degree(f, rng, d):
    return [rng.randrange(f.q) for _ in range(d)] + [rng.randrange(1, f.q)] if d >= 0 else []


def _product(f, factors):
    out = [1]
    for p in factors:
        nxt = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                nxt[i + j] ^= f.mul(a, b)
        out = nxt
    return trim(out)


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_resultant_matches_sylvester_with_formal_degree_drops(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"resultant/{k}")
    zero = nonzero = drops = 0
    for _ in range(400):
        da, db = rng.randrange(6), rng.randrange(6)
        # true degrees at or below the formal ones (-1 is the zero polynomial)
        ta, tb = rng.randrange(-1, da + 1), rng.randrange(-1, db + 1)
        a, b = _random_of_degree(f, rng, ta), _random_of_degree(f, rng, tb)
        if ta > 0 and tb > 0 and rng.random() < 0.3:  # a shared root: the resultant vanishes
            t = [rng.randrange(f.q), 1]
            a = _product(f, [_random_of_degree(f, rng, ta - 1), t])
            b = _product(f, [_random_of_degree(f, rng, tb - 1), t])
        drops += ta < da or tb < db
        expected = sylvester_resultant(f, a, b, da, db)
        assert resultant(f, a, b, da, db) == expected, (a, b, da, db)
        zero += expected == 0
        nonzero += expected != 0
    assert drops >= 200 and zero >= 50 and (nonzero >= 50 or f.q == 2)


def test_resultant_with_one_formal_degree_zero_is_a_power():
    f = BinaryField(4)
    assert resultant(f, [7], [1, 2, 3], 0, 2) == f.pow(7, 2)
    assert resultant(f, [1, 2, 3], [7], 2, 0) == f.pow(7, 2)
    assert resultant(f, [], [1, 2, 3], 0, 2) == 0
    assert resultant(f, [], [], 0, 0) == 1


@pytest.mark.parametrize("k,modulus", FIELDS[1:], ids=FIELD_IDS[1:])
def test_interpolation_recovers_a_polynomial_from_its_values(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"interpolate/{k}")
    for _ in range(50):
        n = rng.randrange(1, min(f.q, 40) + 1)
        xs = rng.sample(range(f.q), n)
        p = trim([rng.randrange(f.q) for _ in range(rng.randrange(n + 1))])
        assert interpolate(f, xs, [poly_eval(f, p, x) for x in xs]) == p


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_split_roots_match_the_scan(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"split/{k}")
    for _ in range(60):
        roots = sorted(rng.sample(range(f.q), rng.randrange(min(f.q, 12) + 1)))
        h = _product(f, [[rng.randrange(1, f.q)]] + [[t, 1] for t in roots])
        assert split_roots(f, h, frobenius_powers(f, h)) == scan_roots(f, h) == roots


@pytest.mark.parametrize("k,modulus", FIELDS, ids=FIELD_IDS)
def test_common_roots_match_the_scan(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"common/{k}")
    for _ in range(60):
        # repeated roots and factors without roots around a shared part
        shared = [[rng.randrange(f.q), 1] for _ in range(rng.randrange(4))]
        polys = []
        for _ in range(rng.randrange(1, 4)):
            extra = [[rng.randrange(f.q) for _ in range(rng.randrange(1, 4))] + [1]]
            polys.append(_product(f, shared + shared[:1] + extra))
        expected = sorted(set.intersection(*(set(scan_roots(f, p)) for p in polys)))
        assert list(common_roots(f, polys)) == expected
    assert list(common_roots(f, [[], []])) == list(range(f.q))


def test_split_roots_refuses_a_factor_without_rational_roots():
    f = BinaryField(4)
    # t^2 + t + c has no root in GF(16) when c has trace 1; its rational part is a constant
    c = next(c for c in range(1, f.q) if not scan_roots(f, [c, 1, 1]))
    powers = frobenius_powers(f, [c, 1, 1])
    assert len(rational_roots_part(f, [c, 1, 1], powers)) == 1
    assert list(common_roots(f, [[c, 1, 1]])) == []
    with pytest.raises(ValueError, match="distinct rational linear factors"):
        split_roots(f, [c, 1, 1], powers)


def test_exact_quotient_and_its_refusal():
    f = BinaryField(8)
    a, b = [3, 0, 7, 1], [5, 1]
    assert poly_quo(f, _product(f, [a, b]), b) == a
    with pytest.raises(ValueError, match="inexact"):
        poly_quo(f, _product(f, [a, b]), [6, 1])
