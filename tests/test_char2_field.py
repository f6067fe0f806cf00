import random

import pytest

from k3lat.char2_surfaces.field import BinaryField, FieldError, _poly_mulmod
from surface_oracles import generator_tables


def test_shipped_moduli_build():
    for k in (2, 4, 8):
        f = BinaryField(k)
        assert f.q == 2**k


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        BinaryField(4, 0b10001)  # x^4 + 1 = (x+1)^4
    with pytest.raises(FieldError):
        BinaryField(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_negative_modulus_rejected():
    # -19 has the bit length of x^4 + x + 1, but trial division never ends on it
    with pytest.raises(FieldError, match="negative"):
        BinaryField(4, -19)


def test_custom_modulus():
    f = BinaryField(3, 0b1011)  # x^3 + x + 1
    assert f.q == 8
    with pytest.raises(FieldError):
        f.omega()  # 3 does not divide 7


def test_no_default_for_unshipped_degree():
    with pytest.raises(FieldError):
        BinaryField(6)


def test_omega_is_cube_root():
    for k in (2, 4, 8):
        f = BinaryField(k)
        w = f.omega()
        assert w != 1
        assert f.pow(w, 3) == 1
        # w solves t^2 + t + 1 = 0
        assert f.sqr(w) ^ w ^ 1 == 0


def test_omega_check_fires_on_a_corrupt_antilog_table():
    # the table entry at (q - 1) / 3 is the cube root; make it 1 in the first
    # copy of the doubled table, the one omega reads
    f = BinaryField(4)
    assert len(f.exp) == 2 * (f.q - 1)
    f.exp = list(f.exp)
    f.exp[(f.q - 1) // 3] = 1
    with pytest.raises(FieldError, match="cube-root construction failed"):
        f.omega()


@pytest.mark.parametrize("k,modulus", [(1, 0b11), (2, 0b111), (3, 0b1011), (4, 0b10011)])
def test_table_arithmetic_matches_shift_and_xor_exhaustively(k, modulus):
    # the doubled antilog table: products whose logs sum past q - 2 read its
    # upper half, and GF(2) has the table [1, 1]
    f = BinaryField(k, modulus)
    assert len(f.exp) == 2 * (f.q - 1) and f.exp[: f.q - 1] == f.exp[f.q - 1 :]
    times = lambda a, b: _poly_mulmod(a, b, modulus, k)
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == times(a, b)
            if b:
                assert times(f.div(a, b), b) == a
        assert f.sqr(a) == times(a, a)
        assert times(f.sqrt(a), f.sqrt(a)) == a
        if a:
            assert times(a, f.inv(a)) == 1
    with pytest.raises(FieldError, match="inversion of zero"):
        f.div(1, 0)


def _irreducible_moduli(k):
    for modulus in range(1 << k, 2 << k):
        try:
            yield BinaryField(k, modulus)
        except FieldError:
            continue


def test_generator_by_first_return_to_1_is_the_seen_table_search():
    # every irreducible modulus of degree at most 8, and 0x1002D at k = 16
    fields = [f for k in range(1, 9) for f in _irreducible_moduli(k)]
    assert [sum(f.k == k for f in fields) for k in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    for f in fields + [BinaryField(16, 0x1002D)]:
        assert (f.exp, f.log, f.exp[1]) == generator_tables(f.k, f.modulus), f


def test_sqrt_inverts_squaring_exhaustively():
    f = BinaryField(4)
    for a in range(f.q):
        assert f.sqrt(f.sqr(a)) == a
        assert f.sqr(f.sqrt(a)) == a


def test_inverse_exhaustively():
    f = BinaryField(4)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(FieldError):
        f.inv(0)


def test_field_axioms_sampled():
    f = BinaryField(8)
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_pow_laws():
    f = BinaryField(8)
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(1, f.q)
        i, j = rng.randrange(10), rng.randrange(10)
        assert f.mul(f.pow(a, i), f.pow(a, j)) == f.pow(a, i + j)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(FieldError, match=r"^inversion of zero$"):
        f.pow(0, -1)


def test_field_repr_names_degree_and_modulus():
    assert repr(BinaryField(4)) == "BinaryField(k=4, modulus=0b10011)"
    assert repr(BinaryField(16, 0x1002D)) == "BinaryField(k=16, modulus=0b10000000000101101)"


def test_parse_and_format_bits():
    assert BinaryField.parse_bits("1b") == 0x1B
    assert BinaryField.parse_bits("0x1b") == 0x1B
    assert BinaryField.parse_bits("0b11011") == 0b11011
    assert BinaryField.parse_bits("0X1B") == BinaryField.parse_bits("0B11011") == 0x1B
    # hex, 0x-hex and 0b-binary digits only: int() would take a sign, spaces
    # or underscores, and "0b" always starts binary digits, never hex ones
    for text in ("+1b", "1_b", " 1b", "1b\n", "-1", "0x", "0b", "", "0b12", "0x1g", "１"):
        with pytest.raises(FieldError, match="is not hex, 0x-hex or 0b-binary"):
            BinaryField.parse_bits(text)
