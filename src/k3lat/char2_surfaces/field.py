"""GF(2^k) arithmetic on bitmask-encoded polynomials.

Elements are Python ints holding the coefficient bits of a residue modulo a
fixed irreducible polynomial.  Multiplication runs on log/antilog tables:
``log[a]`` is the discrete logarithm of a nonzero a to the generator
``exp[1]``, and the antilog table ``exp`` is stored twice over, with
length 2(q - 1), so that ``exp[log[a] + log[b]]`` is the product of two
nonzero elements with no reduction modulo q - 1.  The polynomial kernels
in ``upoly``, ``poly`` and ``surfaces`` read both tables directly and add
logs in their inner loops.  Square roots are exact (the Frobenius is
bijective), and the shipped moduli are pinned per degree for reproducible
test vectors:

    k = 2:  x^2 + x + 1          (0b111)
    k = 4:  x^4 + x + 1          (0b10011)
    k = 8:  x^8 + x^4 + x^3 + x + 1   (0b100011011)
"""

from __future__ import annotations


class FieldError(ValueError):
    pass


DEFAULT_MODULI = {2: 0b111, 4: 0b10011, 8: 0b100011011}

_MAX_K = 16


def is_digits(text: str, base: int = 10) -> bool:
    """Whether text is a nonempty run of ASCII digits in base 2, 10 or 16: no
    sign, space or underscore, which int() would take."""
    return text != "" and set(text.lower()) <= set("0123456789abcdef"[:base])


def _poly_degree(a: int) -> int:
    return a.bit_length() - 1


def _poly_mulmod(a: int, b: int, modulus: int, k: int) -> int:
    out = 0
    top = 1 << k
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def _poly_mod(a: int, b: int) -> int:  # b != 0
    db = _poly_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _is_irreducible(modulus: int, k: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..k//2."""
    if _poly_degree(modulus) != k:
        return False
    for d in range(1, k // 2 + 1):
        for tail in range(1 << d):
            f = (1 << d) | tail
            if _poly_mod(modulus, f) == 0:
                return False
    return True


class BinaryField:
    """GF(2^k) with a fixed modulus and log/antilog multiplication tables."""

    __slots__ = ("k", "modulus", "q", "exp", "log")

    def __init__(self, k: int, modulus: int | None = None):
        if not 1 <= k <= _MAX_K:
            raise FieldError(f"extension degree must be in 1..{_MAX_K}")
        if modulus is None:
            if k not in DEFAULT_MODULI:
                raise FieldError(f"no default modulus shipped for k={k}; pass one explicitly")
            modulus = DEFAULT_MODULI[k]
        if modulus < 0:  # its bits never clear, so trial division would not end
            raise FieldError(f"modulus {modulus} is negative")
        if not _is_irreducible(modulus, k):
            raise FieldError(f"modulus {bin(modulus)} is not irreducible of degree {k}")
        self.k = k
        self.modulus = modulus
        self.q = 1 << k
        self._build_tables()

    def _build_tables(self) -> None:
        q = self.q
        for g in range(1, q):
            # the modulus is irreducible, so the nonzero residues are a cyclic
            # group, which has a generator, and the powers of g first repeat
            # at 1, after as many steps as the order of g: it generates when
            # that is q - 1 (g = 1 only when q = 2)
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = _poly_mulmod(x, g, self.modulus, self.k)
            if len(exp) == q - 1:
                log = [0] * q
                for i, v in enumerate(exp):
                    log[v] = i
                self.exp = exp + exp
                self.log = log
                return

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryField) and self.k == other.k and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.k, self.modulus))

    def __repr__(self):
        return f"BinaryField(k={self.k}, modulus={bin(self.modulus)})"

    # raw int operations ----------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise FieldError(f"element {a} out of range for GF(2^{self.k})")
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self.log
        return self.exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise FieldError("inversion of zero")
        if a == 0:
            return 0
        log = self.log
        return self.exp[log[a] + self.q - 1 - log[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("inversion of zero")
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def sqr(self, a: int) -> int:
        return self.exp[2 * self.log[a]] if a else 0

    def sqrt(self, a: int) -> int:
        """The unique square root: a^(2^(k-1))."""
        return self.pow(a, 1 << (self.k - 1))

    def omega(self) -> int:
        """A fixed cube root of unity other than 1; needs 3 | 2^k - 1 (k even)."""
        if (self.q - 1) % 3 != 0:
            raise FieldError(f"GF(2^{self.k}) has no primitive third root of unity")
        w = self.exp[(self.q - 1) // 3]
        if self.pow(w, 3) != 1 or w == 1:
            raise FieldError("cube-root construction failed")
        return w

    @staticmethod
    def parse_bits(text: str) -> int:
        """Accepts plain hex ('1b'), 0x-hex or 0b-binary digits and nothing
        else (``is_digits``)."""
        t = text.lower()
        base, digits = {"0x": (16, t[2:]), "0b": (2, t[2:])}.get(t[:2], (16, t))
        if not is_digits(digits, base):
            raise FieldError(f"{text!r} is not hex, 0x-hex or 0b-binary")
        return int(digits, base)
