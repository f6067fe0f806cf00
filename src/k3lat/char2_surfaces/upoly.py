"""Dense univariate polynomials over GF(2^k) for the pencil searches.

A polynomial is a list of coefficients, constant term first, with no
trailing zeros (zero is []).  Besides remainders and gcds the module finds
the rational roots of a polynomial without scanning GF(q): the gcd with
t^q + t keeps one linear factor per root, and Berlekamp's trace splitting
(the characteristic-2 case of Cantor-Zassenhaus) separates them.  The
resultant and Newton interpolation serve elimination: a resultant of two
bivariate polynomials is evaluated at enough points and interpolated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import BinaryField


def trim(a: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place."""
    while a and not a[-1]:
        a.pop()
    return a


def poly_eval(f: BinaryField, a: list[int], y: int) -> int:
    """a(y) by Horner."""
    mul = f.mul
    acc = 0
    for c in reversed(a):
        acc = mul(acc, y) ^ c
    return acc


def poly_rem(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    """Remainder of a modulo the nonzero b."""
    a = list(a)
    mul = f.mul
    inv = f.inv(b[-1])
    db = len(b) - 1
    while len(a) > db:
        c = mul(a[-1], inv)
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] ^= mul(c, bc)
        trim(a)
    return a


def poly_quo(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    """The quotient of a by the nonzero b, which must divide it exactly."""
    a = list(a)
    mul = f.mul
    inv = f.inv(b[-1])
    db = len(b) - 1
    out = [0] * max(len(a) - db, 0)
    for shift in range(len(out) - 1, -1, -1):
        c = mul(a[shift + db], inv)
        out[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] ^= mul(c, bc)
    if any(a):
        raise ValueError("inexact polynomial division")
    return out


def poly_gcd(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b (not made monic); gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_rem(f, a, b)
    return a


def _square_mod(f: BinaryField, a: list[int], m: list[int]) -> list[int]:
    """a^2 mod m: the Frobenius squares each coefficient and doubles each exponent."""
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        sq[2 * i] = f.sqr(c)
    return poly_rem(f, sq, m)


def rational_roots_part(f: BinaryField, a: list[int]) -> list[int]:
    """gcd(a, y^q + y): one linear factor for each distinct root of a in GF(q)."""
    r = poly_rem(f, [0, 1], a)
    for _ in range(f.k):  # y^q mod a by k squarings
        r = _square_mod(f, r, a)
    r += [0] * (2 - len(r))
    r[1] ^= 1
    return poly_gcd(f, a, trim(r))


def split_roots(f: BinaryField, h: list[int]) -> list[int]:
    """The roots of h, ascending, where h is a product of distinct linear factors over GF(q).

    Berlekamp's trace splitting.  Tr(x) = x + x^2 + ... + x^(2^(k-1)) takes
    GF(q) onto GF(2), so for each beta the factor gcd(g, Tr(beta*t) mod g)
    of g collects the roots r with Tr(beta*r) = 0.  With beta running over
    the basis 1, alpha, ..., alpha^(k-1) of GF(q) over GF(2) (the field
    elements 1, 2, 4, ... in bit encoding) some beta separates any two
    distinct roots, because the trace form is nondegenerate.  Tr(beta*t)
    mod h is a combination of the k powers t^(2^i) mod h, which are
    computed once; a factor of degree 1 is read off directly.  Deterministic:
    O(k * deg^2) field operations for the powers, O(k * deg + deg^2) for
    each of at most k rounds of splits.
    """
    if len(h) <= 2:
        return [f.div(h[0], h[1])] if len(h) == 2 else []
    mul = f.mul
    powers = [poly_rem(f, [0, 1], h)]
    for _ in range(f.k - 1):
        powers.append(_square_mod(f, powers[-1], h))
    roots: list[int] = []
    todo = [h]
    for i in range(f.k):
        # Tr(beta*t) = sum_j beta^(2^j) t^(2^j), reduced modulo h
        beta = 1 << i
        trace = [0] * (len(h) - 1)
        for p in powers:
            for j, c in enumerate(p):
                trace[j] ^= mul(beta, c)
            beta = f.sqr(beta)
        trim(trace)
        pending = []
        for g in todo:
            d = poly_gcd(f, g, poly_rem(f, trace, g))
            for part in [d, poly_quo(f, g, d)] if 1 < len(d) < len(g) else [g]:
                if len(part) == 2:
                    roots.append(f.div(part[0], part[1]))
                else:
                    pending.append(part)
        todo = pending
        if not todo:
            return sorted(roots)
    raise ValueError("polynomial is not a product of distinct rational linear factors")


def common_roots(f: BinaryField, polys: Iterable[list[int]]) -> Sequence[int]:
    """The t in GF(q) where every polynomial vanishes, ascending; all t when all are zero.

    The gcd of the polynomials (given lazily; the first constant gcd ends
    the search) is cut to its rational part by ``rational_roots_part``,
    which keeps one linear factor per root, and ``split_roots`` separates
    them.
    """
    common: list[int] = []
    for a in polys:
        common = poly_gcd(f, common, a)
        if len(common) == 1:
            return []
    if not common:
        return range(f.q)
    return split_roots(f, rational_roots_part(f, common))


def resultant(f: BinaryField, a: list[int], b: list[int], da: int, db: int) -> int:
    """Res(a, b), with a and b taken as polynomials of formal degrees da and db.

    The Sylvester determinant of size da + db, computed by a Euclid in which
    characteristic 2 drops every sign.  A formal degree above the true one
    (a leading coefficient that vanished on specialization) contributes a
    power of the other leading coefficient, and vanishes if both dropped:
    Res_{m,n}(a, b) = lc(b)^(m - deg a) * Res_{deg a, n}(a, b).  One division
    step a = Q*b + R, with R of formal degree deg b - 1, gives
    Res_{m,n}(a, b) = lc(b)^(m - n + 1) * Res_{n, n-1}(b, R).
    """
    mul, pow_ = f.mul, f.pow
    acc = 1
    while True:
        if not da:
            return mul(acc, pow_(a[0] if a else 0, db))
        if not db:
            return mul(acc, pow_(b[0] if b else 0, da))
        if not a or not b:
            return 0
        ta, tb = len(a) - 1, len(b) - 1
        if ta < da:
            if tb < db:
                return 0
            acc = mul(acc, pow_(b[-1], da - ta))
            da = ta
        elif tb < db:
            acc = mul(acc, pow_(a[-1], db - tb))
            db = tb
        else:
            if da < db:
                a, b, da, db = b, a, db, da
            acc = mul(acc, pow_(b[-1], da - db + 1))
            a, b, da, db = b, poly_rem(f, a, b), db, db - 1


def interpolate(f: BinaryField, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The polynomial of degree < len(xs) taking the value ys[i] at xs[i] (distinct xs).

    Newton's divided differences, then the Newton form expanded by Horner.
    """
    mul, div = f.mul, f.div
    n = len(xs)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = div(c[i] ^ c[i - 1], xs[i] ^ xs[i - j])
    out = [c[-1]] if n else []
    for i in range(n - 2, -1, -1):
        # out * (t + xs[i]) + c[i]
        x = xs[i]
        nxt = [0] + out
        for j, v in enumerate(out):
            nxt[j] ^= mul(v, x)
        nxt[0] ^= c[i]
        out = nxt
    return trim(out)
