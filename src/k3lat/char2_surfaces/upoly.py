"""Dense univariate polynomials over GF(2^k) for the pencil searches.

A polynomial is a list of coefficients, constant term first, with no
trailing zeros (zero is []).  Besides remainders and gcds the module finds
the rational roots of a polynomial without scanning GF(q): the gcd with
t^q + t keeps one linear factor per root, and Berlekamp's trace splitting
(the characteristic-2 case of Cantor-Zassenhaus) separates them: a factor
splits into its gcds with a trace polynomial T and with T + 1.  The
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
    """a(y) by Horner, adding log y to the log of the running value."""
    if not y:
        return a[0] if a else 0
    exp, log = f.exp, f.log
    ly = log[y]
    acc = 0
    for c in reversed(a):
        acc = (exp[log[acc] + ly] if acc else 0) ^ c
    return acc


def poly_rem(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    """Remainder of a modulo the nonzero b.

    The logs of b's nonzero coefficients are taken once.  Each step pops the
    leading coefficient, which the step cancels, reduces the log of its
    multiplier modulo q - 1 once and indexes the doubled antilog table for
    the rest of the row.
    """
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return a
    exp, log, m = f.exp, f.log, f.q - 1
    lead = m - log[b[db]]
    row = [(i, log[c]) for i, c in enumerate(b[:db]) if c]
    while len(a) > db:
        c = a.pop()
        if c:
            lc = log[c] + lead
            if lc >= m:
                lc -= m
            shift = len(a) - db
            for i, lb in row:
                a[shift + i] ^= exp[lc + lb]
        while a and not a[-1]:
            a.pop()
    return a


def poly_gcd(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b (not made monic); gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_rem(f, a, b)
    return a


def _square_mod(f: BinaryField, a: list[int], m: list[int]) -> list[int]:
    """a^2 mod m: the Frobenius squares each coefficient and doubles each exponent."""
    exp, log = f.exp, f.log
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        if c:
            sq[2 * i] = exp[2 * log[c]]
    return poly_rem(f, sq, m)


def frobenius_powers(f: BinaryField, a: list[int]) -> list[list[int]]:
    """t^(2^i) mod a for i = 0..k, by k squarings; entry k is t^q mod a.

    ``rational_roots_part`` reads t^q from the list and ``split_roots``
    reduces the first k entries, so one root search squares k times.
    """
    powers = [poly_rem(f, [0, 1], a)]
    for _ in range(f.k):
        powers.append(_square_mod(f, powers[-1], a))
    return powers


def rational_roots_part(f: BinaryField, a: list[int], powers: list[list[int]]) -> list[int]:
    """gcd(a, t^q + t): one linear factor for each distinct root of a in GF(q).

    ``powers`` is ``frobenius_powers(f, a)``.
    """
    r = powers[f.k] + [0] * (2 - len(powers[f.k]))
    r[1] ^= 1
    return poly_gcd(f, a, trim(r))


_NOT_SPLIT = "polynomial is not a product of distinct rational linear factors"


def split_roots(f: BinaryField, h: list[int], powers: list[list[int]]) -> list[int]:
    """The roots of h, ascending, where h is a product of distinct linear factors over GF(q).

    Berlekamp's trace splitting.  Tr(x) = x + x^2 + ... + x^(2^(k-1)) takes
    GF(q) onto GF(2), so with T = Tr(beta*t) the halves of a split of g are
    gcd(g, T), the roots r with Tr(beta*r) = 0, and gcd(g, T + 1), those
    with Tr(beta*r) = 1.  T is separable (its derivative is beta), so their
    degrees add up to deg g unless g has a repeated root, which raises.
    With beta running over the basis 1, alpha, ..., alpha^(k-1) of GF(q)
    over GF(2) (the field elements 1, 2, 4, ... in bit encoding) some beta
    separates any two distinct roots, because the trace form is
    nondegenerate.  Tr(beta*t) mod h is a combination of the k powers
    t^(2^i) mod h, which come from the caller: ``powers`` holds t^(2^i)
    modulo a multiple of h for i = 0..k - 1 (``frobenius_powers`` of it),
    and each is reduced modulo h once; a factor of degree 1 is read off
    directly.  Deterministic: O(k * deg^2) field operations for the
    reductions, O(k * deg + deg^2) for each of at most k rounds of splits.
    """
    if len(h) <= 2:
        return [f.div(h[0], h[1])] if len(h) == 2 else []
    exp, log, m = f.exp, f.log, f.q - 1
    # the nonzero coefficients of each power as (j, log), taken once for all rounds
    rows = [[(j, log[c]) for j, c in enumerate(poly_rem(f, p, h)) if c] for p in powers[: f.k]]
    roots: list[int] = []
    todo = [h]
    for i in range(f.k):
        # Tr(beta*t) = sum_j beta^(2^j) t^(2^j), reduced modulo h
        lbeta = log[1 << i]
        trace = [0] * (len(h) - 1)
        for row in rows:
            for j, lc in row:
                trace[j] ^= exp[lbeta + lc]
            lbeta = 2 * lbeta % m
        other = trim([trace[0] ^ 1] + trace[1:])  # Tr(beta*t) + 1
        trim(trace)
        pending = []
        for g in todo:
            d = poly_gcd(f, g, poly_rem(f, trace, g))
            parts = [g]
            if 1 < len(d) < len(g):
                parts = [d, poly_gcd(f, g, poly_rem(f, other, g))]
                if len(d) + len(parts[1]) != len(g) + 1:  # a repeated root
                    raise ValueError(_NOT_SPLIT)
            for part in parts:
                if len(part) == 2:
                    roots.append(f.div(part[0], part[1]))
                else:
                    pending.append(part)
        todo = pending
        if not todo:
            return sorted(roots)
    raise ValueError(_NOT_SPLIT)


def common_roots(f: BinaryField, polys: Iterable[list[int]]) -> Sequence[int]:
    """The t in GF(q) where every polynomial vanishes, ascending; all t when all are zero.

    The gcd of the polynomials (given lazily; the first constant gcd ends
    the search) is cut to its rational part by ``rational_roots_part``,
    which keeps one linear factor per root, and ``split_roots`` separates
    them; both read the same ``frobenius_powers`` of the gcd.
    """
    common: list[int] = []
    for a in polys:
        common = poly_gcd(f, common, a)
        if len(common) == 1:
            return []
    if not common:
        return range(f.q)
    if len(common) == 2:  # a linear gcd is its own rational part
        return [f.div(common[0], common[1])]
    powers = frobenius_powers(f, common)
    return split_roots(f, rational_roots_part(f, common, powers), powers)


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
    exp, log, m = f.exp, f.log, f.q - 1
    acc = 0  # the log of the accumulated product of leading-coefficient powers
    while True:
        if not da or not db:
            # a constant c of formal degree 0 against formal degree e gives c^e, and 0^0 = 1
            c, e = (a, db) if not da else (b, da)
            if not e:
                return exp[acc]
            return exp[(acc + log[c[0]] * e) % m] if c else 0
        if not a or not b:
            return 0
        ta, tb = len(a) - 1, len(b) - 1
        if ta < da:
            if tb < db:
                return 0
            acc = (acc + log[b[-1]] * (da - ta)) % m
            da = ta
        elif tb < db:
            acc = (acc + log[a[-1]] * (db - tb)) % m
            db = tb
        else:
            if da < db:
                a, b, da, db = b, a, db, da
            acc = (acc + log[b[-1]] * (da - db + 1)) % m
            a, b, da, db = b, poly_rem(f, a, b), db, db - 1


def interpolate(f: BinaryField, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The polynomial of degree < len(xs) taking the value ys[i] at xs[i] (distinct xs).

    Newton's divided differences, then the Newton form expanded by Horner,
    both on logs: a divided difference subtracts the log of its node gap,
    and each Horner row adds the log of its node.
    """
    exp, log, m = f.exp, f.log, f.q - 1
    n = len(xs)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            v = c[i] ^ c[i - 1]
            c[i] = exp[log[v] + m - log[xs[i] ^ xs[i - j]]] if v else 0
    out = [c[-1]] if n else []
    for i in range(n - 2, -1, -1):
        # out * (t + xs[i]) + c[i]
        x = xs[i]
        nxt = [0] + out
        if x:
            lx = log[x]
            for j, v in enumerate(out):
                if v:
                    nxt[j] ^= exp[log[v] + lx]
        nxt[0] ^= c[i]
        out = nxt
    return trim(out)
