"""Replaced surface-side algorithms, kept as oracles for the tests.

The full line scan walked every one of the q + 1 pencils through the
points of x2 = 0; it now reads one elimination in the dual plane, which
walks only the b's a resultant selects.  The bound on non-reduced lines of
the separable covers w^2 + w*C + G, which no CLI command computes, lives
here only: C and G restricted to every line of the plane.  Singular points
were found one vertical line at a time, at every x of GF(q); they now come
from the same elimination.  Roots were found by scanning t = 0, 1, 2, ...
up to the largest one; they are now split by traces.  The resultant that
drives the elimination is checked against the Sylvester determinant it
stands for.

The polynomial kernels now add logs over the field's doubled antilog
table.  Their earlier forms, one ``f.mul`` per product, stay here: a
substitution built term by term from sparse products, the
remainder and exact quotient, the trace splitting that squares its own
Frobenius powers, and the local expansion with two ``f.pow`` per term pair.
A form is evaluated at a point term by term, one ``f.pow`` per exponent
(``evaluate``); the program reads the one value it needs, a partial's at
(1, 0, 0), off the partial's x0 power coefficient.

The five standard lines of a family member were written out by hand, and
recognition labeled the nine points by rules of its own; both are now read
off the rows of the configuration table.

Recognition ran a cascade of coefficient checks on the square-reduced
form (no monomial off xyz, a != 0, three transversality zeros, the fork
and unit-point relations, b = c = 0 and a = d) before it compared the form
with a*N(t); the comparison alone rejects everything the cascade did.

The field's generator search marked each power of a candidate in a table
of the elements seen so far and stopped at the first repeat; the field
now stops at the first return to 1, which is the first repeat when the
modulus is irreducible.
"""

import functools

from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import RecognitionError, apply_frame, normal_form_sextic
from k3lat.char2_surfaces.surfaces import (
    _odd_binomials,
    _restrict_to_pencil,
    intersect_lines,
    is_splitting,
    normalize_line,
    normalize_point,
    point_on_line,
    restrict_to_line,
)
from k3lat.char2_surfaces.upoly import common_roots, poly_eval, trim


def all_lines(field):
    """Every line of PG(2, q), normalized, in coordinate order."""
    q = field.q
    for b in range(q):
        for c in range(q):
            yield (1, b, c)
    for c in range(q):
        yield (0, 1, c)
    yield (0, 0, 1)


def nonreduced_lines(c, g):
    """The non-reduced splitting lines of the separable cover w^2 + w*C + G, sorted.

    A line is of non-reduced type exactly when C restricts to zero on it and
    the restriction of G is a square; C and G are restricted to every line
    of the plane.
    """
    f = c.field
    out = []
    for l in all_lines(f):
        if not any(restrict_to_line(c, l).coeffs) and restrict_to_line(g, l).is_square() is not None:
            out.append(l)
    return sorted(out)


def evaluate(g, point):
    """The form g at the point (x, y, z), summed term by term."""
    f = g.field
    x, y, z = point
    acc = 0
    for (l, m, n), c in g.terms.items():
        acc ^= f.mul(f.mul(c, f.pow(x, l)), f.mul(f.pow(y, m), f.pow(z, n)))
    return acc


@functools.cache
def pencil_walk_lines(g):
    """The full scan's lines as they were found: every pencil through x2 = 0.

    Through (x, 1, 0) pass the lines (1, x, 0) + t*(0, 0, 1) and (0, 0, 1);
    through (1, 0, 0) pass (0, 1, 0) + t*(0, 0, 1) and (0, 0, 1).  On the
    lines a + t*b of a pencil the odd coefficients of the restriction are
    polynomials in t, and the lines that split are their common roots.
    Memoised per sextic (the field is part of a form's equality), so tests
    that compare against the same sextic walk it once.
    """
    f = g.field
    if g.degree % 2:
        return ()
    pencils = [((1, x, 0), (0, 0, 1)) for x in range(f.q)] + [((0, 1, 0), (0, 0, 1))]
    found = set()
    for a, b in pencils:
        for t in common_roots(f, _restrict_to_pencil(g, a, b)[1::2]):
            found.add(tuple(ai ^ f.mul(t, bi) for ai, bi in zip(a, b)))
    if not any(_restrict_to_pencil(g, (0, 0, 1), (0, 0, 0))[1::2]):
        found.add((0, 0, 1))
    return tuple(sorted(found))


@functools.cache
def pencil_walk_scan(g):
    """The full scan as it was: the walk's lines, each with its certificate."""
    return tuple((l, is_splitting(g, l)) for l in pencil_walk_lines(g))


@functools.cache
def per_x_singular_points(g):
    """The singular points as they were found: one vertical line x0 = x*x2 at a time.

    At every x of GF(q) the partials restricted to the line are polynomials
    in y, each coefficient a polynomial in x evaluated by Horner, and the
    points (x, y, 1) are their common roots.  On z = 0 the partials at
    (x, 1, 0) are polynomials in x, and (1, 0, 0) is evaluated directly.
    Returns None when all partials vanish and every point otherwise, in
    chart order and however many: no Bezout bound stops the walk.
    Memoised per sextic.
    """
    f = g.field
    parts = [g.partial(v) for v in range(3)]
    if all(p.is_zero() for p in parts):
        return None
    vertical = [_restrict_to_pencil(p, (1, 0, 0), (0, 0, 1)) for p in parts]
    out = []
    for x in range(f.q):
        in_y = (trim([poly_eval(f, c, x) for c in rows]) for rows in vertical)
        out += [(x, y, 1) for y in common_roots(f, in_y)]
    at_infinity = (_restrict_to_pencil(p, (0, 0, 1), (0, 0, 0)) for p in parts)
    out += [(x, 1, 0) for x in common_roots(f, (trim([c[0] if c else 0 for c in rows]) for rows in at_infinity))]
    if all(evaluate(part, (1, 0, 0)) == 0 for part in parts):
        out.append((1, 0, 0))
    return tuple(out)


def sylvester_resultant(f, a, b, da, db):
    """det of the (da + db)-square Sylvester matrix of a and b at formal degrees da, db.

    Row i < db holds the coefficients of a shifted by i, row db + i those of
    b shifted by i, highest power first; the determinant is taken by
    Gaussian elimination over GF(q), where no sign arises.
    """
    n = da + db
    if n == 0:
        return 1
    coeff = lambda p, i: p[i] if i < len(p) else 0
    rows = []
    for p, d, shifts in ((a, da, db), (b, db, da)):
        for i in range(shifts):
            row = [0] * n
            for j in range(d + 1):
                row[i + j] = coeff(p, d - j)
            rows.append(row)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        det = f.mul(det, p)
        inv = f.inv(p)
        for r in range(col + 1, n):
            c = f.mul(rows[r][col], inv)
            if c:
                rows[r] = [x ^ f.mul(c, y) for x, y in zip(rows[r], rows[col])]
    return det


def scan_roots(f, h):
    """The roots of the nonzero h in GF(q), ascending, by evaluating h at every t."""
    out = []
    for t in range(f.q):
        acc = 0
        for c in reversed(h):
            acc = f.mul(acc, t) ^ c
        if acc == 0:
            out.append(t)
    return out


def product(f, a, b):
    """The product of two term maps {exponent triple: coefficient}, one f.mul per term pair."""
    out = {}
    for (l1, m1, n1), c1 in a.items():
        for (l2, m2, n2), c2 in b.items():
            exp = (l1 + l2, m1 + m2, n1 + n2)
            out[exp] = out.get(exp, 0) ^ f.mul(c1, c2)
    return {e: c for e, c in out.items() if c}


def compose_linear(g, mat):
    """g with x_i -> sum_j mat[i][j] * y_j, term by term, one sparse product per factor."""
    f = g.field
    subs = [{(1, 0, 0): row[0], (0, 1, 0): row[1], (0, 0, 1): row[2]} for row in mat]
    out = {}
    for (l, m, n), c in g.terms.items():
        t = {(0, 0, 0): c}
        for var, e in ((0, l), (1, m), (2, n)):
            for _ in range(e):
                t = product(f, t, subs[var])
        for exp, tc in t.items():
            out[exp] = out.get(exp, 0) ^ tc
    return HomPoly(f, g.degree, out)


def poly_rem(f, a, b):
    """Remainder of a modulo the nonzero b, one f.mul per product."""
    a = list(a)
    inv = f.inv(b[-1])
    db = len(b) - 1
    while len(a) > db:
        c = f.mul(a[-1], inv)
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] ^= f.mul(c, bc)
        trim(a)
    return a


def poly_quo(f, a, b):
    """The quotient of a by the nonzero b, which must divide it exactly."""
    a = list(a)
    inv = f.inv(b[-1])
    db = len(b) - 1
    out = [0] * max(len(a) - db, 0)
    for shift in range(len(out) - 1, -1, -1):
        c = f.mul(a[shift + db], inv)
        out[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] ^= f.mul(c, bc)
    if any(a):
        raise ValueError("inexact polynomial division")
    return out


def _gcd(f, a, b):
    while b:
        a, b = b, poly_rem(f, a, b)
    return a


def _square_mod(f, a, m):
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        sq[2 * i] = f.sqr(c)
    return poly_rem(f, sq, m)


def split_roots(f, h):
    """Trace splitting as it was: the k powers t^(2^i) mod h squared here, from t."""
    if len(h) <= 2:
        return [f.div(h[0], h[1])] if len(h) == 2 else []
    powers = [poly_rem(f, [0, 1], h)]
    for _ in range(f.k - 1):
        powers.append(_square_mod(f, powers[-1], h))
    roots = []
    todo = [h]
    for i in range(f.k):
        beta = 1 << i
        trace = [0] * (len(h) - 1)
        for p in powers:
            for j, c in enumerate(p):
                trace[j] ^= f.mul(beta, c)
            beta = f.sqr(beta)
        trim(trace)
        pending = []
        for g in todo:
            d = _gcd(f, g, poly_rem(f, trace, g))
            for part in [d, poly_quo(f, g, d)] if 1 < len(d) < len(g) else [g]:
                if len(part) == 2:
                    roots.append(f.div(part[0], part[1]))
                else:
                    pending.append(part)
        todo = pending
        if not todo:
            return sorted(roots)
    raise ValueError("polynomial is not a product of distinct rational linear factors")


def local_expansion(g, p):
    """g dehomogenized at p's chart and translated to p, two f.pow per term pair."""
    f = g.field
    chart = max(i for i in range(3) if p[i])
    kept = [i for i in range(3) if i != chart]
    pn = normalize_point(f, p)
    a, b = pn[kept[0]], pn[kept[1]]
    coeffs = {}
    for exp, c in g.terms.items():
        eu, ev = exp[kept[0]], exp[kept[1]]
        for i in _odd_binomials(eu):
            ca = f.mul(c, f.pow(a, eu - i))
            for j in _odd_binomials(ev):
                coeffs[(i, j)] = coeffs.get((i, j), 0) ^ f.mul(ca, f.pow(b, ev - j))
    return {e: c for e, c in coeffs.items() if c}


def hand_written_lines(field, r, s):
    """The five standard lines of the family member (r, s), by their coordinates."""
    return {
        "L(inf)": normalize_line(field, (0, 0, 1)),
        "L(0*)": normalize_line(field, (1, 0, 0)),
        "L(1*)": normalize_line(field, (1, 0, r)),
        "L(*0)": normalize_line(field, (0, 1, 0)),
        "L(*1)": normalize_line(field, (0, 1, s)),
    }


def rule_labeling(field, d4_points, a1_points, splitting):
    """The nine labels by fixed rules: q(inf) and q(0) are the smallest A1
    points on two side lines each, p(ab) crosses the a-th side line of q(inf)
    with the b-th of q(0), and q(1), q(w), q(wb) are the other A1 points."""
    if len(d4_points) != 4 or len(a1_points) != 5:
        raise RecognitionError("labeling needs 4 D4 and 5 A1 points")
    a1_line = None
    for l in splitting:
        if all(point_on_line(field, p, l) for p in a1_points):
            a1_line = l
            break
    if a1_line is None:
        raise RecognitionError("no splitting line carries all five A1 points")
    side = [l for l in splitting if l != a1_line]
    by_a1 = {p: [] for p in a1_points}
    for l in side:
        carriers = [p for p in a1_points if point_on_line(field, p, l)]
        if len(carriers) != 1:
            raise RecognitionError("a side line does not carry exactly one A1 point")
        by_a1[carriers[0]].append(l)
    doubles = sorted(p for p, ls in by_a1.items() if len(ls) == 2)
    if len(doubles) not in (2, 3):
        raise RecognitionError("expected two or three A1 points on two side lines each")
    q_inf, q_zero = doubles[0], doubles[1]
    l0, l1 = sorted(by_a1[q_inf])
    m0, m1 = sorted(by_a1[q_zero])
    p00 = intersect_lines(field, l0, m0)
    p01 = intersect_lines(field, l0, m1)
    p10 = intersect_lines(field, l1, m0)
    p11 = intersect_lines(field, l1, m1)
    if {p00, p01, p10, p11} != set(d4_points):
        raise RecognitionError("side-line intersections do not match the D4 points")
    q_rest = sorted(p for p in a1_points if p not in (q_inf, q_zero))
    return {
        "q(inf)": q_inf,
        "q(0)": q_zero,
        "q(1)": q_rest[0],
        "q(w)": q_rest[1],
        "q(wb)": q_rest[2],
        "p(00)": p00,
        "p(01)": p01,
        "p(10)": p10,
        "p(11)": p11,
    }


def cascade_normal_form(g, frame):
    """Parameter t of the normal form after moving g through the frame,
    through the full vanishing and relation pattern of the five splitting
    lines before the comparison with a*N(t)."""
    f = g.field
    moved = apply_frame(g, frame)
    # squares absorb into the cover coordinate
    h = HomPoly(f, moved.degree, {e: c for e, c in moved.terms.items() if any(x % 2 for x in e)})

    def co(l, m, n):
        return h.coeff((l, m, n))

    # the three coordinate lines split, so the sextic is divisible by xyz
    for e in h.terms:
        if 0 in e:
            raise RecognitionError(f"pattern violation: monomial {e} survives the line constraints")
    a = co(1, 4, 1)
    b = co(2, 3, 1)
    cc = co(3, 2, 1)
    d = co(4, 1, 1)
    if a == 0:
        raise RecognitionError("pattern violation: leading cubic coefficient vanishes")
    if co(1, 3, 2) or co(1, 1, 4) or co(3, 1, 2):
        raise RecognitionError("pattern violation: transversality constraints fail")
    if co(2, 1, 3) != d:
        raise RecognitionError("pattern violation: the two fork-line relations disagree")
    if a ^ b ^ cc ^ d:
        raise RecognitionError("pattern violation: the unit-point relation fails")
    if b != 0 or cc != 0:
        raise RecognitionError("pattern violation: the diagonal splitting lines force b = c = 0")
    if a != d:
        raise RecognitionError("pattern violation: outer coefficients differ")
    t = f.sqrt(f.div(co(1, 2, 3), a))
    if t == 0:
        raise RecognitionError("degenerate parameter t = 0")
    if h != normal_form_sextic(f, t).scale(a):
        raise RecognitionError("reduced sextic is not the scaled normal form")
    return t


def generator_tables(k, modulus):
    """(exp, log, generator) as the field built them: the first g whose powers
    meet no repeat before step q - 1 and come back to 1 there, with the
    antilog table stored twice over."""
    q = 1 << k
    if q == 2:
        return [1, 1], [0, 0], 1

    def times(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & q:
                a ^= modulus
        return out

    for g in range(2, q):
        exp = [0] * (q - 1)
        x = 1
        ok = True
        seen = bytearray(q)
        for i in range(q - 1):
            exp[i] = x
            if seen[x]:
                ok = False
                break
            seen[x] = 1
            x = times(x, g)
        if ok and x == 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return exp + exp, log, g
    raise ValueError("no multiplicative generator")
