"""Replaced surface-side algorithms, kept as oracles for the tests.

The full line scan walked every one of the q + 1 pencils through the
points of x2 = 0, and so did the bound on non-reduced lines; both now read
one elimination in the dual plane, which walks only the b's a resultant
selects.  Singular points were found one vertical line at a time, at
every x of GF(q); they now come from the same elimination.  Roots were
found by scanning t = 0, 1, 2, ... up to the largest one; they are now
split by traces.  The resultant that drives the elimination is checked
against the Sylvester determinant it stands for.
"""

import functools

from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.surfaces import _restrict_to_pencil, is_splitting
from k3lat.char2_surfaces.upoly import common_roots, poly_eval, trim


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
    return tuple((l, is_splitting(g, HomPoly.linear(g.field, l))) for l in pencil_walk_lines(g))


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
    if all(part.evaluate((1, 0, 0)) == 0 for part in parts):
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
