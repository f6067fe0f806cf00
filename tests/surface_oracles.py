"""Replaced surface-side algorithms, kept as oracles for the tests.

The full line scan walked every one of the q + 1 pencils through the
points of x2 = 0; the scan now walks only the pencils an elimination
selects.  Roots were found by scanning t = 0, 1, 2, ... up to the largest
one; they are now split by traces.  The resultant that drives the
elimination is checked against the Sylvester determinant it stands for.
"""

import functools

from k3lat.char2_surfaces import surfaces
from k3lat.char2_surfaces.surfaces import is_splitting, line_poly


@functools.cache
def pencil_walk_lines(g):
    """The full scan's lines as they were found: every pencil through x2 = 0.

    Memoised per sextic (the field is part of a form's equality), so tests
    that compare against the same sextic walk it once.
    """
    f = g.field
    if g.degree % 2:
        return ()
    odd = lambda a, b: surfaces._restrict_to_pencil(g, a, b)[1::2]
    pencils = [surfaces._pencil_through(f, p) for p in surfaces._points_at_infinity(f)]
    return tuple(surfaces._lines_where(f, odd, pencils))


@functools.cache
def pencil_walk_scan(g):
    """The full scan as it was: the walk's lines, each with its certificate."""
    return tuple((l, is_splitting(g, line_poly(g.field, l))) for l in pencil_walk_lines(g))


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
