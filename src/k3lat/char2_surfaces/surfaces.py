"""Purely inseparable double planes w^2 = G over GF(2^k).

Singular points are the common zeros of the three formal partials of the
sextic G (the cover contributes no w-derivative in characteristic 2), a
line splits exactly when the restriction of G to it is a square, and the
local type at a singular point is read off after absorbing square
monomials into the cover coordinate: a surviving xy-term means A1, a
separable cubic 3-jet means D4.
"""

from __future__ import annotations

import functools
from itertools import chain, combinations, islice
from typing import Iterator, Sequence

from ..configuration import LINES, point_labels
from ..frozen import Frozen
from .field import BinaryField
from .poly import BinForm, HomPoly, cubic_has_distinct_roots
from .upoly import common_roots, interpolate, poly_eval, resultant, trim


class SurfaceError(ValueError):
    pass


Point = tuple[int, int, int]
Line = tuple[int, int, int]


# ---------------------------------------------------------------------------
# projective points and lines
# ---------------------------------------------------------------------------

def normalize_point(field: BinaryField, p: Sequence[int]) -> Point:
    """Scale so the last nonzero coordinate is 1."""
    if not any(p):
        raise SurfaceError("(0:0:0) is not a projective point")
    last = max(i for i in range(3) if p[i])
    inv = field.inv(p[last])
    return tuple(field.mul(inv, c) for c in p)


def normalize_line(field: BinaryField, l: Sequence[int]) -> Line:
    """Scale so the first nonzero coefficient is 1."""
    if not any(l):
        raise SurfaceError("zero line")
    first = min(i for i in range(3) if l[i])
    inv = field.inv(l[first])
    return tuple(field.mul(inv, c) for c in l)


def point_on_line(field: BinaryField, p: Point, l: Line) -> bool:
    acc = 0
    for a, b in zip(l, p):
        acc ^= field.mul(a, b)
    return acc == 0


def cross(field: BinaryField, a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """The cross product a x b: the line through two points, or the point on two lines."""
    m = field.mul
    return (
        m(a[1], b[2]) ^ m(a[2], b[1]),
        m(a[2], b[0]) ^ m(a[0], b[2]),
        m(a[0], b[1]) ^ m(a[1], b[0]),
    )


def line_through(field: BinaryField, p: Point, r: Point) -> Line:
    """The line through two distinct points."""
    l = cross(field, p, r)
    if not any(l):
        raise SurfaceError("points coincide; no unique line")
    return normalize_line(field, l)


def intersect_lines(field: BinaryField, l1: Line, l2: Line) -> Point:
    p = cross(field, l1, l2)
    if not any(p):
        raise SurfaceError("lines coincide; no unique intersection")
    return normalize_point(field, p)


# ---------------------------------------------------------------------------
# restriction of a form to a line
# ---------------------------------------------------------------------------

def restrict_to_line(g: HomPoly, ell: Line) -> BinForm:
    """Compose g with a parametrization of the line with coefficient triple ell.

    The canonical parametrization solves ell for its last variable of
    nonzero coefficient.  Squares are independent of the parametrization,
    certificates are not.
    """
    f = g.field
    cf = [f.check(c) for c in ell]
    if not any(cf):
        raise SurfaceError("line must be a nonzero linear form")
    e = max(v for v in range(3) if cf[v])
    inv = f.inv(cf[e])
    # the line alone is the pencil with b = 0: constant coefficients
    rows = _restrict_to_pencil(g, tuple(f.mul(inv, c) for c in cf), (0, 0, 0), e)
    coeffs = tuple(row[0] if row else 0 for row in reversed(rows))
    return BinForm(f, g.degree, coeffs, tuple(v for v in range(3) if v != e))


def _restrict_to_pencil(g: HomPoly, a: Line, b: Line, e: int | None = None) -> list[list[int]]:
    """The restriction of g to the lines a + t*b, with polynomials in t as coefficients.

    a_e = 1 and b_e = 0, where e defaults to the first nonzero coordinate
    of a, so every line of the pencil solves for
    x_e = (a_i + t*b_i)*x_i + (a_j + t*b_j)*x_j, with (i, j) the other two
    variables in order.  Entry m of the result is the coefficient of
    x_i^m * x_j^(d-m): a univariate polynomial in t.
    """
    f = g.field
    antilog, log, m = f.exp, f.log, f.q - 1
    d = g.degree
    if e is None:
        e = min(v for v in range(3) if a[v])
    i, j = (v for v in range(3) if v != e)
    pow_i = _linear_powers(f, a[i], b[i], d)
    pow_j = _linear_powers(f, a[j], b[j], d)
    # degree in t is at most d, and 0 for the single line b = 0
    width = d + 1 if b[i] or b[j] else 1
    rows = [[0] * width for _ in range(d + 1)]
    for exp, c in g.terms.items():
        n = exp[e]
        base = exp[i]
        lc = log[c]
        for s in _odd_binomials(n):
            row = rows[base + s]
            for k1, l1 in pow_i[s]:
                l1 += lc
                if l1 >= m:
                    l1 -= m
                for k2, l2 in pow_j[n - s]:
                    row[k1 + k2] ^= antilog[l1 + l2]
    return [trim(row) for row in rows]


@functools.cache
def _odd_binomials(n: int) -> tuple[int, ...]:
    """The s in 0..n with C(n, s) odd (Lucas: s and n - s share no bit)."""
    return tuple(s for s in range(n + 1) if not (n - s) & s)


def _linear_powers(f: BinaryField, alpha: int, beta: int, n: int) -> list[list[tuple[int, int]]]:
    """(alpha + beta*t)^s for s = 0..n, as lists of (k, log of the nonzero coefficient of t^k).

    In characteristic 2 the coefficient of t^k is alpha^(s-k) * beta^k when
    C(s, k) is odd and 0 otherwise, with 0^0 = 1.
    """
    m = f.q - 1
    la, lb = f.log[alpha], f.log[beta]
    return [
        [
            (k, (la * (s - k) + lb * k) % m)
            for k in _odd_binomials(s)
            if (alpha or k == s) and (beta or not k)
        ]
        for s in range(n + 1)
    ]


# ---------------------------------------------------------------------------
# splitting certificates
# ---------------------------------------------------------------------------

class SplittingCertificate(Frozen):
    """G = ell * quintic + cubic^2, with ell the linear form of the coefficient
    triple ``line``, witnessing that the line splits."""

    __slots__ = ("line", "quintic", "cubic")
    line: Line
    quintic: HomPoly
    cubic: HomPoly

    def verify(self, g: HomPoly) -> bool:
        return (HomPoly.linear(g.field, self.line) * self.quintic) + self.cubic.square() == g


def is_splitting(g: HomPoly, ell: Line) -> SplittingCertificate | None:
    """Certificate when the restriction of g to the line is a square, else None."""
    rho = restrict_to_line(g, ell)
    root = rho.is_square()
    if root is None:
        return None
    f = g.field
    # lift the square root back to a trivariate form in the kept variables only
    ku, kv = root.kept
    terms: dict[tuple[int, int, int], int] = {}
    for i, c in enumerate(root.coeffs):
        exp = [0, 0, 0]
        exp[ku] = root.degree - i
        exp[kv] = i
        terms[tuple(exp)] = c
    gamma = HomPoly(f, root.degree, terms)
    quintic = (g + gamma.square()).divide_by_linear(ell)
    cert = SplittingCertificate(ell, quintic, gamma)
    if not cert.verify(g):
        raise SurfaceError("splitting certificate failed to verify")
    return cert


def scan_splitting_lines(g: HomPoly) -> list[SplittingCertificate]:
    """The certificate of every rational line whose restriction is a square.

    g has even degree (the CLI scans sextics only), and a restriction of
    even degree is a square exactly when its odd coefficients vanish, so
    the lines are those of ``_lines_where``, in their order.  Each line
    found is checked by building its certificate and multiplying it out.
    """
    out = []
    for l in _lines_where(g):
        cert = is_splitting(g, l)
        if cert is None:
            raise SurfaceError(f"line {l} solves the elimination but does not split")
        out.append(cert)
    return out


def _lines_where(g: HomPoly) -> list[Line]:
    """The rational lines on which the odd coefficients of g restrict to zero.

    A line with a0 != 0 is x0 = b*x1 + c*x2, the line (1, b, c), and its
    odd coefficients are polynomials P_m(b, c) (see
    ``_coefficients_in_b_c``) whose common zeros ``_affine_zeros`` finds.
    The lines with a0 = 0 are the pencil (0, 1, 0) + t*(0, 0, 1), where the
    coefficients are polynomials in t, and the line x2 = 0, where they are
    constants.  Sorted, each line once.
    """
    f = g.field
    odd = lambda a, b: _restrict_to_pencil(g, a, b)[1::2]
    found: list[Line] = [] if any(odd((0, 0, 1), (0, 0, 0))) else [(0, 0, 1)]
    found += [(0, 1, t) for t in common_roots(f, odd((0, 1, 0), (0, 0, 1)))]
    found += [(1, b, c) for b, c in _affine_zeros(f, _coefficients_in_b_c(g))]
    return found


def _affine_zeros(f: BinaryField, polys: list[list[list[int]]]) -> Iterator[tuple[int, int]]:
    """The (b, c) in GF(q)^2 where every P(b, c) vanishes, ascending and lazily.

    A P is a list over the power of c of polynomials in b, trimmed at both
    levels.  At each b of ``_candidate_bs`` the c's are the common roots.
    """
    return ((b, c) for b in _candidate_bs(f, polys) for c in common_roots(f, (_at(f, p, b) for p in polys)))


def _candidate_bs(f: BinaryField, polys: list[list[list[int]]]) -> Sequence[int]:
    """Ascending b's that include the b of every (b, c) where all the P's vanish.

    For two of them R(b) = Res_c(P_i, P_j), with their c-degrees as formal
    degrees, vanishes at the b of every such zero.  By Bezout R has degree
    at most d_i * d_j, with d the total degrees: ``upoly.resultant``
    evaluates it at d_i * d_j + 1 points, Newton interpolation recovers it,
    and one more point re-checks the interpolant, raising on a miss.  The
    roots of R for the first pair not both free of c whose R is not zero
    are returned.  When R is zero for every pair (the P's share a
    component) or GF(q) has too few points for a pair, every b is.
    """
    for pi, pj in combinations(polys, 2):
        if not pi or not pj or len(pi) == len(pj) == 1:
            continue  # a zero P makes R zero; two P's free of c give no R
        n = _total_degree(pi) * _total_degree(pj) + 1
        if n >= f.q:
            continue
        values = [resultant(f, _at(f, pi, b), _at(f, pj, b), len(pi) - 1, len(pj) - 1) for b in range(n + 1)]
        r = interpolate(f, range(n), values[:n])
        if poly_eval(f, r, n) != values[n]:
            raise SurfaceError(f"the resultant differs at b = {n} from its interpolant of degree < {n}")
        if r:
            return common_roots(f, [r])
    return range(f.q)


def _coefficients_in_b_c(g: HomPoly) -> list[list[list[int]]]:
    """P_m(b, c) for odd m: the coefficient of x1^m x2^(d-m) in g(b*x1 + c*x2, x1, x2).

    A term x0^n x1^e1 x2^e2 gives b^s c^(n-s) to P_(e1+s) for each s with
    C(n, s) odd, so each P has total degree at most d.  A P is a list over
    the power of c of polynomials in b, trimmed at both levels.
    """
    d = g.degree
    polys = {m: [[0] * (d + 1) for _ in range(d + 1)] for m in range(1, d + 1, 2)}
    for (n, e1, _), c in g.terms.items():
        for s in _odd_binomials(n):
            if e1 + s in polys:
                polys[e1 + s][n - s][s] = c
    return [trim([trim(row) for row in p]) for p in polys.values()]


def _at(f: BinaryField, p: list[list[int]], b: int) -> list[int]:
    """P(b, c) as a polynomial in c."""
    return trim([poly_eval(f, row, b) for row in p])


def _total_degree(p: list[list[int]]) -> int:
    return max(k + len(row) - 1 for k, row in enumerate(p) if row)


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

def singular_points(g: HomPoly) -> list[Point]:
    """All rational points where the three formal partials vanish.

    The chart z = 1 is covered by the vertical lines x0 = x*x2, the pencil
    (1, 0, 0) + x*(0, 0, 1) through (0, 1, 0).  Restricted to it, the
    partials are polynomials in (x, y) whose common zeros ``_affine_zeros``
    finds, as it finds the lines of the scan: at the roots of a resultant in
    x, or at every x when the partials share a component or k <= 4.  On the
    line z = 0 the partials at (x, 1, 0) are polynomials in x, whose common
    roots are found by gcds, and a partial's value at (1, 0, 0) is its
    x0^5 coefficient.  Points come out in chart order: x, then y, then the
    line at infinity.  An infinite singular locus is an error: all partials
    identically zero, or more points than the Bezout bound 25 for two
    quintics without a common component (raised as soon as the 26th point
    is found).  Only sextics are accepted, since the bound is a sextic fact.
    """
    if g.degree != 6:
        raise SurfaceError(f"singular points are computed for sextics, not for degree {g.degree}")
    f = g.field
    parts = [g.partial(v) for v in range(3)]
    if all(p.is_zero() for p in parts):
        raise SurfaceError("all partials vanish identically; singular locus is infinite")
    # trimmed to the true degree in y, or every formal-degree resultant vanishes
    vertical = [trim(_restrict_to_pencil(p, (1, 0, 0), (0, 0, 1))) for p in parts]
    # on x2 = 0 entry m of a restricted partial is its coefficient of x0^m x1^(d-m)
    at_infinity = (_restrict_to_pencil(p, (0, 0, 1), (0, 0, 0)) for p in parts)
    points = chain(
        ((x, y, 1) for x, y in _affine_zeros(f, vertical)),
        ((x, 1, 0) for x in common_roots(f, (_at(f, rows, 0) for rows in at_infinity))),
        [(1, 0, 0)] if not any(part.coeff((5, 0, 0)) for part in parts) else [],
    )
    out = list(islice(points, 26))
    if len(out) > 25:
        raise SurfaceError(
            "more singular points than the Bezout bound 25 for two quintics "
            "without a common component; this indicates a curve in the singular locus"
        )
    return out


# ---------------------------------------------------------------------------
# classification of singular points
# ---------------------------------------------------------------------------

def _local_expansion(g: HomPoly, p: Point) -> dict[tuple[int, int], int]:
    """Dehomogenize at a chart containing p and translate p to the origin.

    With p scaled so that p[chart] = 1, the kept coordinates become u + a
    and v + b, and each term c * x_kept^(eu, ev) expands by char-2 binomials
    into c * a^(eu-i) * b^(ev-j) * u^i * v^j over the odd C(eu, i) and
    C(ev, j).  The logs of the powers of a and of b are listed once (None
    for a zero power).
    """
    f = g.field
    antilog, log, m = f.exp, f.log, f.q - 1
    chart = max(i for i in range(3) if p[i])
    kept = [i for i in range(3) if i != chart]
    pn = normalize_point(f, p)
    pow_a, pow_b = (
        [0] + [(log[c] * e) % m if c else None for e in range(1, g.degree + 1)]
        for c in (pn[kept[0]], pn[kept[1]])
    )
    # the coefficient of u^i v^j at flat index i * (d + 1) + j
    width = g.degree + 1
    flat = [0] * (width * width)
    for exp, c in g.terms.items():
        eu, ev = exp[kept[0]], exp[kept[1]]
        lc = log[c]
        for i in _odd_binomials(eu):
            la = pow_a[eu - i]
            if la is None:
                continue
            la += lc
            if la >= m:
                la -= m
            row = i * width
            for j in _odd_binomials(ev):
                lb = pow_b[ev - j]
                if lb is not None:
                    flat[row + j] ^= antilog[la + lb]
    return {divmod(k, width): c for k, c in enumerate(flat) if c}


def classify_singularity(g: HomPoly, p: Point) -> str:
    """Type of the double-plane point above p: 'A1', 'D4' or 'Other'.

    Monomials with both exponents even absorb into the cover coordinate and
    are deleted first.  A nonzero xy-coefficient is an ordinary node; a
    separable cubic 3-jet is the four-string fork point.  Deeper types are
    reported as 'Other' (higher jets are not examined; global cross-checks
    compensate).
    """
    local = _local_expansion(g, p)
    reduced = {e: c for e, c in local.items() if e[0] % 2 or e[1] % 2}
    if reduced.get((1, 0)) or reduced.get((0, 1)):
        raise SurfaceError(f"point {p} is not singular on the double plane")
    if reduced.get((1, 1)):
        return "A1"
    cubic = [reduced.get((3, 0), 0), reduced.get((2, 1), 0), reduced.get((1, 2), 0), reduced.get((0, 3), 0)]
    # a zero 3-jet has ad = bc = 0, so it is not separable
    return "D4" if cubic_has_distinct_roots(g.field, *cubic) else "Other"


MILNOR = {"A1": 1, "D4": 4}


class SingularityReport(Frozen):
    __slots__ = ("points",)
    points: tuple[tuple[Point, str], ...]

    @property
    def total_milnor(self) -> int | None:
        total = 0
        for _, t in self.points:
            if t not in MILNOR:
                return None
            total += MILNOR[t]
        return total

    def of_type(self, t: str) -> list[Point]:
        return [p for p, typ in self.points if typ == t]


def analyze_singularities(g: HomPoly) -> SingularityReport:
    pts = singular_points(g)
    return SingularityReport(tuple((p, classify_singularity(g, p)) for p in pts))


# ---------------------------------------------------------------------------
# the one-parameter family of sextics
# ---------------------------------------------------------------------------

def schroeer_sextic(field: BinaryField, r: int, s: int) -> HomPoly:
    """The sextic [x0*(x1^4 + s^2 x1^2 x2^2) + x1*(x0^4 + r^2 x0^2 x2^2)] * x2."""
    field.check(r)
    field.check(s)
    return HomPoly(
        field,
        6,
        {
            (1, 4, 1): 1,
            (1, 2, 3): field.sqr(s),
            (4, 1, 1): 1,
            (2, 1, 3): field.sqr(r),
        },
    )


def on_cube_locus(field: BinaryField, r: int, s: int) -> bool:
    """Whether r^3 = s^3, where the diagonals of the four fork points split too."""
    return field.pow(r, 3) == field.pow(s, 3)


def table_points(field: BinaryField, r: int, s: int) -> dict[str, Point]:
    """The nine labeled singular points of the family member, normalized."""
    w = field.omega()
    wb = field.mul(w, w)
    raw = {
        "p(00)": (0, 0, 1),
        "p(01)": (0, s, 1),
        "p(10)": (r, 0, 1),
        "p(11)": (r, s, 1),
        "q(0)": (1, 0, 0),
        "q(1)": (1, 1, 0),
        "q(w)": (1, w, 0),
        "q(wb)": (1, wb, 0),
        "q(inf)": (0, 1, 0),
    }
    return {k: normalize_point(field, p) for k, p in raw.items()}


def table_lines(field: BinaryField, r: int, s: int) -> dict[str, Line]:
    """The five standard lines of the family member: L(lam) passes through
    the first and the last point of its row of ``configuration.LINES``."""
    pts = table_points(field, r, s)
    lines = {}
    for lam, row in LINES.items():
        first, *_, last = point_labels(*row)
        lines[f"L({lam})"] = line_through(field, pts[first], pts[last])
    return lines


class ConfigurationReport(Frozen):
    __slots__ = ("findings", "report", "certificates")
    findings: tuple[str, ...]
    report: SingularityReport
    certificates: tuple[SplittingCertificate, ...]


def verify_configuration(field: BinaryField, r: int, s: int) -> ConfigurationReport:
    """Check the nine-point, five-line shape of the family member of (r, s)
    (``schroeer_sextic``).

    (a) counts and types 4 D4 + 5 A1, so total Milnor number 21, (b) the
    labeled coordinates of the points of (r, s) and the incidence of the
    five standard lines, against the rows of ``configuration.LINES``: the
    A1 points found are the five q(c), and L(inf) splits and carries
    exactly those, so the A1 points lie on a splitting line, (c) every
    splitting rational line (the scan is exhaustive and independent of
    (a)): 5 off the cube locus and 7 on it, a count reported only when
    nothing else is.  Mismatches are reported as findings, not raised, and
    the member passes when there are none.
    """
    f = field
    g = schroeer_sextic(f, r, s)
    findings: list[str] = []
    report = analyze_singularities(g)
    d4 = report.of_type("D4")
    a1 = report.of_type("A1")
    if len(report.points) != 9:
        findings.append(f"expected 9 singular points, found {len(report.points)}")
    if len(d4) != 4 or len(a1) != 5:
        findings.append(f"expected 4 D4 + 5 A1, found {len(d4)} D4 + {len(a1)} A1")

    certificates = tuple(scan_splitting_lines(g))
    split_lines = [c.line for c in certificates]

    expected_pts = table_points(f, r, s)
    for typ, found, prefix in (("D4", d4, "p("), ("A1", a1, "q(")):
        if set(found) != {v for k, v in expected_pts.items() if k.startswith(prefix)}:
            findings.append(f"{typ} points differ from the labeled coordinates")
    expected_ln = table_lines(f, r, s)
    for lam, row in LINES.items():
        name = f"L({lam})"
        l = expected_ln[name]
        if l not in split_lines:
            findings.append(f"{name} is not splitting")
        on = {label for label, pt in expected_pts.items() if point_on_line(f, pt, l)}
        if on != set(point_labels(*row)):
            findings.append(f"incidence of {name} differs: {sorted(on)}")
    n_lines = 7 if on_cube_locus(f, r, s) else 5
    if not findings and len(split_lines) != n_lines:
        findings.append(f"expected {n_lines} splitting lines, found {len(split_lines)}")
    return ConfigurationReport(findings=tuple(findings), report=report, certificates=certificates)
