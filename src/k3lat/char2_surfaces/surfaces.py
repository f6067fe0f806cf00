"""Purely inseparable double planes w^2 = G over GF(2^k).

Singular points are the common zeros of the three formal partials of the
sextic G (the cover contributes no w-derivative in characteristic 2), a
line splits exactly when the restriction of G to it is a square, and the
local type at a singular point is read off after absorbing square
monomials into the cover coordinate: a surviving xy-term means A1, a
separable cubic 3-jet means D4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .field import BinaryField
from .poly import BinForm, HomPoly, PolyError, cubic_has_distinct_roots


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


def all_points(field: BinaryField) -> Iterable[Point]:
    q = field.q
    for x in range(q):
        for y in range(q):
            yield (x, y, 1)
    for x in range(q):
        yield (x, 1, 0)
    yield (1, 0, 0)


def all_lines(field: BinaryField) -> Iterable[Line]:
    q = field.q
    for b in range(q):
        for c in range(q):
            yield (1, b, c)
    for c in range(q):
        yield (0, 1, c)
    yield (0, 0, 1)


def point_on_line(field: BinaryField, p: Point, l: Line) -> bool:
    acc = 0
    for a, b in zip(l, p):
        acc ^= field.mul(a, b)
    return acc == 0


def line_through(field: BinaryField, p: Point, r: Point) -> Line:
    """The line through two distinct points (projective cross product)."""
    m = field.mul
    l = (
        m(p[1], r[2]) ^ m(p[2], r[1]),
        m(p[2], r[0]) ^ m(p[0], r[2]),
        m(p[0], r[1]) ^ m(p[1], r[0]),
    )
    if not any(l):
        raise SurfaceError("points coincide; no unique line")
    return normalize_line(field, l)


def intersect_lines(field: BinaryField, l1: Line, l2: Line) -> Point:
    m = field.mul
    p = (
        m(l1[1], l2[2]) ^ m(l1[2], l2[1]),
        m(l1[2], l2[0]) ^ m(l1[0], l2[2]),
        m(l1[0], l2[1]) ^ m(l1[1], l2[0]),
    )
    if not any(p):
        raise SurfaceError("lines coincide; no unique intersection")
    return normalize_point(field, p)


def lines_through(field: BinaryField, p: Point) -> Iterable[Line]:
    """The q + 1 lines through p, normalized, in the order of ``all_lines``.

    With p normalized, the pencil has a closed form: through (x, y, 1) pass
    (1, t, x + t*y) for every t and (0, 1, y); through (x, 1, 0) pass
    (1, x, c) for every c and (0, 0, 1); through (1, 0, 0) pass (0, 1, c)
    for every c and (0, 0, 1).
    """
    x, y, z = normalize_point(field, p)
    q = field.q
    if z:
        mul = field.mul
        for t in range(q):
            yield (1, t, x ^ mul(t, y))
        yield (0, 1, y)
        return
    if y:
        for c in range(q):
            yield (1, x, c)
    else:
        for c in range(q):
            yield (0, 1, c)
    yield (0, 0, 1)


# ---------------------------------------------------------------------------
# restriction of a form to a line
# ---------------------------------------------------------------------------

def restrict_to_line(g: HomPoly, ell: HomPoly) -> BinForm:
    """Compose g with a parametrization of the line ell = 0.

    The canonical parametrization solves ell for its last variable of
    nonzero coefficient.  Squares are independent of the parametrization,
    certificates are not.
    """
    if ell.degree != 1 or ell.is_zero():
        raise SurfaceError("line must be a nonzero linear form")
    f = g.field
    cf = [ell.coeff((1, 0, 0)), ell.coeff((0, 1, 0)), ell.coeff((0, 0, 1))]
    eliminate = max(v for v in range(3) if cf[v])
    kept = tuple(v for v in range(3) if v != eliminate)
    inv = f.inv(cf[eliminate])
    # eliminated variable = sub[0]*u + sub[1]*v on the line (signs vanish in char 2)
    sub = [f.mul(inv, cf[kept[0]]), f.mul(inv, cf[kept[1]])]
    d = g.degree
    coeffs = [0] * (d + 1)
    # binomial expansion of (sub0*u + sub1*v)^e over GF(2^k): C(e, i) mod 2
    for (l, m, n), c in g.terms.items():
        exps = {0: l, 1: m, 2: n}
        e = exps[eliminate]
        eu, ev = exps[kept[0]], exps[kept[1]]
        for i in range(e + 1):
            if (e - i) & i:  # Lucas: C(e, i) is even iff i shares a bit with e - i
                continue
            term = f.mul(c, f.mul(f.pow(sub[0], i), f.pow(sub[1], e - i)))
            iu = eu + i
            coeffs[d - iu] ^= term
    return BinForm(f, d, tuple(coeffs), kept)


def linear_divides(ell: HomPoly, g: HomPoly) -> bool:
    try:
        g.divide_by_linear(ell)
        return True
    except PolyError:
        return False


# ---------------------------------------------------------------------------
# splitting certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingCertificate:
    """G = ell * quintic + cubic^2, witnessing that the line splits."""

    line: HomPoly
    quintic: HomPoly
    cubic: HomPoly

    def verify(self, g: HomPoly) -> bool:
        return (self.line * self.quintic) + self.cubic.square() == g


def is_splitting(g: HomPoly, ell: HomPoly) -> SplittingCertificate | None:
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
        if c:
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


def line_poly(field: BinaryField, l: Line) -> HomPoly:
    return HomPoly.linear(field, l)


def scan_splitting_lines(
    g: HomPoly, mode: str = "full", points: Sequence[Point] | None = None
) -> list[tuple[Line, SplittingCertificate]]:
    """Every rational line whose restriction is a square, with certificates.

    mode 'full' scans all q^2+q+1 lines; mode 'singular' only scans lines
    through the given singular points.  A splitting line always meets the
    singular locus, so the restricted scan is exhaustive whenever that
    locus is rational (as it is for the nine-point configurations).
    """
    f = g.field
    if mode == "full":
        candidates: Iterable[Line] = all_lines(f)
    elif mode == "singular":
        if points is None:
            points = singular_points(g)
        seen: set[Line] = set()
        cs: list[Line] = []
        for p in points:
            for l in lines_through(f, p):
                if l not in seen:
                    seen.add(l)
                    cs.append(l)
        candidates = cs
    else:
        raise SurfaceError(f"unknown scan mode {mode!r}")
    out = []
    for l in candidates:
        ell = line_poly(f, l)
        cert = is_splitting(g, ell)
        if cert is not None:
            out.append((l, cert))
    out.sort(key=lambda t: t[0])
    return out


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

def singular_points(g: HomPoly) -> list[Point]:
    """All rational points where the three formal partials vanish.

    In the chart z = 1 the partials become polynomials in y for each x, and
    the singular points above x are the roots in GF(q) of their gcd.  Where
    that gcd is nonconstant, its gcd with y^q + y (k squarings modulo it)
    keeps one linear factor per such root, and y is scanned only until all
    of them are found.  So an x costs a few small gcds, and a scan over y
    only where a rational singular point lies.  The q + 1 points
    on z = 0 are evaluated directly.  Points come out in chart order: x,
    then y, then the line at infinity.  An infinite singular locus is an
    error: all partials identically zero, or more points than the Bezout
    bound 25 for two quintics without a common component (raised as soon as
    the 26th point is found, so a rational singular curve costs O(26 q)
    evaluations).
    """
    f = g.field
    parts = [g.partial(v) for v in range(3)]
    if all(p.is_zero() for p in parts):
        raise SurfaceError("all partials vanish identically; singular locus is infinite")
    out: list[Point] = []

    def found(p: Point) -> None:
        out.append(p)
        if len(out) > 25:
            raise SurfaceError(
                "more singular points than the Bezout bound 25 for two quintics "
                "without a common component; this indicates a curve in the singular locus"
            )

    pterms = [sorted(p.terms.items()) for p in parts]
    q = f.q
    mul, pw = f.mul, f.pow
    for x in range(q):
        common: list[int] = []
        for terms in pterms:
            spec = [0] * g.degree
            for (l, m, n), c in terms:
                spec[m] ^= mul(c, pw(x, l))
            common = _upoly_gcd(f, common, _trim(spec))
            if len(common) == 1:
                break
        if not common:  # all partials vanish on the whole line at x
            for y in range(q):
                found((x, y, 1))
        elif len(common) > 1:
            roots = _rational_roots_part(f, common)
            left = len(roots) - 1
            y = 0
            while left:
                if _upoly_eval(f, roots, y) == 0:
                    found((x, y, 1))
                    left -= 1
                y += 1
    # chart z = 0
    for p in [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]:
        if all(part.evaluate(p) == 0 for part in parts):
            found(p)
    return out


# univariate polynomials over GF(2^k) for the singular-point search: dense
# coefficient lists, constant term first, no trailing zeros (zero is [])

def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _upoly_mod(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
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
        _trim(a)
    return a


def _upoly_gcd(f: BinaryField, a: list[int], b: list[int]) -> list[int]:
    while b:
        a, b = b, _upoly_mod(f, a, b)
    return a


def _upoly_eval(f: BinaryField, a: list[int], y: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = f.mul(acc, y) ^ c
    return acc


def _rational_roots_part(f: BinaryField, a: list[int]) -> list[int]:
    """gcd(a, y^q + y): one linear factor for each distinct root of a in GF(q)."""
    r = _upoly_mod(f, [0, 1], a)
    for _ in range(f.k):  # y^q mod a by k squarings
        sq = [0] * (2 * len(r) - 1) if r else []
        for i, c in enumerate(r):
            sq[2 * i] = f.sqr(c)
        r = _upoly_mod(f, sq, a)
    r += [0] * (2 - len(r))
    r[1] ^= 1
    return _upoly_gcd(f, a, _trim(r))


# ---------------------------------------------------------------------------
# classification of singular points
# ---------------------------------------------------------------------------

def _local_expansion(g: HomPoly, p: Point) -> dict[tuple[int, int], int]:
    """Dehomogenize at a chart containing p and translate p to the origin."""
    f = g.field
    chart = max(i for i in range(3) if p[i])
    kept = [i for i in range(3) if i != chart]
    # x_kept = u + p_kept, x_chart = 1 after scaling p so that p[chart] = 1
    pn = normalize_point(f, p)
    coeffs: dict[tuple[int, int], int] = {}
    for exp, c in g.terms.items():
        eu, ev = exp[kept[0]], exp[kept[1]]
        # binomial expansion of (u + a)^eu (v + b)^ev with char-2 binomials
        a, b = pn[kept[0]], pn[kept[1]]
        for i in range(eu + 1):
            if (eu - i) & i:
                continue
            ca = f.mul(c, f.pow(a, eu - i))
            for j in range(ev + 1):
                if (ev - j) & j:
                    continue
                cb = f.mul(ca, f.pow(b, ev - j))
                if cb:
                    key = (i, j)
                    r = coeffs.get(key, 0) ^ cb
                    if r:
                        coeffs[key] = r
                    else:
                        coeffs.pop(key, None)
    return coeffs


def classify_singularity(g: HomPoly, p: Point) -> str:
    """Type of the double-plane point above p: 'A1', 'D4' or 'Other'.

    Monomials with both exponents even absorb into the cover coordinate and
    are deleted first.  A nonzero xy-coefficient is an ordinary node; a
    separable cubic 3-jet is the four-string fork point.  Deeper types are
    reported as 'Other' (higher jets are not examined; global cross-checks
    compensate).
    """
    f = g.field
    local = _local_expansion(g, p)
    reduced = {e: c for e, c in local.items() if e[0] % 2 or e[1] % 2}
    if reduced.get((1, 0)) or reduced.get((0, 1)):
        raise SurfaceError(f"point {p} is not singular on the double plane")
    if reduced.get((1, 1)):
        return "A1"
    cubic = [reduced.get((3, 0), 0), reduced.get((2, 1), 0), reduced.get((1, 2), 0), reduced.get((0, 3), 0)]
    if any(cubic):
        form = BinForm(f, 3, tuple(cubic), (0, 1))
        if cubic_has_distinct_roots(form):
            return "D4"
    return "Other"


MILNOR = {"A1": 1, "D4": 4}


@dataclass(frozen=True)
class SingularityReport:
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
    return {
        "L(inf)": normalize_line(field, (0, 0, 1)),
        "L(0*)": normalize_line(field, (1, 0, 0)),
        "L(1*)": normalize_line(field, (1, 0, r)),
        "L(*0)": normalize_line(field, (0, 1, 0)),
        "L(*1)": normalize_line(field, (0, 1, s)),
    }


EXPECTED_INCIDENCE = {
    "L(inf)": ("q(0)", "q(1)", "q(w)", "q(wb)", "q(inf)"),
    "L(0*)": ("p(00)", "p(01)", "q(inf)"),
    "L(1*)": ("p(10)", "p(11)", "q(inf)"),
    "L(*0)": ("p(00)", "p(10)", "q(0)"),
    "L(*1)": ("p(01)", "p(11)", "q(0)"),
}


@dataclass(frozen=True)
class ConfigurationReport:
    ok: bool
    findings: tuple[str, ...]
    report: SingularityReport
    splitting_lines: tuple[Line, ...]
    certificates: tuple[tuple[Line, SplittingCertificate], ...]

    @property
    def total_milnor(self):
        return self.report.total_milnor


def verify_configuration(
    g: HomPoly,
    r: int | None = None,
    s: int | None = None,
    line_scan: str = "full",
) -> ConfigurationReport:
    """Check the nine-point, five-line shape of a family member.

    (a) counts and types 4 D4 + 5 A1 with total Milnor number 21, (b) the
    five A1 images collinear on a splitting line, (c) with r and s given,
    the labeled coordinates and the incidence pattern of the five standard
    lines, (d) the full list of splitting rational lines.  Mismatches are
    reported as findings, not raised.
    """
    f = g.field
    findings: list[str] = []
    report = analyze_singularities(g)
    d4 = report.of_type("D4")
    a1 = report.of_type("A1")
    if len(report.points) != 9:
        findings.append(f"expected 9 singular points, found {len(report.points)}")
    if len(d4) != 4 or len(a1) != 5:
        findings.append(f"expected 4 D4 + 5 A1, found {len(d4)} D4 + {len(a1)} A1")
    if report.total_milnor != 21:
        findings.append(f"total Milnor number {report.total_milnor} != 21")

    scan = scan_splitting_lines(g, mode=line_scan, points=[p for p, _ in report.points])
    split_lines = tuple(l for l, _ in scan)

    if len(a1) == 5:
        base = a1[0]
        others = a1[1:]
        try:
            common = line_through(f, base, others[0])
            if all(point_on_line(f, p, common) for p in others[1:]):
                if common not in split_lines:
                    findings.append("the A1 line is not splitting")
            else:
                findings.append("the five A1 points are not collinear")
        except SurfaceError:
            findings.append("degenerate A1 point set")

    if r is not None and s is not None:
        expected_pts = table_points(f, r, s)
        actual_d4 = set(d4)
        actual_a1 = set(a1)
        exp_d4 = {v for k, v in expected_pts.items() if k.startswith("p")}
        exp_a1 = {v for k, v in expected_pts.items() if k.startswith("q")}
        if actual_d4 != exp_d4:
            findings.append("D4 points differ from the labeled coordinates")
        if actual_a1 != exp_a1:
            findings.append("A1 points differ from the labeled coordinates")
        expected_ln = table_lines(f, r, s)
        for name, l in expected_ln.items():
            if l not in split_lines:
                findings.append(f"{name} is not splitting")
            on = {
                label
                for label, pt in expected_pts.items()
                if point_on_line(f, pt, l)
            }
            if on != set(EXPECTED_INCIDENCE[name]):
                findings.append(f"incidence of {name} differs: {sorted(on)}")
    return ConfigurationReport(
        ok=not findings,
        findings=tuple(findings),
        report=report,
        splitting_lines=split_lines,
        certificates=tuple(scan),
    )


# ---------------------------------------------------------------------------
# the separable-cover bound
# ---------------------------------------------------------------------------

def nonreduced_splitting_lines_separable(c: HomPoly, g: HomPoly) -> list[Line]:
    """Non-reduced splitting lines of the separable cover w^2 + w*C + G = 0.

    A line is of non-reduced type exactly when C restricts to zero on it and
    the restriction of G is a square; every such line divides C, so there
    are at most deg C = 3 of them.
    """
    if c.degree != 3 or c.is_zero():
        raise SurfaceError("separable cover needs a nonzero cubic")
    if g.degree != 6:
        raise SurfaceError("cover term must be a sextic")
    f = c.field
    out = []
    for l in all_lines(f):
        ell = line_poly(f, l)
        if not restrict_to_line(c, ell).is_zero():
            continue
        if restrict_to_line(g, ell).is_square() is not None:
            out.append(l)
    for l in out:
        if not linear_divides(line_poly(f, l), c):
            raise SurfaceError("non-reduced line does not divide the separable term")
    if len(out) > 3:
        raise SurfaceError("more non-reduced lines than deg C = 3")
    return sorted(out)
