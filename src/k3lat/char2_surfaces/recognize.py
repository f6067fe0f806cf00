"""Recognition of the one-parameter normal form from a nine-point double plane.

Given a sextic whose double plane carries the 4 D4 + 5 A1 configuration
with its five splitting lines, a projective frame is chosen sending three
of the A1 points and two of the D4 points to reference positions.  In
those coordinates the coefficient constraints forced by the splitting
lines collapse the sextic to

    x*y*z*(t^2*y*z^2 + x*z^2 + y^3 + x^3)

up to added squares and a global square rescaling of the cover
coordinate.  The certificate is one comparison with a*N(t), cross-checked
by the two other D4 points, and the parameter t is returned.
"""

from __future__ import annotations

from ..configuration import LINES, P_LABELS, Q_LABELS
from ..frozen import Frozen
from .field import BinaryField
from .poly import HomPoly
from .surfaces import (
    Line,
    Point,
    analyze_singularities,
    cross,
    intersect_lines,
    normalize_point,
    point_on_line,
    scan_splitting_lines,
    schroeer_sextic,
)


class RecognitionError(ValueError):
    pass


def normal_form_sextic(field: BinaryField, t: int) -> HomPoly:
    """x*y*z*(t^2*y*z^2 + x*z^2 + y^3 + x^3) for a nonzero parameter t: the
    family member (r, s) = (1, t)."""
    if t == 0:
        raise RecognitionError("parameter must be nonzero")
    return schroeer_sextic(field, 1, t)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _mat_vec(field: BinaryField, a, v):
    return tuple(
        field.mul(a[i][0], v[0]) ^ field.mul(a[i][1], v[1]) ^ field.mul(a[i][2], v[2])
        for i in range(3)
    )


def _mat_inv(field: BinaryField, a):
    # with columns c0, c1, c2 the rows of the inverse are c1 x c2, c2 x c0
    # and c0 x c1 over det = c0 . (c1 x c2)
    c0, c1, c2 = zip(*a)
    rows = (cross(field, c1, c2), cross(field, c2, c0), cross(field, c0, c1))
    det = field.mul(c0[0], rows[0][0]) ^ field.mul(c0[1], rows[0][1]) ^ field.mul(c0[2], rows[0][2])
    if det == 0:
        raise RecognitionError("singular projective transformation")
    dinv = field.inv(det)
    return tuple(tuple(field.mul(dinv, c) for c in row) for row in rows)


def normalize_frame(
    field: BinaryField,
    q_inf: Point,
    q_one: Point,
    q_zero: Point,
    p_00: Point,
    p_10: Point,
):
    """The projective transformation pinning the five anchor points.

    q_zero, q_inf, p_00 go to the coordinate triangle [1:0:0], [0:1:0],
    [0:0:1]; the residual diagonal scaling is fixed by sending q_one to
    [1:1:0] and p_10 to [1:0:1].  Unique up to a global scalar.  As
    ``label_configuration`` places them, q_one lies on the A1 line through
    q_zero and q_inf and p_10 on L(*0) through q_zero and p_00, each apart
    from both, so t0 sends them to [a:b:0] and [c:0:d] with a, b, c, d != 0.
    """
    a = tuple(tuple((q_zero, q_inf, p_00)[j][i] for j in range(3)) for i in range(3))
    t0 = _mat_inv(field, a)
    img_q1 = _mat_vec(field, t0, q_one)
    img_p10 = _mat_vec(field, t0, p_10)
    u0 = field.inv(img_q1[0])
    u1 = field.inv(img_q1[1])
    u2 = field.mul(field.inv(img_p10[2]), field.mul(img_p10[0], u0))
    # diag(u0, u1, u2) * t0: row i of t0 scaled by u_i
    frame = tuple(tuple(field.mul(u, c) for c in row) for u, row in zip((u0, u1, u2), t0))
    for pt, target in (
        (q_zero, (1, 0, 0)),
        (q_inf, (0, 1, 0)),
        (p_00, (0, 0, 1)),
        (q_one, (1, 1, 0)),
        (p_10, (1, 0, 1)),
    ):
        if normalize_point(field, _mat_vec(field, frame, pt)) != target:
            raise RecognitionError("frame failed to pin an anchor point")
    return frame


def apply_frame(g: HomPoly, frame) -> HomPoly:
    """Transform the form so that its zero set maps by the frame: g'(Fx) = g(x)."""
    inv = _mat_inv(g.field, frame)
    return g.compose_linear(inv)


# ---------------------------------------------------------------------------
# deterministic labeling of a configuration
# ---------------------------------------------------------------------------

def label_configuration(
    field: BinaryField,
    d4_points: list[Point],
    a1_points: list[Point],
    splitting: list[Line],
) -> dict[str, Point]:
    """The standard labels of the nine points of a five-line configuration,
    read off the rows of ``configuration.LINES``.

    The A1 nodes of the one-node rows, in table order, are the anchors q(inf)
    and q(0): they take the A1 points on two side lines each, in coordinate
    order.  Each anchor's rows take its side lines in coordinate order, p(ab)
    is where the lines of the two rows listing ab cross, and the other A1
    labels take the other A1 points in order, so an already-normalized
    configuration receives the identity labeling.  On the cube locus the
    diagonals split too; of the three A1 points on two side lines the
    smallest two are the anchors, and one may be q(c) with its two diagonals.
    Expects exactly 4 D4 and 5 A1 points, as ``recognize_surface`` checks.
    """
    a1_line = next((l for l in splitting if all(point_on_line(field, p, l) for p in a1_points)), None)
    if a1_line is None:
        raise RecognitionError("no splitting line carries all five A1 points")
    by_a1: dict[Point, list[Line]] = {p: [] for p in a1_points}
    for l in (l for l in splitting if l != a1_line):
        carriers = [p for p in a1_points if point_on_line(field, p, l)]
        if len(carriers) != 1:
            raise RecognitionError("a side line does not carry exactly one A1 point")
        by_a1[carriers[0]].append(l)
    doubles = sorted(p for p, ls in by_a1.items() if len(ls) == 2)
    if len(doubles) not in (2, 3):
        raise RecognitionError("expected two or three A1 points on two side lines each")
    rows_of: dict[str, list[str]] = {}  # each anchor's one-node rows
    for lam, (_, nodes) in LINES.items():
        if len(nodes) == 1:
            rows_of.setdefault(nodes[0], []).append(lam)
    labels: dict[str, Point] = {}
    lines: dict[str, Line] = {}
    for (c, rows), p in zip(rows_of.items(), doubles):
        labels[f"q({c})"] = p
        lines.update(zip(rows, sorted(by_a1[p])))
    rest = sorted(p for p in a1_points if p not in labels.values())
    labels.update((f"q({c})", p) for c, p in zip([c for c in Q_LABELS if c not in rows_of], rest))
    for ab in P_LABELS:
        l, m = (lines[lam] for lam, (forks, _) in LINES.items() if ab in dict(forks))
        labels[f"p({ab})"] = intersect_lines(field, l, m)
    if {labels[f"p({ab})"] for ab in P_LABELS} != set(d4_points):
        raise RecognitionError("side-line intersections do not match the D4 points")
    return labels


# ---------------------------------------------------------------------------
# normal-form extraction
# ---------------------------------------------------------------------------

def _square_reduce(g: HomPoly) -> HomPoly:
    """Drop monomials with all exponents even; they absorb into the cover coordinate."""
    return HomPoly(
        g.field,
        g.degree,
        {e: c for e, c in g.terms.items() if e[0] % 2 or e[1] % 2 or e[2] % 2},
    )


def recognize_normal_form(g: HomPoly, frame) -> int:
    """Parameter t of the normal form after moving g through the frame.

    The scaled normal form a*N(t) has the four monomials x*y^4*z, x^4*y*z,
    x^2*y*z^3 and x*y^2*z^3, with coefficients a, a, a and a*t^2: a is read
    off the first, t off the last, and the whole square-reduced form must
    equal a*N(t).  That one comparison is the certificate; a form that fails
    it is not of the nine-point, five-splitting-line shape.
    """
    f = g.field
    h = _square_reduce(apply_frame(g, frame))
    a = h.coeff((1, 4, 1))
    if a == 0:
        raise RecognitionError("pattern violation: leading cubic coefficient vanishes")
    t = f.sqrt(f.div(h.coeff((1, 2, 3)), a))
    if t == 0:
        raise RecognitionError("degenerate parameter t = 0")
    if h != normal_form_sextic(f, t).scale(a):
        raise RecognitionError("reduced sextic is not the scaled normal form")
    return t


class RecognitionResult(Frozen):
    __slots__ = ("t",)
    t: int


def recognize_surface(g: HomPoly) -> RecognitionResult:
    """Full pipeline: singular points, labeling, frame, normal-form parameter.

    The parameter read from the coefficients must agree with the anchors:
    the frame takes p(01) to (0, t, 1) and p(11) to (1, t, 1).  Only a
    sextic can carry the configuration.
    """
    if g.degree != 6:
        raise RecognitionError(f"only sextics are recognized, not degree {g.degree}")
    f = g.field
    report = analyze_singularities(g)
    d4 = report.of_type("D4")
    a1 = report.of_type("A1")
    if len(d4) != 4 or len(a1) != 5 or len(report.points) != 9:
        raise RecognitionError("surface does not carry the nine-point configuration")
    pts = label_configuration(f, d4, a1, [c.line for c in scan_splitting_lines(g)])
    frame = normalize_frame(
        f, pts["q(inf)"], pts["q(1)"], pts["q(0)"], pts["p(00)"], pts["p(10)"]
    )
    t = recognize_normal_form(g, frame)
    images = [normalize_point(f, _mat_vec(f, frame, pts[p])) for p in ("p(01)", "p(11)")]
    if images != [(0, t, 1), (1, t, 1)]:
        raise RecognitionError("coefficient parameter disagrees with the anchor position")
    return RecognitionResult(t=t)
