import random
import time
from functools import reduce
from operator import xor

import pytest

from k3lat.char2_surfaces import surfaces
from k3lat.char2_surfaces.field import BinaryField, FieldError
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import RecognitionError, apply_frame, normal_form_sextic, recognize_surface
from k3lat.char2_surfaces.upoly import trim
from k3lat.char2_surfaces.surfaces import (
    SplittingCertificate,
    SurfaceError,
    analyze_singularities,
    classify_singularity,
    intersect_lines,
    is_splitting,
    line_through,
    normalize_line,
    normalize_point,
    point_on_line,
    restrict_to_line,
    scan_splitting_lines,
    schroeer_sextic,
    singular_points,
    table_lines,
    table_points,
    total_milnor,
    verify_configuration,
)
from surface_oracles import all_lines, evaluate, pencil_walk_lines, pencil_walk_scan, per_x_singular_points
from test_char2_poly import compose_onto_line, multiplicity_at


def all_points(field):
    """Every point of PG(2, q), normalized, in chart order."""
    q = field.q
    for x in range(q):
        for y in range(q):
            yield (x, y, 1)
    for x in range(q):
        yield (x, 1, 0)
    yield (1, 0, 0)


def test_schroeer_coefficients(gf16):
    f = gf16
    r, s = 3, 7
    g = schroeer_sextic(f, r, s)
    assert g.coeff((1, 4, 1)) == 1
    assert g.coeff((4, 1, 1)) == 1
    assert g.coeff((1, 2, 3)) == f.sqr(s)
    assert g.coeff((2, 1, 3)) == f.sqr(r)
    assert g.degree == 6


def test_schroeer_degenerate_parameters_still_build(gf16):
    g = schroeer_sextic(gf16, 0, 0)
    assert g.terms == {(1, 4, 1): 1, (4, 1, 1): 1}


def test_even_exponent_partial_dies(gf16):
    g = HomPoly(gf16, 6, {(6, 0, 0): 1, (1, 5, 0): 1})
    assert g.partial(0).terms == {(0, 5, 0): 1}


def test_singular_points_match_table(gf16):
    f = gf16
    r, s = 1, f.exp[1]  # s outside GF(4) inside GF(16)
    g = schroeer_sextic(f, r, s)
    pts = singular_points(g)
    assert len(pts) == 9
    assert set(pts) == set(table_points(f, r, s).values())


def test_singular_points_match_slow_oracle(gf16):
    # independent path: evaluate the three partials with the generic
    # polynomial evaluator at every projective point
    f = gf16
    generic = HomPoly(
        f, 6, {(5, 1, 0): 1, (1, 5, 0): 1, (0, 1, 5): 3, (2, 3, 1): 7, (1, 1, 4): 9}
    )
    for g in (schroeer_sextic(f, 2, f.exp[1]), generic):
        parts = [g.partial(v) for v in range(3)]
        slow = [p for p in all_points(f) if all(evaluate(q, p) == 0 for q in parts)]
        assert sorted(singular_points(g)) == sorted(slow)


def test_singular_points_infinite_locus_detected(gf16):
    square = HomPoly(gf16, 6, {(2, 2, 2): 1, (6, 0, 0): 1})
    with pytest.raises(SurfaceError):
        singular_points(square)


def test_classification_local_models(gf16):
    f = gf16
    # w^2 = x*y + x^3*y^3 at the origin of the z = 1 chart
    node = HomPoly(f, 6, {(1, 1, 4): 1, (3, 3, 0): 1})
    assert classify_singularity(node, (0, 0, 1)) == "A1"
    # w^2 = x^2*y + x*y^2: three distinct cubic roots
    fork = HomPoly(f, 6, {(2, 1, 3): 1, (1, 2, 3): 1})
    assert classify_singularity(fork, (0, 0, 1)) == "D4"
    # smooth point: linear term survives
    smooth = HomPoly(f, 6, {(1, 0, 5): 1})
    with pytest.raises(SurfaceError):
        classify_singularity(smooth, (0, 0, 1))
    # repeated cubic root: not a fork point
    worse = HomPoly(f, 6, {(2, 1, 3): 1})
    assert classify_singularity(worse, (0, 0, 1)) == "Other"


def test_classification_of_family_points(gf16):
    f = gf16
    r, s = 1, f.exp[1]
    g = schroeer_sextic(f, r, s)
    named = table_points(f, r, s)
    for label, p in named.items():
        expected = "D4" if label.startswith("p") else "A1"
        assert classify_singularity(g, p) == expected
    assert total_milnor(analyze_singularities(g)) == 21


def test_five_standard_lines_split_with_certificates(gf16):
    f = gf16
    r, s = 1, f.exp[1]
    g = schroeer_sextic(f, r, s)
    for name, l in table_lines(f, r, s).items():
        cert = is_splitting(g, l)
        assert cert is not None, name
        assert cert.verify(g)


def test_fork_line_certificate_shape(gf16):
    f = gf16
    r, s = 3, 7
    g = schroeer_sextic(f, r, s)
    # certificate from the displayed parametrization: gamma = sqrt(r) x1 x2 (x1 + s x2)
    sqrt_r = f.sqrt(r)
    gamma = HomPoly(
        f, 3, {(0, 2, 1): sqrt_r, (0, 1, 2): f.mul(sqrt_r, s)}
    )
    ell = (1, 0, r)
    quintic = (g + gamma.square()).divide_by_linear(ell)
    assert (HomPoly.linear(f, ell) * quintic) + gamma.square() == g
    # the canonical certificate differs but also verifies
    cert = is_splitting(g, ell)
    assert cert is not None and cert.verify(g)


@pytest.mark.parametrize(
    "line,error,match",
    [
        (None, SurfaceError, "splitting certificate failed to verify"),
        ((0, 0, 0), SurfaceError, "nonzero linear form"),
        ((1, 16, 0), FieldError, "out of range"),
    ],
    ids=["unverified", "zero-triple", "outside-the-field"],
)
def test_is_splitting_rejects_a_certificate_that_does_not_verify(gf16, monkeypatch, line, error, match):
    f = gf16
    g = schroeer_sextic(f, 1, f.exp[1])
    ell = scan_splitting_lines(g)[0].line if line is None else line
    monkeypatch.setattr(surfaces.SplittingCertificate, "verify", lambda self, g: False)
    with pytest.raises(error, match=match):
        is_splitting(g, ell)
    if line is not None:
        # a triple that is not a line of the plane is rejected before any certificate
        with pytest.raises(error, match=match):
            restrict_to_line(g, ell)


def test_diagonal_line_does_not_split(gf16):
    f = gf16
    s = f.exp[1]
    g = schroeer_sextic(f, 1, s)
    assert is_splitting(g, (1, 1, 0)) is None


def test_full_configuration_gf16(gf16):
    f = gf16
    r, s = 1, f.exp[1]
    conf = verify_configuration(f, r, s)
    assert not conf.findings, conf.findings
    assert total_milnor(conf.types) == 21
    lines = [cert.line for cert in conf.certificates]
    assert len(lines) == 5
    assert set(lines) == set(table_lines(f, r, s).values())
    for cert in conf.certificates:
        assert cert.verify(schroeer_sextic(f, r, s))


def test_full_scan_gf256_finds_exactly_five_lines():
    f = BinaryField(8)
    r, s = 1, f.exp[1]
    conf = verify_configuration(f, r, s)
    assert not conf.findings, conf.findings
    lines = [cert.line for cert in conf.certificates]
    assert len(lines) == 5
    assert set(lines) == set(table_lines(f, r, s).values())


def test_extra_line_when_cubes_match(gf16):
    f = gf16
    w = f.omega()
    r = 2
    s = f.mul(w, r)  # r^3 = s^3 with r != s
    g = schroeer_sextic(f, r, s)
    m = line_through(f, (0, 0, 1), (r, s, 1))
    cert = is_splitting(g, m)
    assert cert is not None and cert.verify(g)
    conf = verify_configuration(f, r, s)
    lines = [cert.line for cert in conf.certificates]
    # the five standard lines plus both diagonals of the fork points
    assert len(lines) == 7
    assert m in lines
    m2 = line_through(f, (0, s, 1), (r, 0, 1))
    assert m2 in lines
    # the A1 point q(c) with s = c*r sits on the first diagonal
    from k3lat.char2_surfaces.surfaces import normalize_point, point_on_line

    qc = normalize_point(f, (1, w, 0))
    assert conf.types[qc] == "A1"
    assert point_on_line(f, qc, m)


@pytest.mark.parametrize("cube_locus", [False, True], ids=["off-cube", "on-cube"])
def test_one_extra_splitting_line_fails_the_configuration(gf16, monkeypatch, cube_locus):
    # the scan reports one line more than the family member has (5 off the
    # cube locus, 7 on it); nothing else is wrong, so the count is the finding
    f = gf16
    r = 2
    s = f.mul(f.omega(), r) if cube_locus else 3
    assert surfaces.on_cube_locus(f, r, s) == cube_locus
    real = surfaces.scan_splitting_lines

    def one_more(g):
        scan = real(g)
        lines = {cert.line for cert in scan}
        extra = next(l for l in all_lines(f) if l not in lines)
        return scan + [SplittingCertificate(extra, scan[0].quintic, scan[0].cubic)]

    monkeypatch.setattr(surfaces, "scan_splitting_lines", one_more)
    conf = verify_configuration(f, r, s)
    n = 7 if cube_locus else 5
    assert conf.findings == (f"expected {n} splitting lines, found {n + 1}",)


def test_an_a1_point_off_the_a1_line_is_a_moved_labeled_point(gf16, monkeypatch):
    # the five A1 points must be the table's q(c), all on L(inf): a found A1
    # point off that line is therefore reported by the coordinate check
    f = gf16
    r, s = 1, f.exp[1]
    q_one = table_points(f, r, s)["q(1)"]
    off = (1, 1, 1)
    assert not point_on_line(f, off, table_lines(f, r, s)["L(inf)"])
    real = surfaces.analyze_singularities

    def moved(g):
        types = real(g)
        assert types[q_one] == "A1" and off not in types
        return {off if p == q_one else p: t for p, t in types.items()}

    monkeypatch.setattr(surfaces, "analyze_singularities", moved)
    conf = verify_configuration(f, r, s)
    assert conf.findings == ("A1 points differ from the labeled coordinates",)


def test_dichotomy_sampled_pairs(gf16):
    f = gf16
    cases = [(1, 2), (3, 5), (2, f.mul(f.omega(), 2)), (4, 4), (7, f.mul(f.sqr(f.omega()), 7))]
    for r, s in cases:
        g = schroeer_sextic(f, r, s)
        m = line_through(f, (0, 0, 1), (r, s, 1))
        splits = is_splitting(g, m) is not None
        assert splits == (f.pow(r, 3) == f.pow(s, 3))


def test_dichotomy_sampled_gf256():
    import random

    f = BinaryField(8)
    w = f.omega()
    rng = random.Random(6)
    for _ in range(10):
        r = rng.randrange(1, f.q)
        s = rng.randrange(1, f.q)
        for rr, ss in ((r, s), (r, f.mul(w, r))):
            g = schroeer_sextic(f, rr, ss)
            m = line_through(f, (0, 0, 1), (rr, ss, 1))
            splits = is_splitting(g, m) is not None
            assert splits == (f.pow(rr, 3) == f.pow(ss, 3))


def test_splitting_agrees_with_square_test_random(gf16):
    # the certificate path (division plus verification) and the bare
    # square test of the restriction must agree
    import random

    f = gf16
    rng = random.Random(31)
    checked = split_count = 0
    while checked < 100:
        terms = {}
        for l in range(7):
            for m in range(7 - l):
                if rng.random() < 0.25:
                    terms[(l, m, 6 - l - m)] = rng.randrange(f.q)
        g = HomPoly(f, 6, terms)
        ell_coeffs = [rng.randrange(f.q) for _ in range(3)]
        if not any(ell_coeffs):
            continue
        # make half the draws splitting by construction
        if checked % 2 == 0:
            ell = HomPoly.linear(f, ell_coeffs)
            quintic = HomPoly(
                f, 5, {(l, m, 5 - l - m): rng.randrange(f.q) for l in range(6) for m in range(6 - l)}
            )
            cubic = HomPoly(f, 3, {(1, 1, 1): rng.randrange(f.q), (3, 0, 0): rng.randrange(f.q)})
            g = (ell * quintic) + cubic.square()
        cert = is_splitting(g, ell_coeffs)
        square = restrict_to_line(g, ell_coeffs).is_square()
        assert (cert is not None) == (square is not None)
        if cert is not None:
            assert cert.verify(g)
            split_count += 1
        checked += 1
    assert split_count >= 50


def test_quintic_transversality_matches_classification(gf16):
    # points on a splitting line are nodes exactly when the certificate
    # quintic meets the line simply there
    f = gf16
    r, s = 1, f.exp[1]
    g = schroeer_sextic(f, r, s)
    singular = set(singular_points(g))
    for name, l in table_lines(f, r, s).items():
        cert = is_splitting(g, l)
        restricted_quintic = restrict_to_line(cert.quintic, l)
        elim = max(v for v in range(3) if l[v])
        kept = tuple(v for v in range(3) if v != elim)
        for p in all_points(f):
            from k3lat.char2_surfaces.surfaces import point_on_line

            if not point_on_line(f, p, l):
                continue
            u, v = p[kept[0]], p[kept[1]]
            mult = (
                multiplicity_at(restricted_quintic, u, v)
                if any(restricted_quintic.coeffs)
                else None
            )
            if mult == 0:
                assert p not in singular
            elif mult == 1:
                assert p in singular and classify_singularity(g, p) == "A1"
            else:
                assert p in singular


# ---------------------------------------------------------------------------
# pencil searches and the gcd singular-point search against the replaced
# per-line and per-point algorithms, kept here as oracles
# ---------------------------------------------------------------------------

SMALL_FIELDS = [(2, None), (4, None), (6, 0b1000011)]


def test_normalize_point_is_scale_invariant(gf16):
    f = gf16
    for p in [(3, 5, 1), (7, 1, 0), (1, 0, 0)]:
        for scale in (2, 9, 15):
            assert normalize_point(f, tuple(f.mul(scale, c) for c in p)) == p


def test_zero_triples_and_coincident_lines_are_rejected(gf16):
    with pytest.raises(SurfaceError, match=r"^\(0:0:0\) is not a projective point$"):
        normalize_point(gf16, (0, 0, 0))
    with pytest.raises(SurfaceError, match=r"^zero line$"):
        normalize_line(gf16, (0, 0, 0))
    with pytest.raises(SurfaceError, match=r"^lines coincide; no unique intersection$"):
        intersect_lines(gf16, (1, 2, 3), (1, 2, 3))


def brute_force_singular_points(g):
    """The replaced q^2 scan: every point of the z = 1 chart, then z = 0.

    Returns None when all partials vanish and the full point list otherwise,
    however long.
    """
    f = g.field
    parts = [g.partial(v) for v in range(3)]
    if all(p.is_zero() for p in parts):
        return None
    pterms = [sorted(p.terms.items()) for p in parts]
    out = []
    for x in range(f.q):
        specialized = []
        for terms in pterms:
            acc = {}
            for (l, m, n), c in terms:
                acc[m] = acc.get(m, 0) ^ f.mul(c, f.pow(x, l))
            specialized.append(list(acc.items()))
        for y in range(f.q):
            if all(reduce(xor, (f.mul(c, f.pow(y, m)) for m, c in sp), 0) == 0 for sp in specialized):
                out.append((x, y, 1))
    for p in [(x, 1, 0) for x in range(f.q)] + [(1, 0, 0)]:
        if all(evaluate(part, p) == 0 for part in parts):
            out.append(p)
    return out


def _seeded_sextics(f, rng):
    """Family members (r or s zero included), sparse, dense and non-reduced sextics."""
    monomials = [(l, m, 6 - l - m) for l in range(7) for m in range(7 - l)]
    nonzero = lambda: rng.randrange(1, f.q)
    out = [
        schroeer_sextic(f, nonzero(), nonzero()),
        schroeer_sextic(f, nonzero(), nonzero()),
        schroeer_sextic(f, 0, nonzero()),
        schroeer_sextic(f, nonzero(), 0),
        schroeer_sextic(f, 0, 0),
    ]
    for _ in range(3):
        out.append(HomPoly(f, 6, {e: nonzero() for e in rng.sample(monomials, 4)}))
    for _ in range(2):
        out.append(HomPoly(f, 6, {e: nonzero() for e in monomials}))
    # a square factor puts a whole line into the singular locus
    quartic = HomPoly(f, 4, {(l, m, 4 - l - m): nonzero() for l in range(5) for m in range(5 - l)})
    out.append(HomPoly(f, 2, {(2, 0, 0): 1}) * quartic)
    out.append(HomPoly(f, 2, {(0, 2, 0): 1}) * quartic)
    out.append(HomPoly(f, 3, {e: nonzero() for e in [(3, 0, 0), (1, 1, 1), (0, 2, 1)]}).square())
    if f.q > 2:  # two conjugate singular lines with one rational point
        out.append(_conjugate_lines_sextic(f, {(1, 1, 0): 1, (0, 1, 1): nonzero(), (1, 0, 1): 1}))
    # singular at (0:1:0), (1:1:0) and (1:0:0) only, all on z = 0; scaling
    # x0 and x1 keeps them there and moves (1:1:0) off x = 1
    at_infinity = HomPoly(f, 6, {(0, 0, 6): 1, (1, 0, 5): 1, (2, 3, 1): 1, (4, 1, 1): 1})
    out.append(at_infinity.compose_linear([[nonzero(), 0, 0], [0, nonzero(), 0], [0, 0, 1]]))
    return out


def _conjugate_lines_sextic(f, quadric_terms):
    """N(x0, x1)^2 * H with N = x0^2 + x0 x1 + c x1^2 irreducible over GF(q).

    The partials share the factor N^2, so every vertical line x0 = x meets
    the singular locus, but the only rational point of N = 0 is (0:0:1).
    """
    artin_schreier = {f.sqr(u) ^ u for u in range(f.q)}
    c = next(c for c in range(1, f.q) if c not in artin_schreier)
    n = HomPoly(f, 2, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): c})
    return n.square() * HomPoly(f, 2, quadric_terms)


@pytest.mark.parametrize(
    "k,modulus", SMALL_FIELDS + [(8, None)], ids=["k2", "k4", "k6", "k8"]
)
def test_singular_points_match_brute_force_oracle(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"singular/{k}")
    finite = 0
    for g in _seeded_sextics(f, rng):
        expected = brute_force_singular_points(g)
        if expected is None or len(expected) > 25:
            with pytest.raises(SurfaceError):
                singular_points(g)
        else:
            assert singular_points(g) == expected
            finite += 1
    assert finite >= 9
    # the last kind puts every singular point on z = 0
    expected = brute_force_singular_points(g)
    assert len(expected) == 3 and all(p[2] == 0 for p in expected)


@pytest.mark.parametrize("square", [(2, 0, 0), (0, 2, 0)], ids=["x0-line", "x1-line"])
def test_singular_curve_stops_at_the_bezout_bound_k16(gf65536, square):
    f = gf65536
    quartic = HomPoly(f, 4, {(4, 0, 0): 1, (1, 3, 0): 5, (0, 1, 3): 7, (2, 1, 1): 11, (0, 0, 4): 3})
    g = HomPoly(f, sum(square), {square: 1}) * quartic
    start = time.perf_counter()
    with pytest.raises(SurfaceError, match="Bezout bound 25"):
        singular_points(g)
    # about 26 * 65536 evaluations for the x1-line, hours for a q^2 scan
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("degree", [0, 4, 5, 7])
def test_singular_points_need_a_sextic(gf16, degree):
    # the Bezout bound 25 and the chart rules are sextic facts
    g = HomPoly(gf16, degree, {(degree, 0, 0): 1, (0, 0, degree): 3})
    with pytest.raises(SurfaceError, match=f"not for degree {degree}"):
        singular_points(g)


def test_singular_curve_without_rational_points_is_not_scanned():
    # the gcd of the partials is nonconstant at every x; a scan over y at
    # each of them would make 4096^2 evaluations (about 20 s)
    f = BinaryField(12, 0x1053)
    a01, a02, a12 = 1, 0x234, 1
    g = _conjugate_lines_sextic(f, {(1, 1, 0): a01, (1, 0, 1): a02, (0, 1, 1): a12})
    start = time.perf_counter()
    pts = singular_points(g)
    assert time.perf_counter() - start < 5.0
    # besides (0:0:1), the partials N^2 * dH/dx_i vanish where the three
    # linear forms dH/dx_i meet (for a quadric in characteristic 2 they do)
    nucleus = intersect_lines(f, (0, a01, a02), (a01, 0, a12))
    assert pts == sorted({(0, 0, 1), nucleus}, key=lambda p: (-p[2], p))


# ---------------------------------------------------------------------------
# singular points by elimination against the walk over every x
# ---------------------------------------------------------------------------

_FRAME = ((1, 0x5A, 3), (7, 1, 0x9C), (0x21, 0x400, 1))


def _candidate_xs(g):
    """The x's of the points (x, y, 1) that the elimination walks for the singular points of g."""
    vertical = [trim(surfaces._restrict_to_pencil(g.partial(v), (1, 0, 0), (0, 0, 1))) for v in range(3)]
    return surfaces._candidate_bs(g.field, vertical)


def test_singular_points_match_the_per_x_walk_k12():
    f = BinaryField(12, 0x1053)
    seeded = _seeded_sextics(f, random.Random("per-x/12"))
    # family members, sparse and dense kinds, and the kind singular on z = 0
    # only; N^2 * H is pinned by its own test, and a square factor puts
    # 4097 points into the walk
    cases = seeded[:10] + seeded[-1:] + [apply_frame(normal_form_sextic(f, 0x123), _FRAME)]
    finite = 0
    for g in cases:
        expected = per_x_singular_points(g)
        if expected is None or len(expected) > 25:
            with pytest.raises(SurfaceError):
                singular_points(g)
        else:
            assert singular_points(g) == list(expected)
            finite += 1
    assert finite >= 10


def test_singular_points_eliminate_before_they_walk():
    f = BinaryField(8)
    rng = random.Random("candidate-xs")
    members = [schroeer_sextic(f, rng.randrange(1, f.q), rng.randrange(1, f.q)) for _ in range(4)]
    members += [schroeer_sextic(f, 0, 7), schroeer_sextic(f, 7, 0)]
    # a resultant of two quintics has at most 25 roots
    assert all(len(_candidate_xs(g)) <= 25 for g in members)
    f12 = BinaryField(12, 0x1053)
    assert len(_candidate_xs(apply_frame(normal_form_sextic(f12, 0x123), _FRAME))) <= 25
    # the partials of N^2 * H share N: every resultant is zero and every x is walked
    g = _conjugate_lines_sextic(f12, {(1, 1, 0): 1, (1, 0, 1): 0x234, (0, 1, 1): 1})
    assert list(_candidate_xs(g)) == list(range(f12.q))


@pytest.mark.parametrize("framed", [False, True], ids=["member", "framed"])
def test_singular_points_k16_budget(gf65536, framed):
    f = gf65536
    g = apply_frame(normal_form_sextic(f, 0x123), _FRAME) if framed else schroeer_sextic(f, 3, 5)
    start = time.perf_counter()
    pts = singular_points(g)
    # the walk over every x took about 1.2 s on the member and 2.8 s framed
    assert time.perf_counter() - start <= 0.1
    assert len(pts) == 9
    if framed:
        assert recognize_surface(g) == 0x123
    else:
        assert set(pts) == set(table_points(f, 3, 5).values())


def test_pencil_restriction_specializes_to_each_line(gf16):
    f = gf16
    rng = random.Random("pencil-restriction")
    for g in _seeded_sextics(f, rng):
        x, y = rng.randrange(f.q), rng.randrange(f.q)
        # the pencils through (x, y, 1), (x, 1, 0) and (1, 0, 0)
        for a, b in (((1, 0, x), (0, 1, y)), ((1, x, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1))):
            rows = surfaces._restrict_to_pencil(g, a, b)
            e = next(v for v in range(3) if a[v])
            for t in range(f.q):
                line = tuple(ai ^ f.mul(t, bi) for ai, bi in zip(a, b))
                coeffs, _ = compose_onto_line(g, line, e)
                at_t = [reduce(xor, (f.mul(c, f.pow(t, k)) for k, c in enumerate(row)), 0) for row in rows]
                assert tuple(reversed(at_t)) == coeffs


def per_line_scan(g, candidates):
    """The replaced scan: is_splitting on each candidate line, in line order."""
    certs = (is_splitting(g, l) for l in sorted(set(candidates)))
    return [cert for cert in certs if cert is not None]


@pytest.mark.parametrize("k,modulus", SMALL_FIELDS, ids=["k2", "k4", "k6"])
def test_full_scan_matches_per_line_oracle(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"full-scan/{k}")
    for g in _seeded_sextics(f, rng):
        # lines and certificates alike
        assert scan_splitting_lines(g) == per_line_scan(g, all_lines(f))


def test_scan_calls_is_splitting_once_per_reported_line(gf256, monkeypatch):
    f = gf256
    w = f.omega()
    for r, s, count in ((3, 7, 5), (2, f.mul(w, 2), 7)):
        g = schroeer_sextic(f, r, s)
        calls = []
        real = surfaces.is_splitting

        def counting(g, ell):
            calls.append(ell)
            return real(g, ell)

        monkeypatch.setattr(surfaces, "is_splitting", counting)
        found = scan_splitting_lines(g)
        monkeypatch.undo()
        assert len(found) == count
        assert calls == [cert.line for cert in found]
        assert set(table_lines(f, r, s).values()) <= {cert.line for cert in found}


def test_odd_degree_form_has_no_splitting_lines(gf16):
    # is_splitting never certifies an odd-degree restriction, not even zero;
    # the scan takes even degrees only, and the lines it solves for an odd
    # form fail their certificates
    g = HomPoly(gf16, 5, {(0, 0, 5): 1, (1, 4, 0): 3, (2, 2, 1): 5})
    with pytest.raises(SurfaceError, match="does not split"):
        scan_splitting_lines(g)
    assert per_line_scan(g, all_lines(gf16)) == []


def test_scan_raises_when_a_pencil_root_does_not_split(gf16, monkeypatch):
    g = schroeer_sextic(gf16, 1, gf16.exp[1])
    monkeypatch.setattr(surfaces, "is_splitting", lambda g, ell: None)
    with pytest.raises(SurfaceError, match="does not split"):
        scan_splitting_lines(g)


# ---------------------------------------------------------------------------
# the full scan by elimination in the dual plane against the q + 1 pencil walk
# ---------------------------------------------------------------------------

def _x0_q_plus_square(f, rng):
    """x0*Q + Gamma^2 with random Q and Gamma: the line x0 = 0 always splits."""
    form = lambda d: HomPoly(
        f, d, {(l, m, d - l - m): rng.randrange(f.q) for l in range(d + 1) for m in range(d + 1 - l)}
    )
    return HomPoly(f, 1, {(1, 0, 0): 1}) * form(5) + form(3).square()


def _framed_family_members(f, rng, count):
    out = []
    while len(out) < count:
        r, s = rng.randrange(1, f.q), rng.randrange(1, f.q)
        frame = tuple(tuple(rng.randrange(f.q) for _ in range(3)) for _ in range(3))
        try:
            out.append(apply_frame(schroeer_sextic(f, r, s), frame))
        except RecognitionError:  # a singular frame
            continue
    return out


def _every_line_through_the_origin_splits(f, rng):
    """Terms with an even power of x2 only: on x0 = b*x1 every term is a square.

    The odd coefficients P_m(b, c) all vanish at c = 0, so they share the
    factor c, every resultant is zero and the scan walks every pencil.
    """
    monomials = [(l, m, 6 - l - m) for l in range(7) for m in range(7 - l) if (6 - l - m) % 2 == 0]
    return HomPoly(f, 6, {e: rng.randrange(1, f.q) for e in monomials})


def _selected_lines(g):
    """The lines the full scan certifies: those the elimination finds."""
    return tuple(surfaces._lines_where(g))


def _selected_bs(g):
    """The b's of the lines (1, b, c) that the elimination walks for the scan of g."""
    return surfaces._candidate_bs(g.field, surfaces._coefficients_in_b_c(g))


@pytest.mark.parametrize("k,modulus", [(4, None), (6, 0b1000011), (8, None)], ids=["k4", "k6", "k8"])
def test_full_scan_matches_the_pencil_walk(k, modulus):
    f = BinaryField(k, modulus)
    rng = random.Random(f"elimination/{k}")
    x0_kind = [_x0_q_plus_square(f, rng) for _ in range(4)]
    cases = (
        _seeded_sextics(f, rng)
        + x0_kind
        + _framed_family_members(f, rng, 3)
        + [_every_line_through_the_origin_splits(f, rng)]
    )
    selective = 0
    for g in cases:
        if len(pencil_walk_lines(g)) > 2 * (f.q + 1):
            # a square: every line splits, and certifying all q^2 + q + 1
            # twice would take seconds at k = 8; the certificate path is
            # the same for every line, so the line lists are compared
            assert _selected_lines(g) == pencil_walk_lines(g)
        else:
            # lines and certificates alike
            assert scan_splitting_lines(g) == list(pencil_walk_scan(g))
        selective += len(_selected_bs(g)) < f.q
    # dense sextics need 27 points, more than GF(16) has
    assert selective >= {4: 4, 6: 15, 8: 15}[k]
    # the line x0 = 0 splits on every x0*Q + Gamma^2, through the pencil at b = 0
    assert all((1, 0, 0) in pencil_walk_lines(g) for g in x0_kind)


def test_full_scan_walks_every_pencil_when_the_conditions_share_a_component():
    f = BinaryField(6, 0b1000011)
    g = _every_line_through_the_origin_splits(f, random.Random(3))
    assert all(not p[0] for p in surfaces._coefficients_in_b_c(g))  # each P has the factor c
    assert list(_selected_bs(g)) == list(range(f.q))
    found = scan_splitting_lines(g)
    assert found == list(pencil_walk_scan(g))
    assert {(1, b, 0) for b in range(f.q)} <= {cert.line for cert in found}


def test_odd_coefficients_specialize_to_the_pencil_restriction(gf16):
    f = gf16
    rng = random.Random("odd-coefficients")
    at = lambda row, b: reduce(xor, (f.mul(c, f.pow(b, e)) for e, c in enumerate(row)), 0)
    for g in _seeded_sextics(f, rng):
        polys = surfaces._coefficients_in_b_c(g)
        for b in range(f.q):
            rows = surfaces._restrict_to_pencil(g, (1, b, 0), (0, 0, 1))[1::2]
            assert [trim([at(row, b) for row in p]) for p in polys] == rows


def test_full_scan_raises_when_the_resultant_misses_its_re_check(gf256, monkeypatch):
    # the interpolant through d_i*d_j + 1 values must also match the next one
    g = schroeer_sextic(gf256, 3, 5)
    real = surfaces.resultant
    calls = []

    def off_at_the_last_point(f, a, b, da, db):
        calls.append(None)
        value = real(f, a, b, da, db)
        return value ^ 1 if len(calls) == 10 else value

    monkeypatch.setattr(surfaces, "resultant", off_at_the_last_point)
    with pytest.raises(SurfaceError, match="differs at b = 9"):
        scan_splitting_lines(g)


@pytest.mark.parametrize("framed", [False, True], ids=["family-member", "framed-normal-form"])
def test_full_scan_k16_budget(gf65536, framed):
    f = gf65536
    g = schroeer_sextic(f, 3, 5)
    if framed:
        g = apply_frame(normal_form_sextic(f, 0x123), ((1, 0x5A, 3), (7, 1, 0x9C), (0x21, 0x400, 1)))
    start = time.perf_counter()
    found = scan_splitting_lines(g)
    # the walk over all 65,537 pencils took about 1.7 s
    assert time.perf_counter() - start < 0.1
    assert len(found) == 5
    # the pencils walked: one per b, and the one holding the lines with a0 = 0
    assert len(_selected_bs(g)) + 1 < 30
