import random

import pytest

from k3lat.char2_surfaces import recognize
from k3lat.char2_surfaces.field import BinaryField, FieldError
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import (
    RecognitionError,
    normal_form_sextic,
    normalize_frame,
    recognize_normal_form,
    recognize_surface,
)
from k3lat.char2_surfaces.surfaces import schroeer_sextic, verify_configuration
from surface_oracles import cascade_normal_form


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_cubic(field, rng):
    terms = {}
    for l in range(4):
        for m in range(4 - l):
            if rng.random() < 0.4:
                terms[(l, m, 3 - l - m)] = rng.randrange(field.q)
    return HomPoly(field, 3, terms)


def test_normal_form_singularities_are_reference_points(gf16):
    f = gf16
    t = 5
    g = normal_form_sextic(f, t)
    from k3lat.char2_surfaces.surfaces import singular_points

    w = f.omega()
    assert set(singular_points(g)) == {
        (0, 0, 1),
        (0, t, 1),
        (1, 0, 1),
        (1, t, 1),
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 0),
        (f.inv(w), 1, 0),
        (f.inv(f.sqr(w)), 1, 0),
    }


def test_normalize_frame_identity_case(gf16):
    f = gf16
    frame = normalize_frame(f, (0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
    # identity up to a global scalar
    scale = frame[0][0]
    assert scale != 0
    assert all(
        frame[i][j] == (scale if i == j else 0) for i in range(3) for j in range(3)
    )


def test_normalize_frame_rejects_collinear_anchors(gf16):
    f = gf16
    with pytest.raises(RecognitionError):
        normalize_frame(f, (1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 2, 0), (1, 3, 0))


def test_frame_check_fires_when_the_diagonal_scaling_is_lost(monkeypatch):
    # anchors whose triangle is the coordinate one, so the frame is the
    # scaling alone; a field whose inverses are all 1 scales every row by 1
    # and leaves q_one at [1:2:0]
    f = BinaryField(4)
    monkeypatch.setattr(f, "inv", lambda a: 1)
    with pytest.raises(RecognitionError, match="frame failed to pin an anchor point"):
        normalize_frame(f, (0, 1, 0), (1, 2, 0), (1, 0, 0), (0, 0, 1), (1, 0, 3))


def test_recognize_normal_form_direct(gf16):
    f = gf16
    for t in (1, 2, 9):
        g = normal_form_sextic(f, t)
        assert recognize_normal_form(g, IDENTITY) == t


def test_recognize_ignores_added_squares(gf16):
    f = gf16
    rng = random.Random(4)
    t = 6
    g = normal_form_sextic(f, t)
    for _ in range(5):
        gamma = random_cubic(f, rng)
        assert recognize_normal_form(g + gamma.square(), IDENTITY) == t


def test_recognize_ignores_square_rescaling(gf16):
    f = gf16
    t = 11
    g = normal_form_sextic(f, t)
    for c in (2, 5, 9):
        assert recognize_normal_form(g.scale(f.sqr(c)), IDENTITY) == t


def test_recognize_rejects_pattern_violation(gf16):
    f = gf16
    bad = normal_form_sextic(f, 3) + HomPoly(f, 6, {(0, 5, 1): 1})
    with pytest.raises(RecognitionError):
        recognize_normal_form(bad, IDENTITY)


@pytest.mark.parametrize(
    "term,broken",
    [
        # x y^3 z^2 is one of the terms that the splitting lines rule out
        ({(1, 3, 2): 1}, "transversality constraints fail"),
        # the x^2 y z^3 coefficient becomes 2, while d, at x^4 y z, stays 1
        ({(2, 1, 3): 3}, "the two fork-line relations disagree"),
        # b = 1 breaks a + b + c + d = 0 while the fork relation still holds
        ({(2, 3, 1): 1}, "the unit-point relation fails"),
    ],
)
def test_recognize_pattern_checks_fire(gf16, term, broken):
    # each input breaks the relation named by broken; the one comparison
    # with a*N(t) rejects it
    bad = normal_form_sextic(gf16, 3) + HomPoly(gf16, 6, term)
    with pytest.raises(RecognitionError, match="reduced sextic is not the scaled normal form"):
        recognize_normal_form(bad, IDENTITY)


def test_one_comparison_rejects_what_the_cascade_rejects():
    # scaled normal forms plus 0-3 random monomials: the cascade of the
    # splitting-line relations and the one comparison with a*N(t) raise on
    # the same forms and read the same t off the others; the comparison's
    # three raises (a = 0, t = 0, a mismatch) all fire
    monomials = [(l, m, 6 - l - m) for l in range(7) for m in range(7 - l)]
    messages = set()
    accepted = 0
    for k in (2, 4, 8):
        f = BinaryField(k)
        rng = random.Random(k)
        for _ in range(2000):
            g = normal_form_sextic(f, rng.randrange(1, f.q)).scale(rng.randrange(1, f.q))
            extra = {e: rng.randrange(1, f.q) for e in rng.sample(monomials, rng.randrange(4))}
            g = g + HomPoly(f, 6, extra)
            try:
                expected = cascade_normal_form(g, IDENTITY)
            except RecognitionError:
                with pytest.raises(RecognitionError) as info:
                    recognize_normal_form(g, IDENTITY)
                messages.add(str(info.value))
            else:
                assert recognize_normal_form(g, IDENTITY) == expected, (k, g)
                accepted += 1
    assert 2000 < accepted < 4000
    assert messages == {
        "pattern violation: leading cubic coefficient vanishes",
        "degenerate parameter t = 0",
        "reduced sextic is not the scaled normal form",
    }


def test_recognize_surface_checks_the_coefficient_against_the_anchor_parameter(gf16, monkeypatch):
    # the anchors give t = 9; the coefficient reading is made to give 8
    real = recognize.recognize_normal_form
    monkeypatch.setattr(recognize, "recognize_normal_form", lambda g, frame: real(g, frame) ^ 1)
    with pytest.raises(RecognitionError, match="coefficient parameter disagrees with the anchor position"):
        recognize_surface(normal_form_sextic(gf16, 9))


@pytest.mark.parametrize("degree", [5, 7, 12])
def test_recognize_surface_needs_a_sextic(gf16, degree):
    # every certificate is a sextic fact; degree 12 is the normal form squared
    g = normal_form_sextic(gf16, 3)
    g = g * g if degree == 12 else HomPoly(gf16, degree, {(degree, 0, 0): 1, (1, 1, degree - 2): 1})
    with pytest.raises(RecognitionError, match=f"not degree {degree}"):
        recognize_surface(g)


def test_pipeline_on_normal_form(gf16):
    f = gf16
    rng = random.Random(12)
    for _ in range(4):
        t = rng.randrange(1, f.q)
        res = recognize_surface(normal_form_sextic(f, t))
        assert res.t == t


def test_pipeline_on_normal_form_plus_square(gf16):
    f = gf16
    rng = random.Random(21)
    t = 13
    g = normal_form_sextic(f, t) + random_cubic(f, rng).square()
    res = recognize_surface(g)
    assert res.t == t


def test_pipeline_on_family_member(gf16):
    f = gf16
    s = f.generator
    g = schroeer_sextic(f, 1, s)
    res = recognize_surface(g)
    t = res.t
    assert t != 0
    # the recognized parameter produces a family member with the same
    # configuration shape
    conf = verify_configuration(f, t, 1)
    assert not conf.findings, conf.findings
    assert len(conf.certificates) == 5
    # sanity: sigma stays 2 on both sides of the round trip
    assert f.pow(t, 3) != 1


def test_normal_form_is_family_member_with_swapped_coordinates(gf16):
    f = gf16
    t = 7
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert normal_form_sextic(f, t).compose_linear(swap) == schroeer_sextic(f, t, 1)
    # the normal form is the member (r, s) = (1, t), monomial by monomial
    rng = random.Random(16)
    for k in (2, 4, 8, 16):
        f = BinaryField(k, 0x1002D) if k == 16 else BinaryField(k)
        ts = range(1, f.q) if k < 16 else rng.sample(range(1, f.q), 64)
        for t in ts:
            g = normal_form_sextic(f, t)
            assert g == schroeer_sextic(f, 1, t)
            assert g.terms == {(1, 2, 3): f.sqr(t), (2, 1, 3): 1, (1, 4, 1): 1, (4, 1, 1): 1}
    # t outside GF(16) is the field's error, not another member
    with pytest.raises(RecognitionError, match="nonzero"):
        normal_form_sextic(gf16, 0)
    for t in (-1, 16):
        with pytest.raises(FieldError):
            normal_form_sextic(gf16, t)


def test_family_orientation_recognizes_to_inverse_parameter(gf16):
    # the deterministic labeling maps the swapped orientation of the family
    # member to the reciprocal parameter; both parameters give isomorphic
    # surfaces (the recognizer exhibits the coordinate change)
    f = gf16
    for t in (2, 7, 11):
        assert recognize_surface(schroeer_sextic(f, t, 1)).t == f.inv(t)
        assert recognize_surface(normal_form_sextic(f, t)).t == t


def test_pipeline_on_cube_locus_member(gf16):
    # seven splitting lines; the recognizer drops the diagonals and still
    # produces a parameter on the cube locus
    f = gf16
    w = f.omega()
    r = 3
    g = schroeer_sextic(f, r, f.mul(w, r))
    res = recognize_surface(g)
    assert f.pow(res.t, 3) == 1
