import ast
import itertools
import pathlib
import random

import pytest

from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.recognize import RecognitionError, label_configuration
from k3lat.char2_surfaces.surfaces import (
    analyze_singularities,
    is_splitting,
    line_through,
    point_on_line,
    scan_splitting_lines,
    schroeer_sextic,
    table_lines,
    table_points,
    verify_configuration,
)
from k3lat.configuration import DIAGONALS, LINES, P_LABELS, Q_LABELS, point_labels
from k3lat.ns_glue import GlueVector, extra_glue_class, halfline_class

from goldens import FRAMED_INPUTS, framed_normal_form, seeded_frame
from surface_oracles import hand_written_lines, rule_labeling
from test_ns_glue import a_vee, d_vee, h_vee

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3lat"


def row_glue(ls, name, row):
    """h^ + the d^_leaf of the row's D4 points + the a^ of its A1 points."""
    forks, nodes = row
    v = h_vee(ls)
    for ab, leaf in forks:
        v = v + d_vee(ls, leaf, ab)
    for g in nodes:
        v = v + a_vee(ls, g)
    return GlueVector(name, v)


def cube_root(f, c):
    w = f.omega()
    return {"1": 1, "w": w, "wb": f.mul(w, w)}[c]


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("c", ["1", "w", "wb"])
def test_extra_glue_class_is_the_split_diagonal_of_the_cube_locus(ls, k, c):
    f = BinaryField(k)
    row = DIAGONALS[c]
    assert point_labels(*row) == ("p(00)", "p(11)", f"q({c})")
    assert extra_glue_class(ls, c) == row_glue(ls, f"G({c})", row)
    rng = random.Random(k)
    for r in rng.sample(range(1, f.q), 3):
        s = f.mul(cube_root(f, c), r)
        pts = table_points(f, r, s)
        l = line_through(f, pts["p(00)"], pts["p(11)"])
        assert is_splitting(schroeer_sextic(f, r, s), l) is not None
        on = {label for label, p in pts.items() if point_on_line(f, p, l)}
        assert on == set(point_labels(*row))


def test_each_halfline_class_is_the_glue_of_its_row(ls):
    for lam, row in LINES.items():
        assert halfline_class(ls, lam) == row_glue(ls, f"F({lam})", row)


@pytest.mark.parametrize("c", sorted(DIAGONALS))
def test_the_lines_through_a_fork_point_meet_distinct_outer_leaves(c):
    # on a member with s = c r the five lines and the diagonal D(c) split
    rows = list(LINES.values()) + [DIAGONALS[c]]
    for ab in P_LABELS:
        leaves = [leaf for forks, _ in rows for p, leaf in forks if p == ab]
        assert len(leaves) == len(set(leaves)) >= 2
        assert set(leaves) <= {1, 2, 4}  # never the centre node 3


def test_each_line_carries_two_fork_points_and_one_node_but_the_line_at_infinity():
    assert LINES["inf"] == ((), Q_LABELS)
    for lam, (forks, nodes) in list(LINES.items()) + list(DIAGONALS.items()):
        if lam != "inf":
            assert len(forks) == 2 and len(nodes) == 1, lam
        assert {ab for ab, _ in forks} <= set(P_LABELS)
        assert set(nodes) <= set(Q_LABELS)


def test_the_five_lines_name_the_nine_table_points():
    named = set().union(*(point_labels(*row) for row in LINES.values()))
    assert named == set(table_points(BinaryField(4), 1, 2))


def test_both_halves_read_a_moved_point(ls, monkeypatch):
    # q(inf) moved to q(1) on L(0*): the glue vector of F(0*) changes, and on
    # a family member L(0*) becomes the line through p(00) and q(1), which
    # does not split and misses p(01)
    forks, _ = LINES["0*"]
    before = halfline_class(ls, "0*")
    monkeypatch.setitem(LINES, "0*", (forks, ("1",)))
    assert halfline_class(ls, "0*") != before
    f = BinaryField(4)
    conf = verify_configuration(f, 1, 2)
    assert list(conf.findings) == [
        "L(0*) is not splitting",
        "incidence of L(0*) differs: ['p(00)', 'q(1)']",
    ]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_three_readers_import_the_table_and_the_halves_do_not_import_each_other():
    # the lattice glue, the incidence check and recognition read the one table
    assert list(_imported_modules(PACKAGE / "configuration.py")) == ["__future__"]
    lattice = set(_imported_modules(PACKAGE / "ns_glue.py"))
    surface = set(_imported_modules(PACKAGE / "char2_surfaces" / "surfaces.py"))
    recognition = set(_imported_modules(PACKAGE / "char2_surfaces" / "recognize.py"))
    assert ".configuration" in lattice and "..configuration" in surface
    assert "..configuration" in recognition
    assert not any("char2_surfaces" in m for m in lattice)
    assert not any("ns_glue" in m for m in surface | recognition)


LINE_FIELDS = {2: None, 4: None, 8: None, 16: 0x1002D}


@pytest.mark.parametrize("k", sorted(LINE_FIELDS))
def test_table_lines_are_the_hand_written_lines(k):
    # every (r, s) at k = 2 and 4, among them r = 0 or s = 0 where two fork
    # points of a row coincide, and 300 seeded pairs at k = 8 and 16
    f = BinaryField(k, LINE_FIELDS[k])
    if k <= 4:
        pairs = [(r, s) for r in range(f.q) for s in range(f.q)]
    else:
        rng = random.Random(f"lines/{k}")
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(300)]
    for r, s in pairs:
        assert table_lines(f, r, s) == hand_written_lines(f, r, s), (r, s)


# recognition labels the nine points from the rows of the table; the inputs
# are six seeded family members off the cube locus at each k, the cube-locus
# members of the goldens (seven splitting lines), the framed recognition
# inputs, and at each k two family members and one cube-locus member, on the
# diagonal D(1), D(w) or D(wb), moved through seeded frames
MEMBER_FIELDS = {4: None, 8: None, 16: 0x1002D}
CUBE_LOCUS_MEMBERS = {
    f"k{k}-cube-{r:x}-{s:x}": (k, r, s) for k, r, s in ((4, 1, 6), (8, 3, 3), (8, 3, 0xDF))
}
FRAMED_MEMBERS = [f"k{k}-framed-{kind}" for k in MEMBER_FIELDS for kind in ("member0", "member1", "cube")]
LABELING_CASES = (
    [f"k{k}-member{i}" for k in MEMBER_FIELDS for i in range(6)]
    + list(CUBE_LOCUS_MEMBERS)
    + sorted(FRAMED_INPUTS)
    + FRAMED_MEMBERS
)


@pytest.fixture(scope="module")
def labeling_inputs():
    out = {}
    for (k, modulus), c in zip(MEMBER_FIELDS.items(), ("1", "w", "wb")):
        f = BinaryField(k, modulus)
        rng = random.Random(f"labeling/{k}")
        members = []
        while len(members) < 8:
            r, s = rng.randrange(1, f.q), rng.randrange(1, f.q)
            if f.pow(r, 3) != f.pow(s, 3):
                members.append(schroeer_sextic(f, r, s))
        out.update((f"k{k}-member{i}", g) for i, g in enumerate(members[:6]))
        r = rng.randrange(1, f.q)
        cube = schroeer_sextic(f, r, f.mul(cube_root(f, c), r))
        for kind, g in zip(("member0", "member1", "cube"), members[6:] + [cube]):
            out[f"k{k}-framed-{kind}"] = seeded_frame(g, f"frame/{k}/{kind}")
    for name, (k, r, s) in CUBE_LOCUS_MEMBERS.items():
        out[name] = schroeer_sextic(BinaryField(k), r, s)
    for name, spec in FRAMED_INPUTS.items():
        out[name] = framed_normal_form(*spec)
    return out


@pytest.fixture(scope="module")
def configurations(labeling_inputs):
    """(field, D4 points, A1 points, splitting lines) of each labeling case."""
    out = {}
    for case, g in labeling_inputs.items():
        report = analyze_singularities(g)
        lines = [cert.line for cert in scan_splitting_lines(g)]
        out[case] = (g.field, report.of_type("D4"), report.of_type("A1"), lines)
    return out


@pytest.mark.parametrize("case", LABELING_CASES)
def test_recognition_labels_each_row_on_exactly_one_splitting_line(configurations, case):
    f, d4, a1, lines = configurations[case]
    labels = label_configuration(f, d4, a1, lines)
    for lam, row in LINES.items():
        carriers = [
            l
            for l in lines
            if {x for x, p in labels.items() if point_on_line(f, p, l)} == set(point_labels(*row))
        ]
        assert len(carriers) == 1, (case, lam)


@pytest.mark.parametrize("case", LABELING_CASES)
def test_table_labeling_is_the_rule_labeling(configurations, case):
    assert label_configuration(*configurations[case]) == rule_labeling(*configurations[case])


def test_recognition_reads_the_forks_of_the_rows(configurations, monkeypatch):
    # with the fork lists of L(0*) and L(1*) swapped, p(0b) and p(1b) trade places
    before = label_configuration(*configurations["k8-member0"])
    (forks0, nodes0), (forks1, nodes1) = LINES["0*"], LINES["1*"]
    monkeypatch.setitem(LINES, "0*", (forks1, nodes0))
    monkeypatch.setitem(LINES, "1*", (forks0, nodes1))
    after = label_configuration(*configurations["k8-member0"])
    swap = {"p(00)": "p(10)", "p(01)": "p(11)", "p(10)": "p(00)", "p(11)": "p(01)"}
    assert after == {swap.get(x, x): p for x, p in before.items()}
    assert after != before


# each alteration of a family member's configuration, with the labeling's error
LABELING_FAILURES = {
    "a1-line-left-out": "no splitting line carries all five A1 points",
    "line-without-a1-point": "a side line does not carry exactly one A1 point",
    "side-line-removed": "expected two or three A1 points on two side lines each",
    "d4-point-swapped": "side-line intersections do not match the D4 points",
}


@pytest.mark.parametrize("alteration", LABELING_FAILURES)
def test_labeling_rejects_an_altered_configuration(configurations, alteration):
    # k8-member0 is off the cube locus, so its splitting lines are the five
    # standard ones and exactly two A1 points lie on two side lines each
    f, d4, a1, lines = configurations["k8-member0"]
    a1_line = next(l for l in lines if all(point_on_line(f, p, l) for p in a1))
    side = [l for l in lines if l != a1_line]
    if alteration == "a1-line-left-out":
        lines = side
    elif alteration == "line-without-a1-point":
        diagonal = next(
            l for l in (line_through(f, p, q) for p, q in itertools.combinations(d4, 2)) if l not in lines
        )
        assert not any(point_on_line(f, p, diagonal) for p in a1)
        lines = [*lines, diagonal]
    elif alteration == "side-line-removed":
        lines = [a1_line, *side[1:]]
    else:
        assert (1, 1, 1) not in d4
        d4 = [(1, 1, 1), *d4[1:]]
    with pytest.raises(RecognitionError, match=LABELING_FAILURES[alteration]):
        label_configuration(f, d4, a1, lines)
