import gc
import json
import os
import runpy
import subprocess
import sys
import time

import pytest

from k3lat import cli
from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import apply_frame, normal_form_sextic
from k3lat.char2_surfaces.surfaces import SurfaceError, schroeer_sextic
from k3lat.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, FLAGS, main, parse_args
from k3lat.configuration import L_LABELS

import argparse_oracle
from goldens import (
    COMMANDS,
    CORPUS,
    DATA,
    FRAMED_INPUTS,
    QUINTIC_INPUT,
    SEEDED_INPUTS,
    SPARSE_INPUTS,
    as_golden,
    expected,
    framed_normal_form,
    quintic,
    record,
    sparse_sextic,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing_ms"}


def recorded(command_id):
    """(exit code, stdout, stderr) of a corpus command in the recorded run."""
    return record()["runs"][command_id]


def recorded_checks(command_id) -> dict:
    """The checks, by name, of the JSON report a corpus command printed in
    the recorded run."""
    return {c["name"]: c for c in json.loads(recorded(command_id)[1])["checks"]}


@pytest.mark.parametrize("command", [pytest.param(c, id=c.id) for c in CORPUS])
def test_corpus_output_matches_golden(command):
    # a report is pinned byte for byte apart from its timing_ms block
    code, stdout, stderr = recorded(command.id)
    assert (code, as_golden(command, stdout), stderr) == (command.code, *expected(command))


def _ends_cleanly(code, err) -> bool:
    """No traceback: exit 0 and exit 1 leave stderr empty, and a usage error
    prints one line."""
    if code == EXIT_USAGE:
        lines = err.splitlines()
        return len(lines) == 1 and lines[0].startswith("error: ")
    return err == ""


def test_every_corpus_run_ends_cleanly():
    runs = record()["runs"]
    assert [i for i, (code, _, err) in runs.items() if not _ends_cleanly(code, err)] == []


def test_lattice_default():
    # what the goldens of sigma = 2 and sigma = 1 certify
    checks = recorded_checks("lattice")
    assert all(c["pass"] for c in checks.values())
    assert checks["overlattice_sigma2"]["witness"]["sigma"] == 2
    assert checks["exceptional_root_type"]["witness"]["type"] == "4D4+5A1"
    for c in ("1", "w", "wb"):
        assert recorded_checks(f"lattice-extra-glue-{c}")["overlattice_sigma1"]["witness"]["sigma"] == 1


def first_command_counts() -> dict:
    """The work counts of the corpus's first command, lattice --with-extra-glue
    w, which the recorded run makes with every memo cold."""
    assert CORPUS[0].id == "lattice-extra-glue-w"
    assert recorded(CORPUS[0].id)[0] == EXIT_OK
    return record()["counts"]


def test_lattice_run_inverts_each_gram_at_most_once():
    # the A1 and D4 Grams of the dual-basis vectors; the overlattice bases and
    # their coordinate maps are closed forms in the F_2 echelon of the glue,
    # so no 22 x 22 inverse is taken
    assert sorted(first_command_counts()["inverses"]) == [[1, 1], [4, 1]]


def test_lattice_run_builds_each_halfline_glue_vector_once():
    # the overlattice and the five half-line searches share one vector per label
    assert first_command_counts()["glue"] == {**{f"F({lam})": 1 for lam in L_LABELS}, "G(w)": 1}


def test_lattice_run_puts_no_overlattice_gram_in_smith_form():
    # no Smith form and no integer kernel is taken at all: the base Gram's
    # discriminant witness and the 2-elementarity of the sigma = 2 Gram come
    # from det and the F_2 corank, discriminant classes from coordinates
    # mod 1, and the roots orthogonal to h from the glue classes and the
    # summands, with no complement of h; no k3lat module binds one
    names = ("snf", "kernel_basis", "orthogonal_complement", "Sublattice", "enumerate_roots")
    bound = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "k3lat"
        for attr in names
        if attr in vars(module)
    ]
    assert bound == []


def test_lattice_run_multiplies_by_the_overlattice_gram_once_per_root_and_indecomposable():
    # polarization_roots takes G r once per root for its norm and degree
    # re-check, and ade_type takes G e once per simple root
    counts = first_command_counts()
    witness = recorded_checks("lattice-extra-glue-w")["exceptional_root_type"]["witness"]
    budget = witness["root_count"] + witness["total_component_rank"]
    assert budget == 106 + 21
    assert counts["sigma2"] == budget
    assert not [n for rows, cols, n in counts["mul_vec"] if rows == cols == 21]


def test_lattice_run_eliminates_each_rank_22_gram_once():
    # every Gram is eliminated once, for its determinant, its signature and
    # its root enumeration alike: the base, sigma = 2 and sigma = 1 Grams,
    # D4, A1 and H; the complement's signature is the base's, less the
    # polarization's sign, so no rank-21 complement Gram is built
    assert first_command_counts()["eliminations"] == {"22": 3, "4": 1, "1": 2}


def test_lattice_run_shares_class_scans_with_the_halfline_walk():
    # the 4 class checks search down to their thresholds (-4, -9, -4, -6 in
    # half-units) and the 5 half-line classes down to the budget -5, 9
    # searches in all although the 5 walks visit 45 summands.  On the A1 and
    # D4 zero classes the floors -4 and -5 ask for the same bound 2 on
    # -x^T G x, and the enumeration is keyed on that bound: 7 enumerations.
    # The root lists of the 16 glue classes orthogonal to h ask for norm
    # >= -2: the zero classes at the same bound 2, shared, and the A1 class
    # and the three D4 classes of denominator 2 at the bound 8, 4 more.  11
    # enumerations, each run once
    assert sorted(first_command_counts()["scans"].values()) == [1] * 11


def test_lattice_run_enumerates_no_gram_of_rank_above_4():
    # the roots orthogonal to h come from the A1 and D4 summands: no
    # enumeration runs on the rank-21 complement or any rank-22 Gram
    ranks = first_command_counts()["ranks"]
    assert ranks and max(map(int, ranks)) <= 4


def _failed_class_search_witness(capsys, monkeypatch, change) -> dict:
    """The witness of a lattice run whose class searches return change(found),
    after checking that the run fails on the class-search check."""
    real = cli.bounded_class_minimizers
    monkeypatch.setattr(
        cli, "bounded_class_minimizers", lambda lattice, cls, floor2: change(real(lattice, cls, floor2))
    )
    code, out = run_cli(capsys, "lattice")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["bounded_class_searches"]
    assert code == EXIT_CHECK_FAILED and check["pass"] is False
    return check["witness"]


def test_class_search_check_requires_one_maximizer(capsys, monkeypatch):
    # searches that report their maximizer twice: the maxima and runner-ups
    # are those of the golden, but no class has exactly one maximizer
    witness = _failed_class_search_witness(capsys, monkeypatch, lambda found: found[:1] + found)
    with open(os.path.join(DATA, "lattice_default.json"), encoding="utf-8") as fh:
        golden = {c["name"]: c for c in json.load(fh)["checks"]}
    assert witness == golden["bounded_class_searches"]["witness"]


def test_class_search_check_requires_a_runner_up(capsys, monkeypatch):
    # searches that drop every vector below the maximum: no runner-up sits
    # at the threshold, and the witness shows none
    witness = _failed_class_search_witness(capsys, monkeypatch, lambda found: found[:1])
    assert [w["next"] for w in witness.values()] == ["None"] * 4
    assert witness["D4_dual"]["max"] == "-1"


def test_lattice_corrupted_glue_fails_with_witness():
    assert recorded("lattice-inject-corrupt-glue")[0] == EXIT_CHECK_FAILED
    failed = [c for c in recorded_checks("lattice-inject-corrupt-glue").values() if not c["pass"]]
    assert failed
    assert all("witness" in c for c in failed)
    # a check that raised names the exception type next to its message
    raised = {c["name"]: c["witness"] for c in failed if "error_type" in c["witness"]}
    assert raised == {
        "overlattice_sigma2": {
            "error": "glue vector F(0*) does not pair integrally with the base",
            "error_type": "GlueError",
        }
    }


def test_surface_single_pair(capsys):
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    case = report["checks"][0]
    assert case["witness"]["milnor"] == 21
    assert len(case["witness"]["points"]) == 9
    assert len(case["witness"]["splitting_lines"]) == 5


def test_raising_surface_case_names_the_exception_type(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SurfaceError("no nine-point configuration")

    monkeypatch.setattr(cli, "verify_configuration", broken)
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_CHECK_FAILED
    case = json.loads(out)["checks"][0]
    assert case["pass"] is False
    assert case["witness"] == {
        "r": "1",
        "s": "2",
        "error": "no nine-point configuration",
        "error_type": "SurfaceError",
    }


def test_framed_recognition_inputs_are_their_seeded_frames():
    # every --recognize input of the corpus: the framed normal forms, the
    # sparse sextics and the one that is not a sextic
    inputs = {name: framed_normal_form(*spec) for name, spec in (FRAMED_INPUTS | SEEDED_INPUTS).items()}
    inputs |= {name: sparse_sextic(seed) for name, seed in SPARSE_INPUTS.items()}
    inputs[QUINTIC_INPUT] = quintic()
    for name, g in inputs.items():
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            assert HomPoly.from_json_obj(json.load(fh)) == g, name


def test_every_surface_case_is_timed_under_its_check_name(capsys):
    code, out = run_cli(capsys, "surface", "--k", "4", "--r", "1", "--s", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["surface_r=1_s=2", "extra_line_dichotomy"]
    assert sorted(report["timing_ms"]) == sorted(names)


def test_surface_k12_family_member_finishes(tmp_path):
    # PG(2, 4096) has 16.8 million lines and 16.8 million points: a search
    # that visits each of them, for the scan or for the singular points,
    # does not end in time; the full line scan must not either
    f = BinaryField(12, 0x1053)
    framed = apply_frame(normal_form_sextic(f, 0x123), ((1, 0x5A, 3), (7, 1, 0x9C), (0x21, 0x400, 1)))
    path = tmp_path / "framed.json"
    path.write_text(json.dumps(framed.to_json_obj(), sort_keys=True))
    member = ["surface", "--k", "12", "--modulus", "0x1053", "--r", "3", "--s", "5"]
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in (member, ["surface", "--recognize", str(path), "--line-scan", "full"]):
        proc = subprocess.run(
            [sys.executable, "-m", "k3lat.cli", *argv, "--format", "text"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, argv
        assert "PASS overall" in proc.stdout


@pytest.mark.parametrize("r, s", [("0", "2"), ("0", "0")], ids=["r0-s2", "r0-s0"])
def test_surface_with_a_degenerate_pair_fails_without_a_traceback(r, s):
    code, _, err = recorded(f"k4-degenerate-r{r}-s{s}")
    assert code == EXIT_CHECK_FAILED
    assert err == ""
    checks = recorded_checks(f"k4-degenerate-r{r}-s{s}")
    case = checks[f"surface_r={r}_s={s}"]
    assert case["pass"] is False and case["witness"]["findings"]
    dichotomy = checks["extra_line_dichotomy"]
    assert dichotomy["pass"] is False
    if s == "0":
        # r = s = 0 puts the two fork points together, so no line joins them
        assert dichotomy["witness"]["error_type"] == "SurfaceError"


def test_surface_sampling_deterministic(capsys):
    code1, out1 = run_cli(capsys, "surface", "--k", "4", "--samples", "2", "--seed", "9")
    code2, out2 = run_cli(capsys, "surface", "--k", "4", "--samples", "2", "--seed", "9")
    assert code1 == code2 == EXIT_OK
    r1 = strip_timing(json.loads(out1))
    r2 = strip_timing(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_sampled_pairs_are_distinct(capsys):
    # GF(16) has 180 pairs off the cube locus; 20 draws with replacement at the
    # default seed 1 would repeat one
    code, out = run_cli(capsys, "surface", "--k", "4", "--samples", "20")
    assert code == EXIT_OK
    report = json.loads(out)
    cases = [c["name"] for c in report["checks"] if c["name"].startswith("surface_")]
    assert len(cases) == len(set(cases)) == 20
    assert len(report["timing_ms"]) == 21
    assert len(report["checks"][-1]["witness"]["cases"]) == 20


def test_all_subcommand(capsys):
    code, out = run_cli(capsys, "all", "--samples", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "base_lattice" in names
    assert any(n.startswith("surface_") for n in names)


def test_text_format():
    code, out, _ = recorded("lattice-text")
    assert code == EXIT_OK
    assert "PASS base_lattice" in out
    assert "PASS overall" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "lattice", "--out", str(path))
    assert code == EXIT_OK
    report = json.loads(path.read_text())
    assert report["pass"] is True
    # the file gets exactly the bytes the report would print
    text_path = tmp_path / "report.txt"
    assert run_cli(capsys, "lattice", "--format", "text", "--out", str(text_path)) == (EXIT_OK, "")
    assert text_path.read_text() == recorded("lattice-text")[1]


# corpus commands run as python -m k3lat.cli in tests/data, where the
# corpus runs: one per exit code, a parse error, a process without
# arguments, a text report, and that report written to an --out file
PROCESS_RUNS = [
    ("exit-0", "k4-cube-locus"),
    ("exit-1", "k4-degenerate-r0-s5"),
    ("exit-2", "usage-odd-k"),
    ("exit-2-parse", "usage-unknown-flag"),
    # perfbench times this run as setup_s, and counts it as set up only on exit 2
    ("exit-2-no-command", "usage-no-command"),
    ("text", "k4-degenerate-r0-s5-text"),
    ("out", "lattice-text"),
]


@pytest.mark.parametrize(
    "name, command_id", [pytest.param(name, c, id=name) for name, c in PROCESS_RUNS]
)
def test_a_cli_process_ends_as_an_in_process_main_call(tmp_path, name, command_id):
    # python -m k3lat.cli turns the collector off before main and freezes the
    # heap after it; the exit code, the streams and the --out file are what
    # main gave in-process in the corpus's recorded run (a JSON report apart
    # from its timing_ms), and main there neither froze the heap nor
    # switched the collector. The process gets no
    # PYTHONUNBUFFERED, so its piped stdout is block-buffered and must be
    # flushed at exit
    assert record()["collector"] == [True, 0]
    command = COMMANDS[command_id]
    path = tmp_path / "report"
    out = ["--out", str(path)] if name == "out" else []
    proc = subprocess.run(
        [sys.executable, "-m", "k3lat.cli", *command.argv, *out],
        cwd=DATA,
        env={"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": os.path.abspath(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    stdout = proc.stdout
    if out:
        assert stdout == ""
        stdout = path.read_text(encoding="utf-8")
    code, in_process, err = recorded(command_id)
    assert (proc.returncode, as_golden(command, stdout), proc.stderr) == (
        code, as_golden(command, in_process), err
    )


def test_the_main_block_leaves_the_collector_off(capsys, monkeypatch):
    # the block python -m k3lat.cli runs, here on a usage error; k3lat.cli
    # leaves sys.modules meanwhile, so runpy runs it as __main__ without a warning
    monkeypatch.setattr(sys, "argv", ["k3lat.cli", "surface", "--k", "3"])
    monkeypatch.delitem(sys.modules, "k3lat.cli")
    assert gc.isenabled()
    try:
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("k3lat.cli", run_name="__main__")
        assert not gc.isenabled()
    finally:
        gc.unfreeze()
        gc.enable()
    assert stop.value.code == EXIT_USAGE
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_out_is_a_usage_error_before_any_suite(tmp_path, capsys, monkeypatch, where):
    path = {
        "missing-directory": tmp_path / "missing" / "report.json",
        "directory": tmp_path,
        "empty": "",
    }[where]
    ran = []
    monkeypatch.setattr(cli, "cmd_lattice", ran.append)
    monkeypatch.setattr(cli, "cmd_surface", lambda args, g=None: ran.append(args))
    for command in ("lattice", "surface", "all"):
        assert main([command, "--out", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
    assert ran == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "target,argv",
    [
        ("out", ["lattice", "--format", "json", "--out", "/dev/full"]),
        ("out", ["lattice", "--format", "text", "--out", "/dev/full"]),
        ("stdout", ["lattice", "--format", "json"]),
        ("stdout", ["lattice", "--format", "text"]),
        ("stdout", ["-h"]),
        ("stdout", ["--help"]),
    ],
    ids=["out-json", "out-text", "stdout-json", "stdout-text", "stdout-h", "stdout-help"],
)
def test_a_report_that_cannot_be_written_is_a_usage_error(target, argv):
    # every write to /dev/full fails with ENOSPC: the JSON report fails in the
    # write, the shorter text report and the usage block only when flushed or closed
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "k3lat.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=full if target == "stdout" else subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == EXIT_USAGE
    where = "stdout" if target == "stdout" else "--out /dev/full"
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: OSError: "), proc.stderr
    assert proc.stdout in (None, "")


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "8", "--r", "zz", "--s", "1"],
        ["--k", "8", "--r", "1"],
        ["--k", "4", "--r", "1f", "--s", "1"],
        ["--k", "4", "--r", "0", "--s", "2"],
        ["--k", "6", "--samples", "1"],
        # int(text, 16) took each of these as hex
        ["--k", "8", "--r", "+1_f", "--s", "1"],
        ["--k", "8", "--r", "1_f", "--s", "1"],
        ["--k", "8", "--r", "+1f", "--s", "1"],
        ["--k", "8", "--r", "1", "--s", " 1f "],
        ["--k", "8", "--r", "0x1_f", "--s", "1"],
        ["--k", "8", "--r", "1", "--s", "0b1_1"],
        # bounded inputs: a vacuous or unbounded sampling run, and an odd
        # field with no cube root of unity
        ["--samples", "0"],
        ["--samples", "-1"],
        ["--k", "2", "--samples", "1"],
        ["--k", "4", "--samples", "181"],
        ["--k", "5", "--modulus", "0b100101", "--r", "1", "--s", "2"],
        ["--recognize", ""],
    ],
    ids=[
        "r-not-hex",
        "r-without-s",
        "r-outside-the-field",
        "degenerate-pair",
        "k6-no-modulus",
        "r-signed-underscored",
        "r-underscored",
        "r-signed",
        "s-spaced",
        "r-0x-underscored",
        "s-0b-underscored",
        "samples-0",
        "samples-negative",
        "k2-sampling",
        "k4-more-samples-than-pairs",
        "odd-k-pair",
        "recognize-empty-path",
    ],
)
def test_bad_surface_arguments_are_usage_errors_before_any_suite(capsys, monkeypatch, flags):
    ran = []
    monkeypatch.setattr(cli, "cmd_lattice", ran.append)
    monkeypatch.setattr(cli, "cmd_surface", lambda args, *rest: ran.append(args))
    errors = []
    for command in ("surface", "all"):
        assert main([command, *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        errors.append(captured.err)
    assert ran == []
    # all reports the same message as surface
    assert errors[0] == errors[1] != ""


def test_bad_modulus_names_the_accepted_forms(capsys):
    for command in ("surface", "all"):
        assert main([command, "--modulus", "zz"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --modulus: 'zz'" in err
        assert "decimal" in err and "0x" in err and "0b" in err
        assert "<lambda>" not in err


def test_recognize_file(tmp_path, capsys):
    f = BinaryField(4)
    g = normal_form_sextic(f, 9)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(g.to_json_obj(), sort_keys=True))
    code, out = run_cli(capsys, "surface", "--k", "4", "--recognize", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checks"][0]["witness"]["t"] == "9"


def test_recognize_takes_its_field_from_the_file(tmp_path, capsys):
    # no modulus is shipped for k = 6, and recognition never needs one; the
    # report's config names the file's field, GF(2^4) modulo x^4 + x + 1
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(normal_form_sextic(BinaryField(4), 9).to_json_obj(), sort_keys=True))
    code, out = run_cli(capsys, "surface", "--k", "6", "--recognize", str(path))
    report = json.loads(out)
    assert code == EXIT_OK and report["pass"] is True
    assert (report["config"]["k"], report["config"]["modulus"]) == (4, 19)


def _poly_file_text(k, modulus_bits, terms):
    return json.dumps({"field": {"k": k, "modulus_bits": modulus_bits}, "degree": 6, "terms": terms})


def _with_a_repeated_term(g, exp):
    """g's file with the term at exp given a second time, with coefficient 1."""
    obj = g.to_json_obj()
    assert any(t["exp"] == exp for t in obj["terms"])
    obj["terms"].append({"exp": exp, "coeff": "1"})
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, message",
    [
        *((text, None) for text in [
            "not json",
            _poly_file_text(20, "1" + "0" * 19 + "1001", []),
            json.dumps([1, 2, 3]),
            _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "2"}]),
            _with_a_repeated_term(normal_form_sextic(BinaryField(8), 3), [1, 2, 3]),
            json.dumps({"field": {"k": 4, "modulus_bits": "10011"}, "degree": 6.0, "terms": []}),
            _poly_file_text(4, "10011", [{"exp": [1.0, 2, 3], "coeff": "1"}]),
            json.dumps(HomPoly(BinaryField(4), 0, {(0, 0, 0): 1}).to_json_obj(), sort_keys=True),
            json.dumps(HomPoly(BinaryField(4), 5, {(5, 0, 0): 1, (0, 2, 3): 3}).to_json_obj(), sort_keys=True),
            json.dumps(HomPoly(BinaryField(4), 7, {(0, 0, 7): 1, (3, 4, 0): 5}).to_json_obj(), sort_keys=True),
            # two terms; recognized as a form, it took seconds and cited a sextic's Bezout bound
            json.dumps(HomPoly(BinaryField(4), 1600, {(1600, 0, 0): 1, (0, 1, 1599): 1}).to_json_obj(), sort_keys=True),
            # json gave up with a RecursionError traceback
            "[" * 200000 + "]" * 200000,
            # GF(2^True) was built and recognition failed on it
            _poly_file_text(True, "11", [{"exp": [1, 4, 1], "coeff": "1"}]),
            # rejected only through the TypeError of 1 << 8.0
            _poly_file_text(8.0, "100011011", [{"exp": [1, 4, 1], "coeff": "1"}]),
            # int(text, 2) took each of these four coefficients as binary 3
            _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "1_1"}]),
            _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "0b11"}]),
            _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": " 11 "}]),
            _poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "+11"}]),
            # and these moduli as x^4 + x + 1
            _poly_file_text(4, "1_0011", [{"exp": [1, 4, 1], "coeff": "1"}]),
            _poly_file_text(4, "0b10011", [{"exp": [1, 4, 1], "coeff": "1"}]),
            _poly_file_text(4, " 10011", [{"exp": [1, 4, 1], "coeff": "1"}]),
            # ended in the ValueError of unpacking two exponents into three
            _poly_file_text(4, "10011", [{"exp": [1, 5], "coeff": "1"}]),
        ]),
        (_poly_file_text(4, "10011", [{"exp": [1, 4, 1], "coeff": "10000"}]),
         "FieldError: element 16 out of range for GF(2^4)"),
        (_poly_file_text(4, "10011", [{"exp": [-1, 4, 3], "coeff": "1"}]),
         "PolyError: exponent triple (-1, 4, 3) has a negative exponent"),
        (_poly_file_text(4, "10011", [{"exp": [1, 1, 1], "coeff": "1"}]),
         "PolyError: exponent triple (1, 1, 1) does not sum to degree 6"),
    ],
    ids=[
        "not-json",
        "k20-field",
        "not-an-object",
        "coeff-not-binary",
        "repeated-exponent",
        "float-degree",
        "float-exponent",
        "degree-0",
        "degree-5",
        "degree-7",
        "degree-1600",
        "nested-json",
        "bool-k",
        "float-k",
        "coeff-underscore",
        "coeff-0b-prefix",
        "coeff-spaces",
        "coeff-plus",
        "modulus-underscore",
        "modulus-0b-prefix",
        "modulus-space",
        "exp-pair",
        "coeff-outside-field",
        "negative-exponent",
        "wrong-degree",
    ],
)
def test_bad_recognize_file_is_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "poly.json"
    path.write_text(text)
    for command in ("surface", "all"):
        assert main([command, "--recognize", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --recognize {path}: "), captured.err
        if message is not None:
            assert lines[0] == f"error: --recognize {path}: {message}"


def test_recognize_file_of_another_degree_is_named_before_any_work(tmp_path, capsys):
    path = tmp_path / "poly.json"
    g = HomPoly(BinaryField(4), 1600, {(1600, 0, 0): 1, (0, 1, 1599): 1})
    path.write_text(json.dumps(g.to_json_obj(), sort_keys=True))
    start = time.perf_counter()
    assert main(["surface", "--recognize", str(path)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "degree 1600" in capsys.readouterr().err


def test_sextic_failing_recognition_is_a_failed_check(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(schroeer_sextic(BinaryField(4), 0, 0).to_json_obj(), sort_keys=True))
    code, out = run_cli(capsys, "surface", "--recognize", str(path))
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["checks"][0]["pass"] is False


def test_k2_with_explicit_pair_is_accepted(capsys):
    code, out = run_cli(capsys, "surface", "--k", "2", "--r", "1", "--s", "1")
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_all_declares_the_union_of_lattice_and_surface_flags():
    lat, surf, both = (FLAGS[c] for c in ("lattice", "surface", "all"))
    assert both.keys() == lat.keys() | surf.keys()
    assert surf["--k"] == ("k", cli._decimal, 8) and both["--k"] == ("k", cli._decimal, 4)
    for flag, spec in both.items():
        if flag != "--k":
            assert spec == {**lat, **surf}[flag]
    defaults = {c: parse_args([c])[1] for c in FLAGS}
    assert set(defaults["all"]) == set(defaults["lattice"]) | set(defaults["surface"])
    # parsing a command line leaves the table's defaults as they were
    parse_args(["all", "--k", "6", "--with-extra-glue", "w", "--allow-degenerate"])
    assert {c: parse_args([c])[1] for c in FLAGS} == defaults


# argv for the flag table against the argparse front end it replaced: every
# corpus command, negative values, repeated flags (the last wins), unknown
# flags, missing values, bad choices and help
CORPUS_ARGV = [command.argv for command in CORPUS]
ORACLE_ARGV = (
    # the negative modulus is one of the number-flag differences tested below
    [command.argv for command in CORPUS if command.id != "usage-negative-modulus"]
    + [
        ["surface", "--seed", "-3"],
        ["surface", "--seed", "-3.5"],
        ["surface", "--r", "-1", "--s", "2"],
        ["surface", "--k", "4", "--k", "16", "--modulus", "0x1002D", "--modulus", "0b10011"],
        ["lattice", "--format", "text", "--format=json", "--with-extra-glue", "1",
         "--with-extra-glue", "wb"],
        ["all", "--allow-degenerate", "--allow-degenerate", "--inject-corrupt-glue"],
        ["surface", "--out=", "--r=a=b", "--s", "-", "--recognize", "-x y"],
        ["lattice", "--k", "4"],
        ["lattice", "extra"],
        ["-x", "lattice"],
        ["--format", "json", "lattice"],
        ["lattice", "--"],
        ["surface", "--out", "--format", "text"],
        ["surface", "--out", "-x"],
        ["surface", "--k=", "4"],
        ["surface", "--samples", "x"],
        ["lattice", "--format=json=x"],
        ["lattice", "--with-extra-glue", "2"],
        ["surface", "--line-scan", "none"],
        ["--help", "bogus"],
        ["lattice", "-h"],
        ["surface", "--k", "4", "--help"],
        ["all", "-h", "--k", "x"],
        ["lattice", "--bogus", "-h"],
        ["-x", "-h"],
        ["surface", "--k", "x", "-h"],
        ["surface", "--out", "-h"],
        ["lattice", "-hx"],
        ["lattice", "--help=x"],
    ]
)


def _argv_id(argv):
    """argv as a test id: files by their names, and no spaces."""
    return "_".join(os.path.basename(arg).replace(" ", "-") for arg in argv) or "no-arguments"


def _table_outcome(argv):
    """parse_args's result in argparse_oracle.parse's shape."""
    try:
        parsed = parse_args(argv)
    except cli.UsageError:
        return "usage"
    return "help" if parsed is None else parsed


# argv where the oracle's answer depends on the Python version: argparse on
# 3.13 reads -hx as -h -x and prints help, earlier versions exit 2, and the
# flag table, which matches flags by exact name, is a usage error on every one
EXACT_NAME_ARGV = [["lattice", "-hx"]]


@pytest.mark.parametrize("argv", ORACLE_ARGV, ids=_argv_id)
def test_the_flag_table_parses_as_the_argparse_front_end(capsys, argv):
    expected = argparse_oracle.parse(argv)
    if argv in EXACT_NAME_ARGV:
        assert expected in ("help", "usage")
        expected = "usage"
    assert _table_outcome(argv) == expected
    assert type(expected) is tuple or expected in ("help", "usage")
    # the corpus pins the exit code and the streams of its own commands
    if expected == "usage" and argv not in CORPUS_ARGV:
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["surface", "--samp", "4"], ["lattice", "--with=w"], ["all", "--inject", "--allow"]],
    ids=_argv_id,
)
def test_a_flag_prefix_is_a_usage_error(capsys, argv):
    # argparse took a unique prefix of a flag; the table takes exact names only
    assert type(argparse_oracle.parse(argv)) is tuple
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: unrecognized arguments: --")


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--k", "0_8", "--samples", "0_2"],
        ["surface", "--samples", "0_2"],
        ["surface", "--seed", "1_0"],
        ["surface", "--modulus", "0x1_1b"],
        ["surface", "--modulus", "+0x11b"],
        ["surface", "--k", "4", "--modulus=-19"],
        ["surface", "--k", "4", "--modulus=-19", "--r", "1", "--s", "2"],
        ["surface", "--k", "+8"],
        ["surface", "--samples", "+1"],
        ["surface", "--seed=-3\n"],
        # argparse reads "-3\n" as a negative number, since its pattern's $
        # matches before a final newline; the table reads it as a flag
        ["surface", "--seed", "-3\n"],
    ],
    ids=_argv_id,
)
def test_a_number_flag_takes_plain_digits_only(capsys, argv):
    # argparse converted with int(), which takes a sign, '_' and whitespace;
    # the table takes ASCII digits only, after a '-' for --seed
    assert type(argparse_oracle.parse(argv)) is tuple
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: argument --")


def _readme_usage_block() -> str:
    with open(os.path.join(SRC, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    start = readme.index("```sh\n", readme.index("\n## CLI\n")) + len("```sh\n")
    return readme[start:readme.index("```", start)]


def test_usage_is_the_readme_block_and_lists_every_flag_but_one():
    assert cli.USAGE == _readme_usage_block()
    flags = {flag for table in FLAGS.values() for flag in table}
    # --inject-corrupt-glue breaks the suite on purpose and stays unlisted
    assert {flag for flag in flags if flag not in cli.USAGE} == {"--inject-corrupt-glue"}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["lattice", "-h"], ["surface", "--help"], ["all", "--k", "4", "-h"]],
    ids=_argv_id,
)
def test_help_prints_the_readme_usage_block(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == _readme_usage_block()
    assert captured.err == ""
    assert all(flag in captured.out for table in FLAGS.values() for flag in table
               if flag != "--inject-corrupt-glue")
