"""The command corpus: every k3lat command whose output Tier-1 pins.

Each ``Command`` is an id, an argv, an exit code and the files in
tests/data that hold its expected stdout and stderr, None for an empty
stream.  A stdout file ending in ``.json`` holds a JSON report less its
``timing_ms`` block; any other file holds the stream as printed.  The
commands run with tests/data as the working directory, so a
``--recognize`` input is named by its bare file name, and that is the name
the report's config shows.

``record()`` runs the whole corpus once, in one fresh process, and is
Tier-1's one observer of the CLI: the golden comparison, the clean-exit
check, the execution guard, the lattice run's work counts (read from the
first command, ``lattice --with-extra-glue w``) and the module checks of
the import and of the run all read that record.  ``PYTHONPATH=src python
tests/goldens.py`` rewrites every expected output from the current ``src``
through the same run.
"""

import functools
import json
import os
import random
import subprocess
import sys
from typing import NamedTuple

from k3lat.char2_surfaces.field import BinaryField
from k3lat.char2_surfaces.poly import HomPoly
from k3lat.char2_surfaces.recognize import RecognitionError, apply_frame, normal_form_sextic

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TESTS, "data")
SRC = os.path.join(os.path.dirname(TESTS), "src")


class Command(NamedTuple):
    id: str
    argv: list
    code: int
    stdout: str | None
    stderr: str | None


# each --recognize input of the framed goldens: (k, modulus, t, frame seed)
FRAMED_INPUTS = {
    "framed_k8_t53.json": (8, None, 0x53, 8),
    "framed_k16_t123.json": (16, 0x1002D, 0x123, 16),
    "framed_k8_t1.json": (8, None, 0x1, 0),
}

# the inputs of the 24 seeded k = 8 recognitions, frame seeds 1 to 24, with
# t = random.Random("recognize-k8").sample(range(2, 256), 24)
SEEDED_INPUTS = {
    f"framed_k8_t{t:x}_frame{seed}.json": (8, None, t, seed)
    for seed, t in enumerate(
        (0x85, 0x2E, 0x78, 0xBC, 0xFF, 0xE6, 0x47, 0x16, 0x0B, 0x1C, 0xAB, 0xD6,
         0x5B, 0x26, 0x71, 0x13, 0x7F, 0x6F, 0xE2, 0x11, 0x87, 0xBB, 0xED, 0x81),
        1,
    )
}

# the --recognize inputs of the failed recognitions: sparse GF(256) sextics
# whose singular-point searches meet a gcd that is zero on all of GF(q)
# (seed 1) and resultants whose leading coefficients vanish at a sampled
# point (seeds 13 and 15)
SPARSE_INPUTS = {f"sparse_k8_seed{seed}.json": seed for seed in (1, 13, 15)}

# a --recognize input that is not a sextic
QUINTIC_INPUT = "quintic_k4.json"


def sparse_sextic(seed) -> HomPoly:
    """A GF(256) sextic of 3 to 8 terms with nonzero coefficients, drawn by
    random.Random(seed)."""
    rng = random.Random(seed)
    monomials = [(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)]
    terms = rng.sample(monomials, rng.randint(3, 8))
    return HomPoly(BinaryField(8), 6, {m: rng.randrange(1, 256) for m in terms})


def quintic() -> HomPoly:
    return HomPoly(BinaryField(4), 5, {(5, 0, 0): 1, (0, 2, 3): 3})


def _degenerate(r, s):
    return ["surface", "--k", "4", "--r", r, "--s", s, "--allow-degenerate"]


def _text(argv):
    return [*argv, "--format", "text"]


def _extra_glue(c):
    return Command(f"lattice-extra-glue-{c}", ["lattice", "--with-extra-glue", c], 0,
                   f"lattice_extra_glue_{c}.json", None)


# The lattice reports: sigma = 1 for the extra glue class w first, the run
# whose work the recorder counts with every memo cold, then sigma = 2, a
# corrupted glue vector, and sigma = 1 for the other extra glue classes.
# The surface reports: a sampled GF(256) run, a GF(16) member on the cube
# locus (6 is omega) with its 7 splitting lines, the GF(256) members on the
# cube-locus diagonals s = r and s = omega-bar r (omega is 0xbd), a GF(2^16)
# member, a whole `all` run over GF(16), and the recognition of a normal
# form moved through a seeded frame at k = 8 and k = 16; the normal form
# t = 1 lies on the cube locus, where three A1 points carry two side lines
# each, and recognition picks the anchors that read t = omega.  Then twenty
# GF(256) samples, the degenerate pairs, which fail with a witness, and
# their text reports
REPORTS = [
    _extra_glue("w"),
    Command("lattice", ["lattice"], 0, "lattice_default.json", None),
    Command("lattice-inject-corrupt-glue", ["lattice", "--inject-corrupt-glue"], 1,
            "lattice_inject_corrupt_glue.json", None),
    _extra_glue("1"),
    _extra_glue("wb"),
    Command("k8-samples", ["surface", "--k", "8", "--samples", "4", "--seed", "12345"], 0,
            "surface_k8_samples4_seed12345.json", None),
    Command("k4-cube-locus", ["surface", "--k", "4", "--r", "1", "--s", "6", "--line-scan", "full"],
            0, "surface_k4_r1_s6_full.json", None),
    Command("k8-cube-locus-1", ["surface", "--k", "8", "--r", "3", "--s", "3"], 0,
            "surface_k8_r3_s3.json", None),
    Command("k8-cube-locus-wb", ["surface", "--k", "8", "--r", "3", "--s", "df"], 0,
            "surface_k8_r3_sdf.json", None),
    Command("k16-member", ["surface", "--k", "16", "--modulus", "0x1002D", "--r", "3", "--s", "5"],
            0, "surface_k16_r3_s5.json", None),
    Command("all-k4-samples3", ["all", "--k", "4", "--samples", "3"], 0, "all_k4_samples3.json",
            None),
    Command("k8-framed-recognition",
            ["surface", "--k", "8", "--recognize", "framed_k8_t53.json", "--line-scan", "full"], 0,
            "surface_k8_recognize_framed_t53.json", None),
    Command("k16-framed-recognition", ["surface", "--k", "16", "--recognize", "framed_k16_t123.json"],
            0, "surface_k16_recognize_framed_t123.json", None),
    Command("k8-framed-cube-locus-recognition",
            ["surface", "--k", "8", "--recognize", "framed_k8_t1.json"], 0,
            "surface_k8_recognize_framed_t1.json", None),
    Command("k8-samples20", ["surface", "--k", "8", "--samples", "20", "--seed", "1"], 0,
            "surface_k8_samples20_seed1.json", None),
    *(
        Command(f"k4-degenerate-r0-s{s}", _degenerate("0", s), 1,
                f"surface_k4_r0_s{s}_degenerate.json", None)
        for s in ("0", "2", "5")
    ),
]

# a text report for each subcommand, and one for each report that fails
TEXT_REPORTS = [
    Command("lattice-text", _text(["lattice"]), 0, "lattice_default.txt", None),
    Command("lattice-inject-corrupt-glue-text", _text(["lattice", "--inject-corrupt-glue"]), 1,
            "lattice_inject_corrupt_glue.txt", None),
    Command("k4-member-text", _text(["surface", "--k", "4", "--r", "1", "--s", "2"]), 0,
            "surface_k4_r1_s2.txt", None),
    Command("all-k4-samples3-text", _text(["all", "--k", "4", "--samples", "3"]), 0,
            "all_k4_samples3.txt", None),
    *(
        Command(f"k4-degenerate-r0-s{s}-text", _text(_degenerate("0", s)), 1,
                f"surface_k4_r0_s{s}_degenerate.txt", None)
        for s in ("0", "2", "5")
    ),
]

RECOGNITIONS = [
    Command(f"k8-recognition-t{t:x}-frame{seed}", ["surface", "--k", "8", "--recognize", name], 0,
            f"surface_k8_recognize_framed_t{t:x}_frame{seed}.json", None)
    for name, (_, _, t, seed) in SEEDED_INPUTS.items()
]

FAILED_RECOGNITIONS = [
    Command(f"k8-sparse-recognition-seed{seed}", ["surface", "--recognize", name], 1,
            f"surface_k8_recognize_sparse_seed{seed}.json", None)
    for name, seed in SPARSE_INPUTS.items()
]

# one usage error of each kind, with the line it prints on stderr
USAGE_ERRORS = [
    Command(f"usage-{kind}", argv, 2, None, f"usage_{kind.replace('-', '_')}.txt")
    for kind, argv in [
        ("no-command", []),
        ("invalid-command", ["bogus"]),
        ("unknown-flag", ["lattice", "--bogus"]),
        ("missing-value", ["surface", "--k"]),
        ("switch-with-value", ["lattice", "--inject-corrupt-glue=1"]),
        ("bad-choice", ["lattice", "--format", "xml"]),
        ("non-digit-number", ["surface", "--k", "x"]),
        ("r-without-s", ["surface", "--k", "4", "--r", "1"]),
        ("odd-k", ["surface", "--k", "7"]),
        ("reducible-modulus", ["surface", "--k", "4", "--modulus", "21"]),
        ("modulus-wrong-degree", ["surface", "--k", "4", "--modulus", "0b111", "--r", "1", "--s", "2"]),
        # int(text, 0) rejects a leading zero that is_digits lets through
        ("modulus-leading-zero", ["surface", "--k", "8", "--modulus", "0283", "--r", "1", "--s", "2"]),
        ("too-many-samples", ["surface", "--k", "4", "--samples", "200"]),
        ("degenerate-pair", ["surface", "--k", "8", "--r", "5", "--s", "0"]),
        ("unreadable-recognize", ["surface", "--recognize", "no_such_file.json"]),
        ("recognize-not-a-sextic", ["surface", "--recognize", QUINTIC_INPUT]),
        ("unwritable-out", ["lattice", "--out", "no_such_dir/report.json"]),
        # Linux's /dev/full opens for writing and fails every write
        ("out-dev-full", ["lattice", "--out", "/dev/full"]),
        # an empty path is a path that cannot be opened, not a flag left out
        ("recognize-empty-path", ["surface", "--recognize", ""]),
        ("out-empty-path", ["lattice", "--out", ""]),
        # every accepted input ends in bounded time: each argv below ran
        # without end (GF(4) has no off-cube pair) or checked nothing before
        # it became a usage error, and a hang fails the record's timeout
        ("k2-sampling", ["surface", "--k", "2", "--samples", "1"]),
        ("k4-more-samples-than-pairs", ["surface", "--k", "4", "--samples", "181"]),
        ("samples-0", ["surface", "--samples", "0"]),
        ("samples-negative", ["surface", "--samples", "-1"]),
        ("lemma-box-2", ["lattice", "--lemma-box", "2"]),
        ("lemma-box-17", ["lattice", "--lemma-box", "17"]),
        ("lemma-box-huge", ["all", "--lemma-box", "1000000"]),
        ("lemma-box-3", ["lattice", "--lemma-box", "3"]),
        ("all-lemma-box-3", ["all", "--lemma-box", "3"]),
        ("odd-k-sampling", ["surface", "--k", "3", "--modulus", "0b1011", "--samples", "1"]),
        ("odd-k-pair", ["surface", "--k", "5", "--modulus", "0b100101", "--r", "1", "--s", "2"]),
        ("r-not-hex", ["surface", "--k", "4", "--r", "zz", "--s", "1"]),
        ("s-empty-hex", ["surface", "--k", "4", "--r", "1", "--s", "0x"]),
        ("recognize-wrong-schema", ["surface", "--recognize", "lattice_extra_glue_1.json"]),
        ("all-recognize-missing-file", ["all", "--recognize", "no_such_file.json"]),
        ("line-scan-singular", ["surface", "--line-scan", "singular"]),
        ("negative-modulus", ["surface", "--k", "4", "--modulus=-19", "--r", "1", "--s", "2"]),
    ]
]

CORPUS = [
    *REPORTS,
    *TEXT_REPORTS,
    *RECOGNITIONS,
    *FAILED_RECOGNITIONS,
    *USAGE_ERRORS,
    # the report goes to the --out file, and nothing to stdout
    Command("lattice-out", ["lattice", "--out", os.devnull], 0, None, None),
    Command("help", ["-h"], 0, "help.txt", None),
]

COMMANDS = {command.id: command for command in CORPUS}


def data_files() -> list[str]:
    """Every file in tests/data that the corpus reads or compares with."""
    expected = [f for c in CORPUS for f in (c.stdout, c.stderr) if f is not None]
    return sorted(expected + list(FRAMED_INPUTS) + list(SEEDED_INPUTS) + list(SPARSE_INPUTS) + [QUINTIC_INPUT])


def seeded_frame(g, seed):
    """g moved through the first invertible frame of entries drawn by
    random.Random(seed)."""
    q = g.field.q
    rng = random.Random(seed)
    while True:
        frame = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        try:
            return apply_frame(g, frame)
        except RecognitionError:  # a singular frame
            continue


def framed_normal_form(k, modulus, t, seed):
    """normal_form_sextic(GF(2^k), t) moved through the seeded frame."""
    return seeded_frame(normal_form_sextic(BinaryField(k, modulus), t), seed)


# Runs the corpus through k3lat.cli.main in one process, with stdout and
# stderr captured per command. It imports k3lat.cli before anything of its
# own and lists sys.modules before that import, after it and after the
# corpus. A profile hook keeps the code object of every Python call, and
# every public __slots__ name of a k3lat class (every field of a value type
# or record) becomes a property that counts its reads and passes gets and
# sets to the original descriptor. A read made in frozen.py or by the
# recorder is not counted: Frozen's _key (behind __eq__ and __hash__) and
# __repr__ read every field of every record they see. During the first
# command only, which runs with every memo cold, the hook also counts the
# inverses and the symmetric eliminations by matrix, the glue vectors built
# by name, the G v products by matrix (those by the sigma = 2 Gram, rebuilt
# after the corpus with the hook off, under "sigma2") and the coset
# enumerations by (Gram, bound, coset) and by rank. Prints the exit code and
# the two streams of each command, the three module lists, the (file, first
# line) of each k3lat code object that ran, the read count of each field,
# the counts, and whether the collector is on and how many more objects are
# frozen once every command has run than before the first.
RECORDER = r"""
import sys
before = sorted(sys.modules)
import k3lat.cli
imported = sorted(sys.modules)

import collections, contextlib, gc, importlib, io, json, os
from k3lat import configuration, exact_arith, frozen, ns_glue, root_systems

# the freeze count need not start at 0 (Python 3.12.1 reports 375 at
# start-up), so the corpus is judged by the change in it
frozen_at_start = gc.get_freeze_count()

# every k3lat module, found by its path: pkgutil would load inspect
root = os.path.dirname(k3lat.__file__)
for folder, _, files in os.walk(root):
    package = "k3lat" + folder[len(root):].replace(os.sep, ".")
    for name in files:
        if name.endswith(".py") and name != "__init__.py":
            importlib.import_module(f"{package}.{name[:-3]}")
uncounted = {frozen.__file__, sys._getframe().f_code.co_filename}
reads = {}

def counted(label, descriptor):
    reads[label] = 0

    def get(obj):
        if sys._getframe(1).f_code.co_filename not in uncounted:
            reads[label] += 1
        return descriptor.__get__(obj, type(obj))

    return property(get, descriptor.__set__)

for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] != "k3lat":
        continue
    for cls in list(vars(module).values()):
        if not isinstance(cls, type) or cls.__module__ != name:
            continue
        fields = [slot for slot in vars(cls).get("__slots__", ()) if slot[0] != "_"]
        for field in fields:
            label = f"{name.removeprefix('k3lat.')}.{cls.__qualname__}.{field}"
            setattr(cls, field, counted(label, vars(cls)[field]))

first = {}

def tally(function, key):
    # the calls of function in the first command, by key(its arguments)
    calls = collections.Counter()
    first[function.__code__] = lambda args: calls.update([key(args)])
    return calls

inverses = tally(exact_arith.invert, lambda args: args["a"].entries)
eliminations = tally(exact_arith._eliminate, lambda args: len(args["a"].entries))
products = tally(exact_arith.IntMatrix.mul_vec, lambda args: args["self"].entries)
scans = tally(
    root_systems.short_vectors,
    lambda args: (len(args["gram"].entries), repr((args["gram"].entries, args["bound"], args["coset"]))),
)

def glue_name(args):
    # the name of a glue vector being built, None for any other record
    if type(args["self"]) is ns_glue.GlueVector:
        return (args["values"] or [args["named"]["name"]])[0]

built = tally(frozen.Frozen.__init__, glue_name)
called = set()
counting = first

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
        if frame.f_code in counting:
            counting[frame.f_code](frame.f_locals)

runs = []
sys.setprofile(profile)
try:
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = k3lat.cli.main(argv)
        runs.append([code, out.getvalue(), err.getvalue()])
        counting = {}
finally:
    sys.setprofile(None)
modules = {"before": before, "imported": imported, "ran": sorted(sys.modules)}
collector = [gc.isenabled(), gc.get_freeze_count() - frozen_at_start]
corpus_reads = dict(reads)
ran = sorted(
    (os.path.relpath(c.co_filename, root), c.co_firstlineno)
    for c in called
    if c.co_filename.startswith(root + os.sep)
)
ls = ns_glue.build_lambda()
ns = ns_glue.build_overlattice(ls, tuple(ns_glue.halfline_class(ls, lam) for lam in configuration.L_LABELS))
counts = {
    "inverses": [[len(m), n] for m, n in inverses.items()],
    "eliminations": dict(eliminations),
    "glue": {name: n for name, n in built.items() if name is not None},
    "mul_vec": [[len(m), len(m[0]), n] for m, n in products.items()],
    "sigma2": products[ns.lattice.gram.entries],
    "scans": {key: n for (_, key), n in scans.items()},
    "ranks": dict(collections.Counter(rank for rank, _ in scans.elements())),
}
print(json.dumps({
    "runs": runs, "modules": modules, "ran": ran, "reads": corpus_reads, "counts": counts,
    "collector": collector,
}))
"""


@functools.lru_cache(maxsize=None)
def record(**env) -> dict:
    """The one run of the corpus, in a fresh process so that no memo is warm
    from an earlier test: ``RECORDER``'s output, with the runs as
    (exit code, stdout, stderr) by command id.  env adds to the process's
    environment (tests/line_trace.py passes its hook's user base)."""
    proc = subprocess.run(
        [sys.executable, "-c", RECORDER, json.dumps([c.argv for c in CORPUS])],
        cwd=DATA,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONWARNINGS": "error", **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    out["runs"] = {c.id: tuple(run) for c, run in zip(CORPUS, out["runs"])}
    return out


def as_golden(command: Command, stdout: str) -> str:
    """The command's stdout as its stdout file holds it: a JSON report less
    its timing_ms block, anything else as printed."""
    if command.stdout is None or not command.stdout.endswith(".json"):
        return stdout
    report = json.loads(stdout)
    del report["timing_ms"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def expected(command: Command) -> tuple[str, str]:
    """The stdout and stderr that the command's files hold."""
    streams = []
    for name in (command.stdout, command.stderr):
        if name is None:
            streams.append("")
        else:
            with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
                streams.append(fh.read())
    return tuple(streams)


def main():
    """Rewrites the expected output of every corpus command from the current
    src, once every run ends with its command's exit code and leaves empty
    exactly the streams the command has no file for."""
    runs = record()["runs"]
    mismatched = []
    for command in CORPUS:
        code, stdout, stderr = runs[command.id]
        shape = (code, stdout != "", stderr != "")
        if shape != (command.code, command.stdout is not None, command.stderr is not None):
            mismatched.append(f"{command.id}: exit {code}, stdout {stdout!r}, stderr {stderr!r}")
    if mismatched:
        sys.exit("not written:\n" + "\n".join(mismatched))
    for command in CORPUS:
        _, stdout, stderr = runs[command.id]
        for name, text in zip((command.stdout, command.stderr), (as_golden(command, stdout), stderr)):
            if name is not None:
                with open(os.path.join(DATA, name), "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)


if __name__ == "__main__":
    main()
