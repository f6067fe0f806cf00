"""Runs Tier-1, and then the command corpus, with a line hook in every Python
process, and prints the function-body lines of src/k3lat that each left unrun.

    python3.12 tests/line_trace.py

The hook is a PEP 669 ``sys.monitoring`` tool, so the script needs Python
3.12 or later; on an older interpreter it prints one line and exits 2.  It
is a ``usercustomize`` module under a temporary ``PYTHONUSERBASE``, so every
Python process that inherits the environment loads it at start-up: the
pytest process and the children that Tier-1 starts with ``os.environ``, the
corpus recorder of ``goldens.record()`` among them, with nothing written
into ``src``.  A child started with an environment of its own
(``perfbench``'s, the clean-exit test's) is not traced.  Each traced process
writes the (file, line) pairs that it ran in k3lat code when it exits.

A function-body line is a line of a function's code object (``co_lines()``),
lambdas and comprehensions included, and not of a module or class body; a
call counts as running the function's first line, and so does the ``def``
statement of a module or class body that runs under the hook, so an
uncalled function shows by its body (the execution guard of
``tests/test_imports.py`` names the function itself).

There are two verdicts.  The Tier-1 verdict fails on any function-body line
that no process of Tier-1 ran.  The corpus verdict runs ``goldens.RECORDER``
once more, the whole command corpus in one process, under a hook of its own,
and fails on any function-body line that this run leaves unrun, except the
lines of a ``raise`` statement (every line of its span), the lines of a
dunder method, and the lines of ``KEEP``.  ``KEEP`` names each line by its
file under src/k3lat, its function and its stripped source text, with the
reason it stays although no command runs it; an entry that names no unrun
line is stale and fails too.  Exits 1 if Tier-1 or the corpus run fails, if
no process was traced or if either verdict fails, and 0 otherwise.
"""

import ast
import functools
import linecache
import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "k3lat"

sys.path.insert(0, str(SRC))  # goldens imports k3lat

import goldens

TRACER = """
import atexit, os, sys

ROOT = {root!r}
OUT = {out!r}
mon = sys.monitoring
inside = {{}}  # by co_filename, which may hold ".." (tests/conftest.py's path entry)
ran = set()

def line(code, lineno):
    ran.add((code.co_filename, lineno))
    return mon.DISABLE

def start(code, offset):  # a call runs the first line, which has no LINE event
    name = code.co_filename
    hit = inside.get(name)
    if hit is None:
        hit = inside[name] = os.path.realpath(name).startswith(ROOT)
    if hit:
        ran.add((name, code.co_firstlineno))
        mon.set_local_events(mon.COVERAGE_ID, code, mon.events.LINE)
    return mon.DISABLE

def dump():
    with open(os.path.join(OUT, str(os.getpid())), "w", encoding="utf-8") as fh:
        fh.writelines(f"{{line}} {{os.path.realpath(name)}}\\n" for name, line in ran)

atexit.register(dump)
mon.use_tool_id(mon.COVERAGE_ID, "k3lat line trace")
mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, line)
mon.register_callback(mon.COVERAGE_ID, mon.events.PY_START, start)
mon.set_events(mon.COVERAGE_ID, mon.events.PY_START)
"""


# the function-body lines outside raise statements and dunder methods that
# the corpus leaves unrun and that stay in src:
# (file under src/k3lat, function) -> (reason, stripped source texts)
FAILURE = "a verdict's failure return: only a broken lattice reaches it"
KEEP = {
    ("exact_arith.py", "_eliminate"): (
        "the hyperbolic-pair step: every Gram the CLI builds has a nonzero diagonal pivot at each "
        "step, but glue subsets that the test oracles build do not",
        (
            "pair = next(((i, j) for i in alive for j in alive if i < j and m[i][j]), None)",
            "if pair is None:",
            "break",
            "i, j = pair",
            "for k in alive:",
            "m[i][k] += m[j][k]",
            "m[k][i] += m[k][j]",
            "piv = i",
        ),
    ),
    ("exact_arith.py", "det"): ("a singular matrix: every Gram the CLI builds is nondegenerate", ("return 0",)),
    ("char2_surfaces/field.py", "BinaryField.pow"): ("0^0 = 1: no command raises 0 to the power 0", ("return 1",)),
    ("char2_surfaces/upoly.py", "resultant"): (
        "two constants of formal degree 0: no caller passes them, and without the line their "
        "resultant would read 0, not 1",
        ("return exp[acc]",),
    ),
    ("char2_surfaces/poly.py", "BinForm.is_square"): (
        "an odd-degree form: the CLI restricts sextics only, and without the line an odd form "
        "would read as a wrong square",
        ("return None",),
    ),
    ("lattice_core.py", "elementary_factors"): (FAILURE, ("return None",)),
    ("ns_glue.py", "OverlatticeResult.to_result_coords"): (FAILURE, ("return None",)),
    ("char2_surfaces/surfaces.py", "verify_configuration"): (
        "a failed configuration: no degenerate pair at k = 4 or k = 8 reaches these findings",
        (
            'findings.append(f"{name} is not splitting")',
            'findings.append(f"expected {n_lines} splitting lines, found {len(split_lines)}")',
        ),
    ),
}


def body_lines(path: pathlib.Path) -> set[int]:
    """The lines of every function code object compiled from path."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        # a function's frame has fresh locals; a module's and a class body's do not
        if code.co_flags & 0x2:  # CO_NEWLOCALS
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def show(path: pathlib.Path, line: int) -> str:
    """A line as the verdicts print it: path:line: stripped source text."""
    return f"{os.path.relpath(path, REPO)}:{line}: {linecache.getline(str(path), line).strip()}"


def unrun(root: pathlib.Path, ran: set[tuple[str, int]]) -> list[tuple[pathlib.Path, int]]:
    """(path, line) of each function-body line of a module under root that
    ran, a set of (path, line), does not hold."""
    out = []
    for path in sorted(root.rglob("*.py")):
        done = {line for name, line in ran if name == str(path)}
        out.extend((path, line) for line in sorted(body_lines(path) - done))
    return out


@functools.cache
def owners(path: pathlib.Path) -> tuple[dict[int, str], set[int]]:
    """The innermost function around each line of path, by qualified name,
    and the exempt lines: those of a raise statement or a dunder method."""
    owner, exempt = {}, set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = range(first, child.end_lineno + 1)
                owner.update(dict.fromkeys(span, prefix + child.name))
                if child.name.startswith("__") and child.name.endswith("__"):
                    exempt.update(span)
            elif isinstance(child, ast.Raise):
                exempt.update(range(child.lineno, child.end_lineno + 1))
            scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{prefix}{child.name}." if scope else prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return owner, exempt


def corpus_verdict(root: pathlib.Path, ran: set[tuple[str, int]], keep: dict) -> tuple[list, dict, list]:
    """The function-body lines under root that ran leaves unrun, less the
    exempt ones: those keep does not name, those it names (by reason), and
    keep's stale entries, which name no such line."""
    unexplained, kept, named = [], {}, set()
    for path, line in unrun(root, ran):
        owner, exempt = owners(path)
        if line in exempt:
            continue
        key = (path.relative_to(root).as_posix(), owner.get(line))
        reason, texts = keep.get(key, (None, ()))
        text = linecache.getline(str(path), line).strip()
        if text in texts:
            named.add((*key, text))
            kept.setdefault(reason, []).append(show(path, line))
        else:
            unexplained.append(show(path, line))
    stale = [f"{rel} {function}: {text}" for (rel, function), (_, texts) in keep.items()
             for text in texts if (rel, function, text) not in named]
    return unexplained, kept, stale


def install(folder: str) -> tuple[str, str]:
    """A user base under folder whose usercustomize is the hook, and the
    directory that the hook dumps to."""
    base, out = os.path.join(folder, "base"), os.path.join(folder, "ran")
    site = sysconfig.get_path("purelib", sysconfig.get_preferred_scheme("user"), {"userbase": base})
    os.makedirs(site)
    os.makedirs(out)
    with open(os.path.join(site, "usercustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(TRACER.format(root=str(PACKAGE) + os.sep, out=out))
    return base, out


def dumped(out: str) -> tuple[int, set[tuple[str, int]]]:
    """The number of dumps in out, and the (path, line) pairs they hold."""
    ran = set()
    dumps = os.listdir(out)
    for name in dumps:
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            for row in fh:
                line, path = row.rstrip("\n").split(" ", 1)
                ran.add((path, int(line)))
    return len(dumps), ran


def main() -> int:
    if sys.version_info < (3, 12):
        print("tests/line_trace.py needs Python 3.12 or later (sys.monitoring)")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base, out = install(os.path.join(tmp, "tier1"))
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONUSERBASE": base},
        )
        processes, tier1_ran = dumped(out)
        base, out = install(os.path.join(tmp, "corpus"))
        goldens.record(PYTHONUSERBASE=base)
        corpus_processes, corpus_ran = dumped(out)
    tier1_unrun = [show(path, line) for path, line in unrun(PACKAGE, tier1_ran)]
    unexplained, kept, stale = corpus_verdict(PACKAGE, corpus_ran, KEEP)
    for line in tier1_unrun:
        print(line)
    print(f"Tier-1: {len(tier1_unrun)} function-body lines of src/k3lat unrun in {processes} traced processes")
    if tier1.returncode != 0:
        print(f"Tier-1 failed under the tracer (exit {tier1.returncode})")
    for reason, lines in kept.items():
        print(f"kept, {reason}:")
        for line in lines:
            print(f"    {line}")
    for line in unexplained + [f"stale keep entry: {entry}" for entry in stale]:
        print(line)
    print(
        f"corpus: {sum(map(len, kept.values()))} kept and {len(unexplained)} unexplained function-body lines "
        f"of src/k3lat unrun outside raise statements and dunder methods, {len(stale)} stale keep entries"
    )
    failed = tier1.returncode or not processes or not corpus_processes or tier1_unrun or unexplained or stale
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
