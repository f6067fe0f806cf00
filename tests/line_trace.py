"""Runs Tier-1 with a line hook in every Python process and prints each
function-body line of src/k3lat that no process ran.

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
call counts as running the function's first line.  Exits 1 if Tier-1 fails,
if no process was traced or if any line is unrun, and 0 otherwise.
"""

import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "k3lat"

# imports only modules that site has loaded before it, so that the module
# lists the corpus recorder takes are those of an untraced run; a code
# object's first call turns LINE events on in it if it is k3lat code, and
# each callback returns DISABLE, so a code location reports at most once
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


def main() -> int:
    if sys.version_info < (3, 12):
        print("tests/line_trace.py needs Python 3.12 or later (sys.monitoring)")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base, out = os.path.join(tmp, "base"), os.path.join(tmp, "ran")
        site = sysconfig.get_path("purelib", sysconfig.get_preferred_scheme("user"), {"userbase": base})
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "usercustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(TRACER.format(root=str(PACKAGE) + os.sep, out=out))
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONUSERBASE": base},
        )
        ran = set()
        dumps = os.listdir(out)
        for name in dumps:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                ran.update(tuple(line.rstrip("\n").split(" ", 1)) for line in fh)
    unrun = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(body_lines(path) - {int(n) for n, p in ran if p == str(path)}):
            unrun.append(f"{path.relative_to(REPO)}:{line}: {source[line - 1].strip()}")
    for line in unrun:
        print(line)
    print(f"{len(unrun)} function-body lines of src/k3lat unrun in {len(dumps)} traced processes")
    if tier1.returncode != 0:
        print(f"Tier-1 failed under the tracer (exit {tier1.returncode})")
    return int(tier1.returncode != 0 or not dumps or bool(unrun))


if __name__ == "__main__":
    sys.exit(main())
