"""Runs Tier-1 with a line tracer in every Python process and prints each
function-body line of src/k3lat that no process ran.

    python tests/line_trace.py

The tracer is a ``usercustomize`` module under a temporary
``PYTHONUSERBASE``, so every Python process that inherits the environment
loads it at start-up: the pytest process and the children that Tier-1
starts with ``os.environ``, the corpus recorder of ``goldens.record()``
among them, with nothing written into ``src``.  A child started with an
environment of its own (``perfbench``'s, the clean-exit test's) is not
traced.  Each traced process writes the (file, line) pairs that it ran in
k3lat code when it exits.

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
# lists the corpus recorder takes are those of an untraced run
TRACER = """
import atexit, os, sys

ROOT = {root!r}
OUT = {out!r}
inside = {{}}  # by co_filename, which may hold ".." (tests/conftest.py's path entry)
unseen = {{}}  # by id of every code object called, kept alive in held: its k3lat lines not yet run
held = []
ran = set()

def local(frame, event, arg):
    if event != "line":
        return local
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    todo = unseen[id(frame.f_code)]
    todo.discard(frame.f_lineno)
    return local if todo else None  # no line left to see: stop tracing the frame

def trace(frame, event, arg):
    code = frame.f_code
    todo = unseen.get(id(code))
    if todo is None:  # the first call: a code object's hash reads all of its bytecode, so key by id
        held.append(code)
        todo = unseen[id(code)] = set()
        name = code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = os.path.realpath(name).startswith(ROOT)
        if hit:
            ran.add((name, code.co_firstlineno))
            todo.update({{line for _, _, line in code.co_lines()}} - {{None, code.co_firstlineno}})
    return local if todo else None

def dump():
    sys.settrace(None)
    with open(os.path.join(OUT, str(os.getpid())), "w", encoding="utf-8") as fh:
        fh.writelines(f"{{line}} {{os.path.realpath(name)}}\\n" for name, line in ran)

atexit.register(dump)
sys.settrace(trace)
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
