import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

from goldens import DATA, FRAMED_INPUTS, GOLDENS

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "k3lat"


def test_no_module_imports_a_private_name_from_another_module():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "k3lat"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}")
    assert offenders == []


def test_no_import_inside_a_function_body():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} in {fn.name}")
    assert offenders == []


def test_no_module_imports_dataclasses():
    # building frozen dataclasses cost about a quarter of every CLI process;
    # the value types and records are slotted k3lat.frozen.Frozen classes
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_or_subclasses_namedtuple():
    # under postponed annotations each typing.NamedTuple compiles a ForwardRef
    # per field at import: as NamedTuples the 13 records cost `import
    # k3lat.cli` about 4 ms of 14.5 (-X importtime, median of 7, 2-core x86
    # VM, Python 3.11); records are Frozen classes
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ClassDef):
                names = [ast.unparse(base).split(".")[-1] for base in node.bases]
            else:
                continue
            if "NamedTuple" in names:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_exact_arith_is_integer_only_and_no_module_has_a_rational_matrix():
    # an inverse is an integer matrix over one denominator, like a dual vector,
    # and norms and pairings are integers over a known denominator, so no
    # module in src imports fractions; lattice_core.ratio prints a rational
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                imported = []
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ClassDef):
                names, imported = [], [node.name]
            else:
                continue
            if "fractions" in names:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} fractions")
            if "RatMatrix" in imported:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} RatMatrix")
    assert offenders == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # nor the rational number modules: fractions loads decimal and numbers
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}
    code = f"import sys, k3lat.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_cli_run_loads_no_argument_parser():
    # import argparse, its first parser and the gettext and locale lookups it
    # makes took about 7 ms of every CLI process; the CLI parses its own flag table
    unwanted = {"argparse", "gettext", "locale"}
    code = (
        "import os, sys, k3lat.cli\n"
        "codes = [k3lat.cli.main(argv) for argv in (\n"
        "    ['surface', '--k', '4', '--r', '1', '--s', '2', '--out', os.devnull], [])]\n"
        f"print(codes, sorted({unwanted!r} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 2] []"


def _imports_from(path: pathlib.Path, package: tuple[str, ...]):
    """(module, alias) for each ``from module import`` alias in path, with
    relative imports resolved against its package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = base + (tuple(node.module.split(".")) if node.module else ())
            for alias in node.names:
                yield ".".join(module), alias


def test_every_package_re_export_is_imported_from_the_package():
    # names are imported from their defining module; an __init__ binds a name
    # from a submodule only when some module imports it from the package
    exported = set()
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = init.parent.relative_to(PACKAGE.parent).parts
        name = ".".join(package)
        exported |= {
            (name, alias.asname or alias.name)
            for module, alias in _imports_from(init, package)
            if module.startswith(name + ".")
        }
    imported = set()
    for root in ("src", "tests", "perfbench"):
        for path in sorted((REPO / root).rglob("*.py")):
            package = path.relative_to(REPO / root).parent.parts
            imported |= {(module, alias.name) for module, alias in _imports_from(path, package)}
    assert sorted(exported - imported) == []


# the CLI traffic of the execution guard, run in tests/data: the command of
# every golden (among them the benchmark's op shapes `lattice
# --with-extra-glue c`, `surface --k 8 --samples 4 --seed N` and `surface
# --k 8 --recognize FILE --line-scan full`), text and --out output, and a
# degenerate pair, with the exit code each one ends with
EXTRA_TRAFFIC = [
    (["surface", "--k", "4", "--r", "1", "--s", "2", "--format", "text"], 0),
    (["lattice", "--out", os.devnull], 0),
    (["surface", "--k", "4", "--r", "0", "--s", "5", "--allow-degenerate"], 1),
]

# each function or method that the traffic never calls, with the reason it stays
NOT_RUN_BY_THE_CLI = {
    "char2_surfaces/surfaces.py:nonreduced_splitting_lines_separable": "acceptance criterion 10",
    "char2_surfaces/poly.py:HomPoly.to_json":
        "the README names it as the writer of the --recognize format",
}

# each record field that the traffic never reads, with the reason it stays
FIELD_WITHOUT_READER: dict[str, str] = {}

# Runs the traffic through k3lat.cli.main in one process. A profile hook
# keeps the code object of every Python call, and every public __slots__ name
# of a k3lat class (every field of a value type or record) becomes a property
# that counts its reads and passes gets and sets to the original descriptor. A read made in
# frozen.py is not counted: Frozen's _key (behind __eq__ and __hash__) and
# __repr__ read every field of every record they see. Prints the exit codes,
# the (file, first line) of each k3lat code object that ran, and the read
# count of each field.
EXECUTION_RECORDER = r"""
import contextlib, importlib, io, json, os, pkgutil, sys
import k3lat, k3lat.cli, k3lat.frozen

frozen = k3lat.frozen.__file__
for info in pkgutil.walk_packages(k3lat.__path__, "k3lat."):
    importlib.import_module(info.name)
reads = {}

def counted(label, descriptor):
    reads[label] = 0

    def get(obj):
        if sys._getframe(1).f_code.co_filename != frozen:
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

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

codes = []
sys.setprofile(profile)
try:
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(k3lat.cli.main(argv))
finally:
    sys.setprofile(None)
root = os.path.dirname(k3lat.__file__)
ran = sorted(
    (os.path.relpath(c.co_filename, root), c.co_firstlineno)
    for c in called
    if c.co_filename.startswith(root + os.sep)
)
print(json.dumps({"codes": codes, "ran": ran, "reads": reads}))
"""


def _defined_functions():
    """(file, qualified name, first line) of each module-level function and
    each non-dunder method in src; a decorated def starts at its first
    decorator, as its code object does."""
    out = []

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if prefix and node.name.startswith("__") and node.name.endswith("__"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((path, prefix + node.name, first))

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")).body, str(path.relative_to(PACKAGE)), "")
    return out


@functools.lru_cache(maxsize=None)
def _cli_traffic_record():
    """Runs the traffic once for both guards and checks its exit codes."""
    assert sorted(os.listdir(DATA)) == sorted([g[3] for g in GOLDENS] + list(FRAMED_INPUTS))
    traffic = [(argv, code) for _, argv, code, _ in GOLDENS] + EXTRA_TRAFFIC
    # a fresh process, so that no memo is warm from an earlier test
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTION_RECORDER, json.dumps([argv for argv, _ in traffic])],
        cwd=DATA,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["codes"] == [code for _, code in traffic]
    return record


def test_every_public_function_has_a_caller_in_src():
    # by execution: every function and method, private ones included, runs
    # under the CLI traffic
    record = _cli_traffic_record()
    defined = _defined_functions()
    assert {("cli.py", "main"), ("exact_arith.py", "IntMatrix.mul_vec")} <= {d[:2] for d in defined}
    # a def is known by its file and first line; its qualified name labels it
    ran = {tuple(d) for d in record["ran"]}
    not_run = [f"{path}:{name}" for path, name, first in defined if (path, first) not in ran]
    assert sorted(not_run) == sorted(NOT_RUN_BY_THE_CLI)


def test_every_record_field_is_read_in_src():
    # by execution: every record field is read under the CLI traffic
    reads = _cli_traffic_record()["reads"]
    assert {"lattice_core.Lattice.gram", "root_systems.ClassNormSearch.norms_all_odd"} <= set(reads)
    assert sorted(label for label, n in reads.items() if n == 0) == sorted(FIELD_WITHOUT_READER)
