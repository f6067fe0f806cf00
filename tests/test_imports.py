import ast
import os
import pathlib

from goldens import DATA, data_files, record

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


def _importers(top: str) -> list[str]:
    """The modules of the package that import the top-level module top."""
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                importers.append(str(path.relative_to(PACKAGE)))
    return importers


def test_only_the_cli_imports_json():
    # JSON text is read and written in cli.py; the other modules build and
    # read the plain objects that it encodes and decodes
    assert _importers("json") == ["cli.py"]


def test_no_module_imports_re():
    # number flags are checked digit by digit: compiling a pattern costs a
    # fresh process more than the check itself
    assert _importers("re") == []


def _added(until: str) -> set[str]:
    """The modules that the recorded run loaded from the start of ``import
    k3lat.cli`` up to one of its module lists: "imported" ends that import,
    and "ran" follows the recorder's own imports and the corpus."""
    modules = record()["modules"]
    return set(modules[until]) - set(modules["before"])


# nor the rational number modules: fractions loads decimal and numbers
UNWANTED_IMPORTS = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert sorted(UNWANTED_IMPORTS & _added("imported")) == []


def test_a_cli_run_loads_neither_dataclasses_nor_inspect():
    # what the standard library imports lazily, on a call, shows only here;
    # the recorder finds k3lat's modules by path, as pkgutil loads inspect
    assert sorted(UNWANTED_IMPORTS & _added("ran")) == []


def test_a_cli_run_loads_no_argument_parser():
    # import argparse, its first parser and the gettext and locale lookups it
    # makes took about 7 ms of every CLI process; the CLI parses its own flag table
    unwanted = {"argparse", "gettext", "locale"}
    assert sorted(unwanted & _added("ran")) == []


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


def _cli_traffic_record():
    """The corpus's one recorded run, once tests/data is known to hold the
    corpus's files and nothing else: a stale or orphaned file fails."""
    assert sorted(os.listdir(DATA)) == data_files()
    return record()


def test_every_public_function_has_a_caller_in_src():
    # by execution: every function and method, private ones included, runs
    # under the command corpus
    run = _cli_traffic_record()
    defined = _defined_functions()
    assert {("cli.py", "main"), ("exact_arith.py", "IntMatrix.mul_vec")} <= {d[:2] for d in defined}
    # a def is known by its file and first line; its qualified name labels it
    ran = {tuple(d) for d in run["ran"]}
    not_run = [f"{path}:{name}" for path, name, first in defined if (path, first) not in ran]
    assert sorted(not_run) == []


def _assigns_to_self(fn: ast.AST) -> bool:
    """Whether fn sets an attribute of self, as self.x = ... or
    object.__setattr__(self, ...)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            target = node.value
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            target = node.args[0] if node.args else None
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "self":
            return True
    return False


def test_every_class_that_holds_state_declares_slots():
    # the field guard below wraps the __slots__ names, so an attribute kept in
    # an instance __dict__ would escape it
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared = any(
                isinstance(node, ast.Assign) and "__slots__" in map(ast.unparse, node.targets)
                for node in cls.body
            )
            methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
            if not declared and any(map(_assigns_to_self, methods)):
                offenders.append(f"{path.relative_to(PACKAGE)}:{cls.lineno} {cls.name}")
    assert offenders == []


def test_every_record_field_is_read_in_src():
    # by execution: every record field is read under the command corpus
    reads = _cli_traffic_record()["reads"]
    assert {"lattice_core.Lattice.gram", "root_systems.RootSet.roots"} <= set(reads)
    assert sorted(label for label, n in reads.items() if n == 0) == []
