import ast
import os
import pathlib
import subprocess
import sys

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
    # the value types are NamedTuples or slotted k3lat.frozen.Frozen classes
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


# each public function or method without a caller in src, with the reason it stays
NO_CALLER_IN_SRC = {
    "nonreduced_splitting_lines_separable": "acceptance criterion 10",
    "HomPoly.to_json": "the README names it as the writer of the --recognize format",
}


def test_every_public_function_has_a_caller_in_src():
    # public functions and public (non-dunder) methods, matched by name; a
    # reference inside the function's own def (recursion) or an __init__
    # re-export is not a caller
    defined, referenced = [], set()

    def refer(tree, owner):
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != owner:
                referenced.add(name)

    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                owner = getattr(stmt, "name", None)
                if isinstance(stmt, ast.FunctionDef) and not owner.startswith("_"):
                    defined.append((path.relative_to(PACKAGE), owner, owner))
                refer(stmt, owner)
                continue
            for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                refer(node, None)
            for item in stmt.body:
                method = item.name if isinstance(item, ast.FunctionDef) else None
                if method is not None and not method.startswith("_"):
                    defined.append((path.relative_to(PACKAGE), f"{stmt.name}.{method}", method))
                refer(item, method)
    uncalled = {label: str(path) for path, label, name in defined if name not in referenced}
    labels = {(str(path), label) for path, label, _ in defined}
    assert {("cli.py", "main"), ("exact_arith.py", "IntMatrix.mul_vec")} <= labels
    assert sorted(uncalled) == sorted(NO_CALLER_IN_SRC), uncalled


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


# each record field that nothing in src reads, with the reason it stays
FIELD_WITHOUT_READER = {
    "ExceptionalRootReport.component_types": "acceptance criterion 5",
    "DiscriminantGroup.generators": "checked at construction, pinned in test_lattice_core.py",
}


def test_every_record_field_is_read_in_src():
    # NamedTuple fields and public __slots__ names; a constructor keyword
    # writes a field, and only an attribute load reads one
    fields, read = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                fields += [(node.name, s.target.id) for s in annotated]
            for s in node.body:
                if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "__slots__":
                    fields += [(node.name, e.value) for e in s.value.elts if e.value[0] != "_"]
    assert ("Lattice", "gram") in fields and ("ClassNormSearch", "norms_all_odd") in fields
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert unread == sorted(FIELD_WITHOUT_READER), unread
