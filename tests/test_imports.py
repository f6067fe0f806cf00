import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3lat"


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
