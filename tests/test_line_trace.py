import os
import subprocess
import sys

import pytest

import line_trace

TWO = """\
def called(flag):
    if flag:
        x = 1
    else:
        x = 2
    return x


def uncalled():
    return 0
"""


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring needs Python 3.12")
def test_the_hook_dumps_exactly_the_lines_that_ran(tmp_path):
    # the module is imported before the hook starts, so the dump holds function
    # lines alone: called's first line (no LINE event) and lines 2, 3 and 6;
    # -s keeps out a hook that a traced parent process delivers
    root, out = tmp_path.resolve() / "root", tmp_path / "out"
    root.mkdir()
    out.mkdir()
    (root / "two.py").write_text(TWO, encoding="utf-8")
    tracer = line_trace.TRACER.format(root=str(root) + os.sep, out=str(out))
    child = f"import sys\nsys.path.insert(0, {str(root)!r})\nimport two\n{tracer}two.called(True)\n"
    subprocess.run([sys.executable, "-s", "-c", child], cwd=tmp_path, check=True)
    (dump,) = out.iterdir()
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert sorted(lines) == [f"{n} {root / 'two.py'}" for n in (1, 2, 3, 6)]
