import os
import subprocess
import sys

import pytest

import line_trace

needs_monitoring = pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring needs Python 3.12")

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

TOY = """\
def checked(flag):
    if flag:
        return 1
    raise ValueError(
        "a raise of three lines"
    )


def uncalled():
    return 2


class Box:
    def __repr__(self):
        return "Box()"


def kept(flag):
    if flag:
        return 3
    return 4
"""


def trace(tmp_path, name, module, calls):
    """The root holding module as name.py, and the dump of a child that
    imports it and then runs calls under the hook."""
    # the module is imported before the hook starts, so the dump holds
    # function lines alone; -s keeps out a hook that a traced parent
    # process delivers
    root, out = tmp_path.resolve() / "root", tmp_path / "out"
    root.mkdir()
    out.mkdir()
    (root / f"{name}.py").write_text(module, encoding="utf-8")
    tracer = line_trace.TRACER.format(root=str(root) + os.sep, out=str(out))
    child = f"import sys\nsys.path.insert(0, {str(root)!r})\nimport {name}\n{tracer}{calls}\n"
    subprocess.run([sys.executable, "-s", "-c", child], cwd=tmp_path, check=True)
    return root, out


@needs_monitoring
def test_the_hook_dumps_exactly_the_lines_that_ran(tmp_path):
    # called's first line (no LINE event) and lines 2, 3 and 6
    root, out = trace(tmp_path, "two", TWO, "two.called(True)")
    (dump,) = out.iterdir()
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert sorted(lines) == [f"{n} {root / 'two.py'}" for n in (1, 2, 3, 6)]


@needs_monitoring
def test_the_corpus_verdict_exempts_raises_and_dunders_and_reports_stale_keep_entries(tmp_path):
    root, out = trace(tmp_path, "toy", TOY, "toy.checked(True)\ntoy.kept(True)")
    processes, ran = line_trace.dumped(out)
    keep = {("toy.py", "kept"): ("the reason", ("return 3", "return 4"))}
    unexplained, kept, stale = line_trace.corpus_verdict(root, ran, keep)
    tail = lambda line: line.rsplit(os.sep, 1)[-1]
    # the three lines of the raise and the dunder's two lines pass unrun
    assert processes == 1
    assert [tail(line) for line in unexplained] == ["toy.py:9: def uncalled():", "toy.py:10: return 2"]
    assert {reason: [tail(line) for line in lines] for reason, lines in kept.items()} == {
        "the reason": ["toy.py:21: return 4"]
    }
    # return 3 ran, so its keep entry is stale
    assert stale == ["toy.py kept: return 3"]
