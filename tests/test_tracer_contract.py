"""What perfbench/tracer.py binds in src, checked by running it.

The benchmark's traced runs wrap the layer functions by name, read the
arguments `lattice` and `cls` of bounded_class_minimizers and
`cls.component`, wrap the methods of poly.BinForm, and count the
is_splitting calls under the scan_splitting_lines span.  A src change that
breaks one of those breaks the traced runs or moves a per-layer counter;
this test finds it in Tier-1.
It goes away with the tracer, which ROADMAP item 26 replaces by a cProfile
run that binds no name in src and needs no spans there.
"""

import json
import os
import pathlib
import subprocess
import sys

from goldens import DATA

REPO = pathlib.Path(__file__).resolve().parent.parent


def _traced(tmp_path, name, *argv):
    summary = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(summary), *argv],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(summary.read_text(encoding="utf-8"))


def test_tracer_runs_a_lattice_and_a_recognition_op(tmp_path):
    lattice = _traced(tmp_path, "s.json", "lattice")
    assert lattice["counters"]["root_systems.bounded_class_minimizers.distinct_keys"] == 5
    framed = os.path.join(DATA, "framed_k8_t53.json")
    recognize = _traced(
        tmp_path, "r.json", "surface", "--k", "8", "--recognize", framed, "--line-scan", "full"
    )
    assert recognize["functions"]["poly.BinForm.is_square"]["calls"] > 0
    # the scan certifies the five lines it finds, each with one is_splitting
    # call under its span, and each of them splits
    assert recognize["counters"]["surfaces.scan_splitting_lines.lines_tested"] == 5
    assert recognize["counters"]["surfaces.is_splitting.hits"] == 5
