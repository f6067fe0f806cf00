"""Benchmark of the k3lat batch verifier.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each op is one fresh
``python -m k3lat.cli`` process, started one at a time from this process (a
closed loop with one client), in its own temporary working directory, with
``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and ``K3LAT_THREADS`` unset.  The
op list comes from ``--workload``, ``--seed`` and ``--seconds`` alone (see
``workloads.make_ops``); the program receives only the generated arguments
and files.  Every report is checked by ``workloads``; an op fails on a
nonzero exit, ``"pass": false`` or a failed check, and failed ops are left
out of the timings.

Times are wall times scaled by ``speed_probe`` against the host's drift.
With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run takes half the ops and runs
each one untraced and then through ``tracer.py``; the last line carries the
per-layer metrics.  Human-readable lines, the Python version, nproc and the
load average come first; the full record of the run goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gf256
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_RUNS = 9  # at least; rounded up to a whole number per op
# speed_probe's time on the 2-core x86 host the bounds were set on, in its
# usual state, so scaled times read as seconds on that host
PROBE_S = 0.2
OP_TIMEOUT_S = 150.0

# Work counters that must repeat exactly for the same seed and op list.
DETERMINISTIC = (
    "surfaces.is_splitting.calls",
    "surfaces.scan_splitting_lines.lines_tested",
    "ns_glue.unique_halfline_search.assemblies",
    "root_systems.enumerate_roots.roots",
    "root_systems.bounded_class_minimizers.calls",
)


def child_env() -> dict[str, str]:
    """A fixed environment: nothing of the caller's leaks in but PATH."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
    }


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    scale: float = 1.0  # host speed correction, see speed_probe

    @property
    def time_s(self) -> float:
        return self.wall_s * self.scale


def run_child(cmd: list[str], cwd: Path) -> Child:
    """Run one process to completion; wall time, exit code and its own max RSS."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,
        (cwd / "stdout").read_text(encoding="utf-8", errors="replace"),
    )


def speed_probe() -> float:
    """Wall time of a fixed pure-Python load, run in this process between ops.

    The host's speed drifts by up to 20% over minutes (other tenants share
    its cores).  Each op and set-up time is multiplied by PROBE_S over the
    mean of the probes just before and after it, which cancels that drift;
    the raw wall times are printed and recorded as well.
    """
    t0 = time.perf_counter()
    acc = 0
    for _ in range(3):
        for a in range(1, 256):
            for b in range(1, 256):
                acc ^= gf256.mul(a, b)
    return time.perf_counter() - t0


def _workdir() -> Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=OUT / "tmp"))


def measure_setup() -> Child:
    """A fresh CLI process that imports k3lat.cli and stops at a usage error."""
    cwd = _workdir()
    try:
        return run_child([sys.executable, "-m", "k3lat.cli"], cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


@dataclass
class OpResult:
    op: workloads.Op
    child: Child
    problems: list[str]
    report: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(op: workloads.Op, traced: bool = False) -> OpResult:
    cwd = _workdir()
    try:
        for name, text in op.files.items():
            (cwd / name).write_text(text, encoding="utf-8")
        if traced:
            cmd = [sys.executable, str(TRACER), "trace.json", *op.args]
        else:
            cmd = [sys.executable, "-m", "k3lat.cli", *op.args]
        child = run_child(cmd, cwd)
        problems = []
        report = {}
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        try:
            report = json.loads(child.stdout)
        except json.JSONDecodeError:
            problems.append("report is not JSON")
        else:
            if report.get("pass") is not True:
                problems.append('report says "pass": false')
            try:
                problems += op.check(report)
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                problems.append(f"malformed report ({type(exc).__name__}: {exc})")
        trace = None
        if traced:
            try:
                trace = json.loads((cwd / "trace.json").read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                problems.append("trace summary missing")
        return OpResult(op, child, problems, report, trace)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


@dataclass
class Run:
    results: list[OpResult]

    @property
    def passed(self) -> list[OpResult]:
        return [r for r in self.results if r.ok]

    @property
    def op_times(self) -> list[float]:
        """Scaled wall times of the passed ops."""
        return [r.child.time_s for r in self.passed]

    @property
    def run_s(self) -> float:
        """Time of the passed ops; the generator's own checks are not in it."""
        return sum(self.op_times)

    @property
    def raw_run_s(self) -> float:
        return sum(r.child.wall_s for r in self.passed)


def measure(ops: list[workloads.Op], traced: bool = False) -> tuple[list[Child], Run, Run | None]:
    """Set-up invocations and ops, interleaved so that both sample the whole run.

    With ``traced`` each op runs untraced and right after it traced, so that
    both see the same machine state.  A speed probe runs before the first
    op and after each one.
    """
    per_op = -(-SETUP_RUNS // len(ops))
    setups: list[Child] = []
    plain: list[OpResult] = []
    with_trace: list[OpResult] = []
    before = speed_probe()
    for op in ops:
        group = [measure_setup() for _ in range(per_op)]
        done = [run_op(op)] + ([run_op(op, traced=True)] if traced else [])
        after = speed_probe()
        scale = 2 * PROBE_S / (before + after)
        for child in group + [r.child for r in done]:
            child.scale = scale
        setups += group
        plain.append(done[0])
        with_trace += done[1:]
        before = after
    return setups, Run(plain), Run(with_trace) if traced else None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten ops beyond it, with its value."""
    n = len(times)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(times)[n - 11]


def check_times(run: Run) -> dict[str, float]:
    """Median per check of each report's timing_ms block."""
    seen: dict[str, list[float]] = {}
    for r in run.passed:
        for name, ms in r.report.get("timing_ms", {}).items():
            seen.setdefault(name, []).append(ms)
    return {f"cli.check.{name}_ms": statistics.median(v) for name, v in seen.items()}


def end_to_end(setups: list[Child], run: Run) -> dict[str, float]:
    rss = [c.rss_mb for c in setups] + [r.child.rss_mb for r in run.results]
    return {
        "setup_s": statistics.median(c.time_s for c in setups),
        "run_s": run.run_s,
        "op_p50_s": statistics.median(run.op_times) if run.op_times else 0.0,
        "peak_rss_mb": max(rss),
    }


def per_layer(untraced: Run, traced: Run) -> dict[str, float]:
    """Span statistics and work counters of the traced ops, summed over the run."""
    out: dict[str, float] = {}
    for r in traced.passed:
        functions = r.trace["functions"]
        stats = [(f"{fn}.{stat}", v) for fn, st in functions.items() for stat, v in st.items()]
        for key, v in stats + list(r.trace["counters"].items()):
            out[key] = out.get(key, 0) + v
    out["surfaces.lines_through.lines_yielded"] = out.get("surfaces.lines_through.yielded", 0)
    for ratio, num, den in (
        ("surfaces.is_splitting.hit_ratio", "surfaces.is_splitting.hits", "surfaces.is_splitting.calls"),
        (
            "root_systems.bounded_class_minimizers.distinct_ratio",
            "root_systems.bounded_class_minimizers.distinct_keys",
            "root_systems.bounded_class_minimizers.calls",
        ),
    ):
        out[ratio] = out.get(num, 0) / out[den] if out.get(den) else 0.0
    out.update(check_times(untraced))
    out["trace.overhead_s"] = traced.run_s - untraced.run_s
    return out


def counter_flags(key: str, metrics: dict[str, float]) -> list[str]:
    """Compare the deterministic counters with the ones recorded for this op list."""
    path = OUT / "counters.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    now = {name: metrics.get(name, 0) for name in DETERMINISTIC}
    before = recorded.get(key)
    if before is None:
        recorded[key] = now
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True), encoding="utf-8")
        return []
    return [f"{n}: recorded {before.get(n)}, now {now[n]}" for n in DETERMINISTIC if before.get(n) != now[n]]


def expectations(workload: str, ops: list[workloads.Op], metrics: dict[str, float]) -> list[str]:
    """Structural facts of the program when the benchmark was defined.

    A later change may move them on purpose, so a difference is reported,
    not counted as a failure.
    """
    surfaces = sum(op.surfaces for op in ops)
    facts = []
    if workload == "recognize-k8":
        facts.append(("surfaces.lines_through.calls", 0))
        facts.append(("surfaces.is_splitting.calls", 65793 * surfaces))
    if workload == "lattice":
        facts.append(("root_systems.enumerate_roots.roots", 106 * len(ops)))
    return [f"{name} = {metrics.get(name)} (expected {want})" for name, want in facts if metrics.get(name) != want]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<48} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_OP_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "k3lat" / "cli.py").is_file():
        print(f"error: no k3lat source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    # a traced run measures every op twice, untraced and traced, so it takes
    # half the ops to stay within --seconds
    ops = workloads.make_ops(args.workload, args.seed, args.seconds / (1 + args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg(),
    }
    print(f"# k3lat benchmark: {args.workload}, seed {args.seed}, {len(ops)} ops, trace {args.trace}")
    print(f"# python {info['python']}, nproc {info['nproc']}, load average before {info['loadavg_before']}")

    measure_setup()  # warm-up: writes the bytecode caches, not timed
    setups, untraced, traced = measure(ops, traced=bool(args.trace))
    info["loadavg_after"] = loadavg()

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(len(r.results) for r in runs)
    failed = sum(len(r.results) - len(r.passed) for r in runs)
    setup_ok = all(c.code == 2 for c in setups)
    for run in runs:
        for i, r in enumerate(run.results):
            for problem in r.problems:
                print(f"FAIL op {i} ({' '.join(r.op.args)}): {problem}")
    if not setup_ok:
        print("FAIL the usage-error invocation did not exit with code 2")

    e2e = end_to_end(setups, untraced)
    n_ok = len(untraced.op_times)
    scales = [c.scale for c in setups]
    show("speed_scale", statistics.median(scales), "ratio", f"median; {min(scales):.3f} to {max(scales):.3f}")
    show("setup_s", e2e["setup_s"], "s", f"median of {len(setups)}")
    show("setup_s.raw", statistics.median(c.wall_s for c in setups), "s", "unscaled")
    show("run_s", e2e["run_s"], "s", f"{len(ops)} ops")
    show("run_s.raw", untraced.raw_run_s, "s", "unscaled")
    show("op_p50_s", e2e["op_p50_s"], "s", f"median of {n_ok} ops")
    show("op_p50_s.raw", statistics.median(r.child.wall_s for r in untraced.passed) if n_ok else 0.0, "s", "unscaled")
    t = tail(untraced.op_times)
    if t:
        show(f"op_p{t[0]}_s", t[1], "s", f"{n_ok} ops")
    surfaces = sum(r.op.surfaces for r in untraced.passed)
    if surfaces:
        show("surfaces_per_s", surfaces / untraced.run_s, "1/s", f"{surfaces} surfaces, scaled")
    show("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    show("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops")
    for name, ms in sorted(check_times(untraced).items()):
        show(name, ms, "ms", "median")

    if traced:
        layer = per_layer(untraced, traced)
        key = f"{args.workload}/seed={args.seed}/ops={len(ops)}"
        flags = counter_flags(key, layer) if not failed else []
        layer["trace.counter_mismatches"] = len(flags)
        for flag in flags:
            print(f"FLAG deterministic counter differs from the recorded run: {flag}")
        for note in expectations(args.workload, ops, layer):
            print(f"NOTE {note}")
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        for name, m in metrics.items():
            show(name, m["value"], m["unit"])
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(f"# load average after {info['loadavg_after']}")

    result = {
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        info,
        result=result,
        setup_s=[c.wall_s for c in setups],
        op_s=[r.child.wall_s for r in untraced.results],
        traced_op_s=[r.child.wall_s for r in traced.results] if traced else None,
        scale=[r.child.scale for r in untraced.results],
        problems=[r.problems for run in runs for r in run.results],
    )
    (OUT / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
