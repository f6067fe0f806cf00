"""The benchmark's workloads: seeded op lists and independent output checks.

An op is one ``python -m k3lat.cli`` invocation: its arguments, the files
it reads and the number of surfaces it verifies.  Each check reads the
JSON report and returns a list of problems; an empty list means the op's
output is correct.  The checks recompute what they can with ``gf256``
instead of trusting the report's own ``pass`` field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import gf256

# Surfaces per family-k8 invocation; about 0.8 s each at this size.
FAMILY_SAMPLES = 4

# Wall seconds of one op at the commit that defined the benchmark, 2-core
# x86 host, Python 3.11.  The op count of a run is --seconds divided by this,
# so the work done for a given --seconds never depends on the program's speed.
NOMINAL_OP_S = {"lattice": 3.1, "family-k8": 3.4, "recognize-k8": 5.3}


@dataclass
class Op:
    args: list[str]
    check: Callable[[dict], list[str]]
    files: dict[str, str] = field(default_factory=dict)
    surfaces: int = 0


def op_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_OP_S[workload]))


def make_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    """The op list of one run; the same (workload, seed, seconds) gives the same list."""
    n = op_count(workload, seconds)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lattice":
        # each block of three ops covers every extra glue class once, in a
        # seeded order, so every run has the same mix
        out = []
        while len(out) < n:
            block = ["1", "w", "wb"]
            rng.shuffle(block)
            out.extend(lattice_op(c) for c in block)
        return out[:n]
    if workload == "family-k8":
        return [family_op(rng.randrange(1, 2**31), FAMILY_SAMPLES) for _ in range(n)]
    if workload == "recognize-k8":
        return [recognize_op(gf256.dense_family_member(rng)) for _ in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


def _checks(report: dict) -> dict[str, dict]:
    return {c["name"]: c for c in report.get("checks", [])}


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def lattice_op(glue: str) -> Op:
    return Op(["lattice", "--with-extra-glue", glue], lambda rep: check_lattice(rep, glue))


def check_lattice(report: dict, glue: str) -> list[str]:
    bad = []
    if report.get("config", {}).get("with_extra_glue") != glue:
        bad.append("report is for another extra glue class")
    checks = _checks(report)

    def witness(name):
        if name not in checks:
            bad.append(f"check {name} missing")
            return {}
        return checks[name]["witness"]

    for name, index, det, sigma in (
        ("overlattice_sigma2", 32, "-16", 2),
        ("overlattice_sigma1", 64, "-4", 1),
    ):
        w = witness(name)
        got = (w.get("index"), w.get("det"), w.get("sigma"))
        if got != (index, det, sigma):
            bad.append(f"{name}: index, det, sigma = {got}, expected {(index, det, sigma)}")
    w = witness("exceptional_root_type")
    if (w.get("type"), w.get("root_count")) != ("4D4+5A1", 106):
        bad.append(f"root type {w.get('type')} with {w.get('root_count')} roots")
    w = witness("halfline_uniqueness")
    labels = {"F(0*)", "F(1*)", "F(*0)", "F(*1)", "F(inf)"}
    if set(w) != labels:
        bad.append(f"half-line classes {sorted(w)}")
    for label in sorted(labels & set(w)):
        entry = w[label]
        if entry.get("unique_expected") is not True or len(entry.get("candidates", [])) != 1:
            bad.append(f"{label} is not unique")
    return bad


# ---------------------------------------------------------------------------
# family-k8
# ---------------------------------------------------------------------------

def family_op(cli_seed: int, samples: int) -> Op:
    return Op(
        ["surface", "--k", "8", "--samples", str(samples), "--seed", str(cli_seed)],
        lambda rep: check_family(rep, samples),
        surfaces=samples,
    )


def _expected_lines(r: int, s: int) -> set[tuple[int, int, int]]:
    """L(inf), L(0*), L(1*), L(*0), L(*1) of the family member, normalized."""
    return {gf256.normalize_line(l) for l in ((0, 0, 1), (1, 0, 0), (1, 0, r), (0, 1, 0), (0, 1, s))}


def check_surface_case(w: dict) -> list[str]:
    r, s = int(w["r"], 16), int(w["s"], 16)
    if not gf256.off_cube(r, s):
        return [f"(r, s) = ({w['r']}, {w['s']}) is on the cube locus"]
    bad = []
    g = gf256.schroeer_sextic(r, s)
    lines = {tuple(int(c, 16) for c in l) for l in w["splitting_lines"]}
    if len(w["splitting_lines"]) != 5 or lines != _expected_lines(r, s):
        bad.append(f"splitting lines {w['splitting_lines']} are not the five standard lines")
    certs = w["certificates"]
    if len(certs) != 5 or {tuple(int(c, 16) for c in cert["line"]) for cert in certs} != lines:
        bad.append("certificates do not cover the splitting lines")
    for cert in certs:
        a, b, c = (int(x, 16) for x in cert["line"])
        ell = {e: v for e, v in (((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), c)) if v}
        quintic = gf256.form_from_terms(cert["quintic"])
        cubic = gf256.form_from_terms(cert["cubic"])
        rebuilt = gf256.form_add(gf256.form_mul(ell, quintic), gf256.form_mul(cubic, cubic))
        if rebuilt != g:
            bad.append(f"certificate for line {cert['line']}: l*Q + C^2 != G")
    types = sorted(p["type"] for p in w["points"].values())
    if types != ["A1"] * 5 + ["D4"] * 4 or w.get("milnor") != 21:
        bad.append(f"singular points {types}, Milnor number {w.get('milnor')}")
    return bad


def check_family(report: dict, samples: int) -> list[str]:
    checks = report.get("checks", [])
    cases = [c for c in checks if c["name"].startswith("surface_")]
    if len(cases) != samples:
        return [f"{len(cases)} surface cases, expected {samples}"]
    bad = []
    pairs = []
    for case in cases:
        w = case["witness"]
        pairs.append((w.get("r"), w.get("s")))
        try:
            bad += [f"{case['name']}: {p}" for p in check_surface_case(w)]
        except (KeyError, ValueError, TypeError) as exc:
            bad.append(f"{case['name']}: malformed witness ({type(exc).__name__}: {exc})")
    dich = _checks(report).get("extra_line_dichotomy")
    if dich is None:
        return bad + ["extra_line_dichotomy missing"]
    dcases = dich["witness"].get("cases", [])
    if [(c.get("r"), c.get("s")) for c in dcases] != pairs:
        bad.append("dichotomy cases differ from the surface cases")
    if any(c.get("splits") is not False or c.get("cube") is not False for c in dcases):
        bad.append("a dichotomy case off the cube locus reports a splitting diagonal")
    return bad


# ---------------------------------------------------------------------------
# recognize-k8
# ---------------------------------------------------------------------------

RECOGNIZE_FILE = "surface.json"


def recognize_op(g: dict) -> Op:
    text = json.dumps(gf256.form_to_json_obj(g, 6), sort_keys=True)
    return Op(
        ["surface", "--k", "8", "--recognize", RECOGNIZE_FILE, "--line-scan", "full"],
        check_recognize,
        files={RECOGNIZE_FILE: text},
        surfaces=1,
    )


def check_recognize(report: dict) -> list[str]:
    rec = _checks(report).get("recognize")
    if rec is None or rec.get("pass") is not True:
        return ["recognition did not pass"]
    t = rec["witness"].get("t", "0")
    if int(t, 16) == 0:
        return ["recognized parameter t is 0"]
    return []
