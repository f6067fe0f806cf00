"""Batch verification driver.

Subcommands expose the lattice-side and surface-side check suites with
JSON or text reports.  Reports are deterministic for a fixed configuration
(the timing block is the only part that varies between runs); exit code 0
means every check passed, 1 means a check failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from .char2_surfaces.field import BinaryField
from .char2_surfaces.poly import HomPoly
from .char2_surfaces.recognize import recognize_surface
from .char2_surfaces.surfaces import (
    is_splitting,
    line_through,
    schroeer_sextic,
    table_points,
    verify_configuration,
)
from .lattice_core import (
    DualVector,
    class_of,
    elementary_factors,
    is_even,
    is_p_elementary,
    lattice_A1,
    lattice_D4,
    ratio,
)
from .root_systems import bounded_class_minimizers
from .ns_glue import (
    EXTRA_GLUE_CHOICES,
    L_LABELS,
    GlueVector,
    artin_invariant,
    build_lambda,
    build_overlattice,
    exceptional_root_analysis,
    extra_glue_class,
    halfline_class,
    independence_check,
    unique_halfline_search,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class Checks:
    def __init__(self):
        self.results = []
        self.timing = {}

    def run(self, name: str, fn, **context):
        """Run fn() -> (passed, witness); a check that raises fails with context in its witness."""
        start = time.perf_counter()
        try:
            passed, witness = fn()
        except Exception as exc:  # a raised contract error is a failed check
            passed = False
            witness = {**context, "error": str(exc), "error_type": type(exc).__name__}
        self.timing[name] = round((time.perf_counter() - start) * 1000.0, 3)
        self.results.append({"name": name, "pass": bool(passed), "witness": witness})

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.results)


# ---------------------------------------------------------------------------
# lattice subcommand
# ---------------------------------------------------------------------------

def cmd_lattice(args, checks: Checks) -> None:
    ls = build_lambda()

    def base_check():
        lat = ls.lattice
        witness = {
            "rank": lat.rank,
            "det": str(lat.det()),
            "inertia": list(lat.inertia()),
            "discriminant": elementary_factors(lat, 2),
        }
        ok = (
            lat.rank == 22
            and lat.det() == -(2**14)
            and lat.inertia() == (1, 21, 0)
            and witness["discriminant"] == [2] * 14
            and is_even(lat)
        )
        return ok, witness

    checks.run("base_lattice", base_check)

    glue = [halfline_class(ls, lam) for lam in L_LABELS]
    if args.inject_corrupt_glue:
        # half the basis vector e_3 breaks integrality against the base
        e3 = DualVector(ls.lattice, [int(j == 3) for j in range(ls.lattice.rank)], 2)
        glue[1] = GlueVector(glue[1].name, glue[1].vector + e3)

    def independence():
        for gv in glue:
            v = gv.vector
            if not v.is_dual_vector():
                return False, {
                    "offender": gv.name,
                    "coords": [ratio(c, v.den) for c in v.num],
                    "basis_pairings": [ratio(x, v.den) for x in v.pairing_numerators()],
                }
        ok, rank = independence_check(glue)
        return ok and rank == 5, {"rank": rank}

    checks.run("glue_independence", independence)

    ns_holder = {}

    def overlattice():
        ns = build_overlattice(ls, tuple(glue))
        ns_holder["ns"] = ns
        sigma = artin_invariant(ns.lattice, 2)
        witness = {
            "rank": ns.lattice.rank,
            "index": ns.index,
            "det": str(ns.lattice.det()),
            "sigma": sigma,
            "even": is_even(ns.lattice),
            "two_elementary": is_p_elementary(ns.lattice, 2),
        }
        ok = (
            ns.index == 32
            and ns.lattice.det() == -16
            and sigma == 2
            and witness["even"]
            and witness["two_elementary"]
        )
        return ok, witness

    checks.run("overlattice_sigma2", overlattice)

    if args.with_extra_glue:
        def overlattice_extra():
            extra = extra_glue_class(ls, args.with_extra_glue)
            ns1 = build_overlattice(ls, tuple(glue) + (extra,))
            sigma = artin_invariant(ns1.lattice, 2)
            witness = {"index": ns1.index, "det": str(ns1.lattice.det()), "sigma": sigma}
            return ns1.index == 64 and ns1.lattice.det() == -4 and sigma == 1, witness

        checks.run("overlattice_sigma1", overlattice_extra)

    def root_type_check():
        ns = ns_holder.get("ns")
        if ns is None:
            return False, {"error": "overlattice unavailable"}
        report = exceptional_root_analysis(ns)
        witness = {
            "complement_rank": report.complement_rank,
            "complement_inertia": list(report.complement_inertia),
            "root_count": report.root_count,
            "type": report.type_string,
            "total_component_rank": report.total_component_rank,
        }
        ok = (
            report.type_string == "4D4+5A1"
            and report.total_component_rank == 21
            and report.complement_inertia == (0, 21, 0)
        )
        return ok, witness

    checks.run("exceptional_root_type", root_type_check)

    def class_searches():
        a1 = lattice_A1()
        d4 = lattice_D4()
        # each class has one maximizer, and the search is exhaustive down to
        # the threshold, where the runner-up sits; norms in half-units, 2 v*v
        cases = [
            ("A1_zero", a1, class_of(a1.zero()), 0, -4),
            ("A1_dual", a1, class_of(a1.dual_basis_vector(0)), -1, -9),
            ("D4_zero", d4, class_of(d4.zero()), 0, -4),
            ("D4_dual", d4, class_of(d4.dual_basis_vector(0)), -2, -6),
        ]
        out = {}
        searches = {}
        ok = True
        for key, lattice, cls, max_norm2, threshold2 in cases:
            s = searches[key] = bounded_class_minimizers(lattice, cls, threshold2)
            runner_up = "None" if s.runner_up2 is None else ratio(s.runner_up2, 2)
            out[key] = {"max": ratio(s.max_norm2, 2), "next": runner_up}
            ok = ok and s.max_norm2 == max_norm2 and len(s.maximizers) == 1
            ok = ok and s.floor2 <= threshold2
            ok = ok and s.runner_up2 is not None and s.runner_up2 <= threshold2
        out["D4_dual"]["all_odd"] = searches["D4_dual"].norms_all_odd
        ok = ok and searches["D4_dual"].norms_all_odd
        return ok, out

    checks.run("bounded_class_searches", class_searches)

    def uniqueness():
        ns = ns_holder.get("ns")
        if ns is None:
            return False, {"error": "overlattice unavailable"}
        witness = {}
        ok = True
        for lam in L_LABELS:
            res = unique_halfline_search(ls, lam, ns)
            witness[f"F({res.label})"] = res.to_json_obj(ls)
            ok = ok and res.is_unique_expected()
        return ok, witness

    checks.run("halfline_uniqueness", uniqueness)


# ---------------------------------------------------------------------------
# surface subcommand
# ---------------------------------------------------------------------------

def _sample_pairs(field: BinaryField, count: int, seed: int) -> list[tuple[int, int]]:
    """count distinct seeded pairs (r, s) of nonzero elements off the cube locus r^3 = s^3."""
    rng = random.Random(seed)
    pairs = {}  # keeps the order of first draws and drops repeats
    while len(pairs) < count:
        r = rng.randrange(1, field.q)
        s = rng.randrange(1, field.q)
        if field.pow(r, 3) != field.pow(s, 3):
            pairs[r, s] = None
    return list(pairs)


def _surface_case(field: BinaryField, r: int, s: int) -> tuple[bool, dict]:
    g = schroeer_sextic(field, r, s)
    conf = verify_configuration(g, r=r, s=s)
    # on the cube locus both diagonals of the four fork points split as well
    extra_expected = field.pow(r, 3) == field.pow(s, 3)
    n_expected = 7 if extra_expected else 5
    named = table_points(field, r, s)
    types = dict(conf.report.points)
    witness = {
        "r": format(r, "x"),
        "s": format(s, "x"),
        "points": {
            label: {"coords": [format(c, "x") for c in p], "type": types.get(p, "missing")}
            for label, p in sorted(named.items())
        },
        "milnor": conf.total_milnor,
        "splitting_lines": [[format(c, "x") for c in l] for l in conf.splitting_lines],
        "certificates": [
            {
                "line": [format(c, "x") for c in line],
                "quintic": cert.quintic.to_json_obj()["terms"],
                "cubic": cert.cubic.to_json_obj()["terms"],
            }
            for line, cert in conf.certificates
        ],
        "findings": list(conf.findings),
    }
    ok = conf.ok and len(conf.splitting_lines) == n_expected
    if not ok and not conf.findings:
        witness["findings"] = [
            f"expected {n_expected} splitting lines, found {len(conf.splitting_lines)}"
        ]
    return ok, witness


def _read_sextic(path: str) -> HomPoly:
    """The sextic in the --recognize file; anything unreadable or of another degree is a usage error."""
    # json raises RecursionError on a deeply nested file
    try:
        with open(path, "r", encoding="utf-8") as fh:
            g = HomPoly.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"--recognize {path}: {type(exc).__name__}: {exc}")
    if g.degree != 6:
        raise UsageError(f"--recognize {path}: degree {g.degree}, but only sextics are recognized")
    return g


def _open_out(path: str):
    """The --out file, opened for writing; an unwritable path is a usage error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"--out {path}: {type(exc).__name__}: {exc}")


def _family_inputs(args) -> tuple[BinaryField, list[tuple[int, int]]]:
    """The field and the (r, s) pairs of the family cases; a bad value is a usage error."""
    # the family's nine points need a cube root of unity, which GF(2^k) has iff k is even
    if args.k % 2:
        raise UsageError("family cases need a cube root of unity, so --k must be even")
    try:
        field = BinaryField(args.k, args.modulus)
    except Exception as exc:
        raise UsageError(str(exc))
    if args.r is None and args.s is None:
        # for even k, r^3 = s^3 has three solutions s for each nonzero r
        off_cube = (field.q - 1) * (field.q - 4)
        if args.samples > off_cube:
            raise UsageError(f"--samples {args.samples} exceeds the {off_cube} pairs (r, s) "
                             f"off the cube locus in GF(2^{field.k})")
        return field, _sample_pairs(field, args.samples, args.seed)
    if args.r is None or args.s is None:
        raise UsageError("--r and --s must be given together")
    try:
        r = BinaryField.parse_bits(args.r)
        s = BinaryField.parse_bits(args.s)
    except ValueError:
        raise UsageError("--r and --s must be hex, 0x-hex or 0b-binary field elements")
    if not (0 <= r < field.q and 0 <= s < field.q):
        raise UsageError(f"r and s must be elements of GF(2^{field.k})")
    if (r == 0 or s == 0) and not args.allow_degenerate:
        raise UsageError("r = 0 or s = 0 is outside the verified regime "
                         "(pass --allow-degenerate to build anyway)")
    return field, [(r, s)]


def cmd_surface(args, g: HomPoly | None, family, checks: Checks) -> None:
    """Recognition of g (from --recognize), or the family cases of _family_inputs."""
    if g is not None:
        # recognition reads its field from the file
        def recog():
            res = recognize_surface(g)
            return True, {"t": format(res.t, "x")}

        checks.run("recognize", recog)
        return

    field, pairs = family
    for r, s in pairs:
        rx, sx = format(r, "x"), format(s, "x")
        checks.run(
            f"surface_r={rx}_s={sx}",
            lambda r=r, s=s: _surface_case(field, r, s),
            r=rx,
            s=sx,
        )

    def dichotomy():
        # the line joining the two opposite fork points splits iff r^3 = s^3
        ok = True
        seen = []
        for r, s in pairs:
            g = schroeer_sextic(field, r, s)
            l = line_through(field, (0, 0, 1), (r, s, 1))
            splits = is_splitting(g, HomPoly.linear(field, l)) is not None
            expected = field.pow(r, 3) == field.pow(s, 3)
            seen.append(
                {"r": format(r, "x"), "s": format(s, "x"), "splits": splits, "cube": expected}
            )
            ok = ok and (splits == expected)
        return ok, {"cases": seen}

    checks.run("extra_line_dichotomy", dichotomy)


class UsageError(Exception):
    pass


def _render_text(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{mark} {c['name']}")
        if not c["pass"]:
            lines.append(f"     witness: {json.dumps(c['witness'], sort_keys=True)}")
    lines.append(f"{'PASS' if report['pass'] else 'FAIL'} overall")
    return "\n".join(lines) + "\n"


def _modulus(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not decimal, 0x-hex or 0b-binary") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="k3lat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the report to a file")

    def lattice_flags(sp):
        sp.add_argument("--with-extra-glue", choices=EXTRA_GLUE_CHOICES, default=None)
        sp.add_argument("--inject-corrupt-glue", action="store_true", help=argparse.SUPPRESS)

    def surface_flags(sp, k_default):
        sp.add_argument("--k", type=int, default=k_default, help="field is GF(2^k)")
        sp.add_argument("--modulus", type=_modulus, default=None)
        sp.add_argument("--r", default=None, help="hex bitstring")
        sp.add_argument("--s", default=None, help="hex bitstring")
        sp.add_argument("--samples", type=_positive_int, default=3)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--allow-degenerate", action="store_true")
        # nothing reads it: there is one, exhaustive, scan; kept so invocations naming it parse
        sp.add_argument("--line-scan", choices=("full",), default="full")
        sp.add_argument("--recognize", default=None, help="polynomial JSON file")

    lat = sub.add_parser("lattice", help="lattice-side checks")
    common(lat)
    lattice_flags(lat)

    surf = sub.add_parser("surface", help="surface-side checks")
    common(surf)
    surface_flags(surf, 8)

    allp = sub.add_parser("all", help="both suites")
    common(allp)
    lattice_flags(allp)
    surface_flags(allp, 4)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("command",)}
    out = None
    try:
        # the --recognize file is read, the family arguments checked and the
        # --out file opened before any suite runs
        g = _read_sextic(args.recognize) if getattr(args, "recognize", None) else None
        family = _family_inputs(args) if args.command != "lattice" and g is None else None
        out = _open_out(args.out) if args.out else None
        checks = Checks()
        # lattice checks come first in an all run
        if args.command != "surface":
            cmd_lattice(args, checks)
        if args.command != "lattice":
            cmd_surface(args, g, family, checks)
        report = {
            "config": config,
            "checks": checks.results,
            "timing_ms": checks.timing,
            "pass": checks.all_passed,
        }
        if args.format == "json":
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            text = _render_text(report)
        (out or sys.stdout).write(text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if out is not None:
            out.close()
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    code = main()
    # the collections at interpreter shutdown skip the permanent generation,
    # so they need not walk the modules and memos; flushing and atexit still
    # run. main freezes nothing itself: tests and tracers call it in-process
    gc.freeze()
    raise SystemExit(code)
