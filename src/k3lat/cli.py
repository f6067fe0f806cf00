"""Batch verification driver.

Subcommands expose the lattice-side and surface-side check suites with
JSON or text reports.  Reports are deterministic for a fixed configuration
(the timing block is the only part that varies between runs); exit code 0
means every check passed, 1 means a check failed, 2 means a usage error or a
report that could not be written.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time

from .char2_surfaces.field import BinaryField, is_digits
from .char2_surfaces.poly import HomPoly
from .char2_surfaces.recognize import recognize_surface
from .char2_surfaces.surfaces import (
    is_splitting,
    line_through,
    on_cube_locus,
    schroeer_sextic,
    table_points,
    verify_configuration,
)
from .configuration import DIAGONAL_FORKS, L_LABELS, point_labels
from .lattice_core import (
    DualVector,
    class_of,
    elementary_factors,
    is_even,
    lattice_A1,
    lattice_D4,
    ratio,
)
from .root_systems import bounded_class_minimizers, norms_all_odd
from .ns_glue import (
    EXTRA_GLUE_CHOICES,
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

def cmd_lattice(config: dict, checks: Checks) -> None:
    ls = build_lambda()

    def base_check():
        lat = ls.lattice
        witness = {
            "rank": lat.rank,
            "det": str(lat.det()),
            "inertia": list(lat.inertia()),
            "discriminant": elementary_factors(lat),
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
    if config["inject_corrupt_glue"]:
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
        sigma = artin_invariant(ns.lattice)
        witness = {
            "rank": ns.lattice.rank,
            "index": ns.index,
            "det": str(ns.lattice.det()),
            "sigma": sigma,
            "even": is_even(ns.lattice),
            "two_elementary": elementary_factors(ns.lattice) is not None,
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

    if config["with_extra_glue"]:
        def overlattice_extra():
            extra = extra_glue_class(ls, config["with_extra_glue"])
            ns1 = build_overlattice(ls, tuple(glue) + (extra,))
            sigma = artin_invariant(ns1.lattice)
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
        ok = True
        for key, lattice, cls, max_norm2, threshold2 in cases:
            norms = [norm2 for norm2, _ in bounded_class_minimizers(lattice, cls, threshold2)]
            rest = [norm2 for norm2 in norms if norm2 < norms[0]]
            out[key] = {"max": ratio(norms[0], 2), "next": ratio(rest[0], 2) if rest else "None"}
            ok = ok and norms[0] == max_norm2 and norms.count(max_norm2) == 1
            ok = ok and bool(rest) and rest[0] <= threshold2
        all_odd = norms_all_odd(d4, d4.dual_basis_vector(0))
        out["D4_dual"]["all_odd"] = all_odd
        return ok and all_odd, out

    checks.run("bounded_class_searches", class_searches)

    def uniqueness():
        ns = ns_holder.get("ns")
        if ns is None:
            return False, {"error": "overlattice unavailable"}
        witness = {}
        ok = True
        for gv in glue:
            res = unique_halfline_search(gv, ns)
            witness[gv.name] = res.to_json_obj(ls)
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
        if not on_cube_locus(field, r, s):
            pairs[r, s] = None
    return list(pairs)


def _surface_case(field: BinaryField, r: int, s: int) -> tuple[bool, dict]:
    conf = verify_configuration(field, r, s)
    named = table_points(field, r, s)
    types = dict(conf.report.points)
    witness = {
        "r": format(r, "x"),
        "s": format(s, "x"),
        "points": {
            label: {"coords": [format(c, "x") for c in p], "type": types.get(p, "missing")}
            for label, p in sorted(named.items())
        },
        "milnor": conf.report.total_milnor,
        "splitting_lines": [[format(c, "x") for c in cert.line] for cert in conf.certificates],
        "certificates": [
            {
                "line": [format(c, "x") for c in cert.line],
                "quintic": cert.quintic.to_json_obj()["terms"],
                "cubic": cert.cubic.to_json_obj()["terms"],
            }
            for cert in conf.certificates
        ],
        "findings": list(conf.findings),
    }
    return not conf.findings, witness


def _read_sextic(path: str) -> HomPoly:
    """The sextic in the --recognize file; anything unreadable or of another degree is a usage error."""
    # json raises RecursionError on a deeply nested file
    try:
        with open(path, "r", encoding="utf-8") as fh:
            g = HomPoly.from_json_obj(json.loads(fh.read()))
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


def _write(text: str, out=None) -> None:
    """Write text to the opened --out file, or to stdout when out is None; a
    failed write or flush is a usage error."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with out:  # closing flushes, and closes the file after a failed write too
                out.write(text)
    except OSError as exc:
        where = "stdout" if out is None else f"--out {out.name}"
        raise UsageError(f"{where}: {type(exc).__name__}: {exc}") from None


def _family_inputs(config: dict) -> tuple[BinaryField, list[tuple[int, int]]]:
    """The field and the (r, s) pairs of the family cases; a bad value is a usage error."""
    k, rx, sx, samples = config["k"], config["r"], config["s"], config["samples"]
    # the family's nine points need a cube root of unity, which GF(2^k) has iff k is even
    if k % 2:
        raise UsageError("family cases need a cube root of unity, so --k must be even")
    try:
        field = BinaryField(k, config["modulus"])
    except Exception as exc:
        raise UsageError(str(exc))
    if rx is None and sx is None:
        # for even k, r^3 = s^3 has three solutions s for each nonzero r
        off_cube = (field.q - 1) * (field.q - 4)
        if samples > off_cube:
            raise UsageError(f"--samples {samples} exceeds the {off_cube} pairs (r, s) "
                             f"off the cube locus in GF(2^{field.k})")
        return field, _sample_pairs(field, samples, config["seed"])
    if rx is None or sx is None:
        raise UsageError("--r and --s must be given together")
    try:
        r = BinaryField.parse_bits(rx)
        s = BinaryField.parse_bits(sx)
    except ValueError:
        raise UsageError("--r and --s must be hex, 0x-hex or 0b-binary field elements")
    if not (0 <= r < field.q and 0 <= s < field.q):
        raise UsageError(f"r and s must be elements of GF(2^{field.k})")
    if (r == 0 or s == 0) and not config["allow_degenerate"]:
        raise UsageError("r = 0 or s = 0 is outside the verified regime "
                         "(pass --allow-degenerate to build anyway)")
    return field, [(r, s)]


def cmd_surface(g: HomPoly | None, family, checks: Checks) -> None:
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
        # the diagonal through the two opposite fork points splits iff r^3 = s^3
        ok = True
        seen = []
        for r, s in pairs:
            g = schroeer_sextic(field, r, s)
            named = table_points(field, r, s)
            l = line_through(field, *(named[p] for p in point_labels(DIAGONAL_FORKS, ())))
            splits = is_splitting(g, l) is not None
            expected = on_cube_locus(field, r, s)
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


# the usage block of README.md, printed on stdout by -h and --help
USAGE = """\
k3lat lattice [--with-extra-glue 1|w|wb] [--format json|text] [--out PATH]
k3lat surface [--k N] [--modulus M] (--r HEX --s HEX | --samples N --seed N)
              [--line-scan full] [--allow-degenerate]
              [--recognize FILE] [--format json|text] [--out PATH]
k3lat all     [--with-extra-glue 1|w|wb]
              [--k N] [--modulus M] (--r HEX --s HEX | --samples N --seed N)
              [--line-scan full] [--allow-degenerate]
              [--recognize FILE] [--format json|text] [--out PATH]
k3lat [lattice|surface|all] -h|--help
"""


def _decimal(text: str) -> int:
    if not is_digits(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """Decimal digits after an optional '-': a seed may be negative."""
    return int(text) if is_digits(text.removeprefix("-")) else _decimal(text)


def _modulus(text: str) -> int:
    """Decimal, 0x-hex or 0b-binary digits, read by int(text, 0): no leading 0."""
    base = {"0x": 16, "0b": 2}.get(text[:2].lower(), 10)
    try:
        if is_digits(text if base == 10 else text[2:], base):
            return int(text, 0)
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not decimal, 0x-hex or 0b-binary")


def _positive_int(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


# Each flag maps to (dest, kind, default).  The kind is a converter, a tuple
# of the accepted values, or SWITCH for a flag that takes no value and sets
# its dest to True.
SWITCH = None

COMMON_FLAGS = {
    "--format": ("format", ("json", "text"), "json"),
    "--out": ("out", str, None),
}

LATTICE_FLAGS = {
    "--with-extra-glue": ("with_extra_glue", EXTRA_GLUE_CHOICES, None),
    # unlisted in USAGE: breaks one glue vector, so that the suite must fail
    "--inject-corrupt-glue": ("inject_corrupt_glue", SWITCH, False),
}

SURFACE_FLAGS = {
    "--k": ("k", _decimal, 8),
    "--modulus": ("modulus", _modulus, None),
    "--r": ("r", str, None),
    "--s": ("s", str, None),
    "--samples": ("samples", _positive_int, 3),
    "--seed": ("seed", _seed, 1),
    "--allow-degenerate": ("allow_degenerate", SWITCH, False),
    # nothing reads it: there is one, exhaustive, scan; kept so invocations naming it parse
    "--line-scan": ("line_scan", ("full",), "full"),
    "--recognize": ("recognize", str, None),
}

# all takes the union of the lattice and surface flags; only --k's default differs
FLAGS = {
    "lattice": COMMON_FLAGS | LATTICE_FLAGS,
    "surface": COMMON_FLAGS | SURFACE_FLAGS,
    "all": COMMON_FLAGS | LATTICE_FLAGS | SURFACE_FLAGS | {"--k": ("k", _decimal, 4)},
}


def _flag_like(arg: str) -> bool:
    """Whether arg reads as a flag rather than a value: it starts with '-' and
    is not '-', a negative number (-N, -N.N or -.N) or a string with a space."""
    whole, dot, frac = arg[1:].partition(".")
    negative_number = is_digits(whole + frac) and (frac or not dot)
    return arg[:1] == "-" and arg != "-" and " " not in arg and not negative_number


def parse_args(argv: list[str]) -> tuple[str, dict] | None:
    """The command of a command line and its config, the value of every flag
    in the command's table by dest, in sorted order; None when -h or --help
    asks for the usage block.  A bad command line raises UsageError.

    A flag is matched by its exact name, and its value follows it or an '='.
    The last of a repeated flag wins, and an unrecognized argument is
    reported only at the end, so help asked for after one is still given.
    """
    command, flags, config, unknown = None, {}, {}, []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg in ("-h", "--help"):
            return None
        if command is None and not _flag_like(arg):
            if arg not in FLAGS:
                raise UsageError(f"invalid command {arg!r} (choose from {', '.join(FLAGS)})")
            command, flags = arg, FLAGS[arg]
            config = {dest: default for dest, _, default in flags.values()}
            continue
        name, eq, value = arg.partition("=")
        if name not in flags:
            unknown.append(arg)
            continue
        dest, kind, _ = flags[name]
        if kind is SWITCH:
            if eq:
                raise UsageError(f"argument {name}: takes no value")
            config[dest] = True
            continue
        if not eq:
            if i == len(argv) or _flag_like(argv[i]):
                raise UsageError(f"argument {name}: expected one value")
            value = argv[i]
            i += 1
        if type(kind) is tuple:
            if value not in kind:
                raise UsageError(
                    f"argument {name}: invalid choice {value!r} (choose from {', '.join(kind)})"
                )
        else:
            try:
                value = kind(value)
            except ValueError as exc:
                raise UsageError(f"argument {name}: {exc}") from None
        config[dest] = value
    if command is None:
        raise UsageError(f"a command is required: {', '.join(FLAGS)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, dict(sorted(config.items()))


def main(argv=None) -> int:
    out = None
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            _write(USAGE)
            return EXIT_OK
        command, config = parsed
        # the --recognize file is read, the family arguments checked and the
        # --out file opened before any suite runs; the report names the field
        # that recognition or the family cases use
        g = family = None
        if config.get("recognize") is not None:
            g = _read_sextic(config["recognize"])
            config["k"], config["modulus"] = g.field.k, g.field.modulus
        elif command != "lattice":
            family = _family_inputs(config)
            config["modulus"] = family[0].modulus
        out = _open_out(config["out"]) if config["out"] is not None else None
        checks = Checks()
        # lattice checks come first in an all run
        if command != "surface":
            cmd_lattice(config, checks)
        if command != "lattice":
            cmd_surface(g, family, checks)
        report = {
            "config": config,
            "checks": checks.results,
            "timing_ms": checks.timing,
            "pass": checks.all_passed,
        }
        if config["format"] == "json":
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            text = _render_text(report)
        _write(text, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if out is not None:
            out.close()  # a no-op after the report's close
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    # no cyclic collection falls inside a check's timing_ms, and the shutdown
    # collections skip the frozen modules and memos; flushing and atexit still
    # run. main leaves the collector as it is: tests and tracers call it in-process
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
