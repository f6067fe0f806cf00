"""The argparse front end that k3lat.cli's flag table replaced, kept as the
oracle of ``k3lat.cli.parse_args``.

``parse`` reports what the old front end made of a command line, in the
shape ``parse_args`` gives: ``(command, config)`` with the config sorted by
dest, ``"help"`` when it printed help and exited 0, and ``"usage"`` when it
exited 2.  There are three intended differences.  Argparse also took a
unique prefix of a flag (``--samp 4``), which the flag table rejects.
Argparse converted the number flags with ``int()``, which takes a sign,
``_`` and whitespace (``--k +8``, ``--seed 1_0``, ``--modulus=-19``); the
flag table takes ASCII digits only, after a ``-`` for ``--seed``, so it also
reads ``-3\n`` as a flag, not as a negative number.  And the flag table
matches flags by exact name: argparse on Python 3.13 reads ``-hx`` as
``-h -x`` and prints help, where earlier versions, like the table, give a
usage error.
"""

import argparse
import contextlib
import io

from k3lat.ns_glue import EXTRA_GLUE_CHOICES


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
    p = argparse.ArgumentParser(prog="k3lat")
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


def parse(argv: list[str]):
    """(command, config), "help" or "usage", as the argparse front end ended."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code in (0, None) else "usage"
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    return args.command, config
