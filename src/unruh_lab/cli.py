"""Command-line front end: the ``point``, ``figure`` and ``verify`` subcommands,
whose ``--help`` says what each does.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse's
own exit), 3 domain error (the message names the offending parameter), 4 I/O
error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import UnruhLabError
from .output import _KINDS, _PRECISION_RANGE, OutputFormat, render_csv, write_figure_set
from .states import BELL_ALPHA, BobRegion, ChannelFamily, gamma_from_acceleration, read_real
from .sweep import FigurePreset, evaluate_point
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruh-lab",
        description=(
            "Fermionic communication channels between an inertial sender and a "
            "uniformly accelerated receiver: single-point evaluation, figure "
            "datasets, and the verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one channel at one grid point")
    point.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in ChannelFamily],
        help="channel family",
    )
    point.add_argument(
        "--region",
        required=True,
        choices=[r.value for r in BobRegion],
        help="which Rindler wedge the receiver occupies",
    )
    gamma_group = point.add_mutually_exclusive_group(required=True)
    gamma_group.add_argument("--gamma", type=float, help="acceleration angle in radians")
    gamma_group.add_argument(
        "--gamma-degrees", type=float, help="acceleration angle in degrees"
    )
    gamma_group.add_argument(
        "--acceleration",
        nargs=3,
        type=float,
        metavar=("OMEGA", "A", "C"),
        help="mode frequency, proper acceleration, and light speed",
    )
    point.add_argument("--qr", type=float, required=True, help="right-wedge weight in [0, 1]")
    point.add_argument("--alpha", type=float, default=BELL_ALPHA, help="state angle in radians")
    point.add_argument("--f", type=float, default=None, help="Werner fidelity in [0, 1]")

    figure = sub.add_parser("figure", help="write the data files of one or more figure presets")
    figure.add_argument(
        "which", nargs="+", choices=[f.value for f in FigurePreset], help="presets, in order"
    )
    figure.add_argument("--out-dir", default="figure_data", help="output directory")
    figure.add_argument("--format", default=OutputFormat.kind, choices=_KINDS, help="file format")
    digits = "digits after the decimal point, %d..%d" % _PRECISION_RANGE
    for command in (point, figure):
        command.add_argument("--precision", type=int, default=OutputFormat.precision, help=digits)

    verify = sub.add_parser("verify", help="run the acceptance/verification suite")
    verify.add_argument(
        "--quick",
        action="store_true",
        help="skip the determinism/runtime check (the slowest one)",
    )
    return parser


def _cmd_point(args: argparse.Namespace) -> int:
    fmt = OutputFormat("csv", args.precision)  # fail before the evaluation
    gamma = args.gamma
    if args.gamma_degrees is not None:
        # read in degrees, so the message names the value the user gave
        gamma = math.radians(read_real("gamma-degrees", args.gamma_degrees, 0.0, 45.0))
    if args.acceleration is not None:
        gamma = gamma_from_acceleration(*args.acceleration)
    record = evaluate_point(
        ChannelFamily(args.family),
        BobRegion(args.region),
        gamma,
        args.qr,
        args.alpha,
        args.f,
        with_ssa=True,
    )
    header, row = render_csv([record], fmt.precision).splitlines()
    for column, value in zip(header.split(","), row.split(",")):
        print(f"{column}={value}")
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    fmt = OutputFormat(args.format, args.precision)
    written = write_figure_set(args.which, args.out_dir, fmt)
    for path in written:
        print(path)
    print(f"wrote {len(written)} files to {args.out_dir}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(include_determinism=not args.quick)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if result.informational:
            status = "NOTE"
        elif not result.passed:
            failed += 1
        print(f"{status} {result.name}: {result.detail}")
    total = sum(1 for r in results if not r.informational)
    print(f"{total - failed} of {total} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "figure":
            return _cmd_figure(args)
        return _cmd_verify(args)
    except UnruhLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
