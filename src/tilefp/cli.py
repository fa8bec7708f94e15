"""Command-line front end: floorplan runs, design generation, checking.

Exit codes for the ``floorplan`` subcommand: 0 success, 1 unreadable,
undecodable (not UTF-8) or malformed input, a device too large to hold in
memory, an out-of-range option or an unwritable output, 2 a module that
fits nowhere on the device, 3 no non-overlapping floorplan (the placement
search proved that none exists among the candidates), 4 the placement
search stopped at its node budgets or at the ``--time-budget`` safety net.
Every ``floorplan`` invocation ends with one summary line no matter how it
exits; it goes to standard output unless a successful run writes its
document there. The document goes to standard output when ``--out`` is
absent or empty (``--out ""``), and to the named file otherwise.
``generate`` does the same with ``OK modules=<n>`` (exit 0), ``PARSE_ERROR
modules=0`` (exit 1: an unreadable, undecodable, malformed or oversized
fabric, or an unwritable output) or ``INFEASIBLE_DESIGN modules=0`` (exit
2: a count or occupancy it cannot meet).

``validate`` exits 0 for a valid document, 1 for an unreadable,
undecodable or malformed plan or fabric (or a device too large to hold in
memory) and 3 for a document with violations, and always ends with one
summary line on standard output.

A summary line that standard output cannot take, because its reader has
gone (a broken pipe), goes to standard error instead, and standard output
is pointed at ``os.devnull`` so that the flush at exit stays quiet. The
exit code stays the run's own: ``floorplan`` and ``generate`` exit 1 when
the document they write there cannot be written, as for any output they
cannot write, and ``validate`` keeps its verdict.

A usage error of a subcommand, such as a missing required option, a value
of the wrong type or an unknown option, exits 1 with that subcommand's
``PARSE_ERROR`` summary line on standard output and argparse's usage
message on standard error. ``--help`` and a missing or unknown subcommand
keep argparse's behaviour (exit 0 and exit 2).

A ``floorplan`` run parses its inputs, applies the ``--alpha``/``--beta``
overrides, checks the options, hands the rest to ``place.run_floorplan``
and writes the document and any drawing. It imports only the pipeline
modules it runs: ``render`` loads when ``--render`` asks for a drawing and
``validate`` when the ``validate`` subcommand runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

from .design import (
    DesignError,
    GenerationError,
    generate_random_design,
    parse_design,
    write_design,
)
from .fabric import FabricError, parse_fabric
from .place import (
    TIME_BUDGET,
    Floorplan,
    PlacementInfeasibleError,
    PlacementTimeoutError,
    run_floorplan,
    write_floorplan,
)
from .tessellation import InfeasibleModuleError

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE_MODULE = 2
EXIT_INFEASIBLE_PLAN = 3
EXIT_TIMEOUT = 4


# How each failure ends a ``floorplan`` run: summary status and exit code.
_FAILURES = {
    FabricError: ("PARSE_ERROR", EXIT_PARSE),
    DesignError: ("PARSE_ERROR", EXIT_PARSE),
    argparse.ArgumentTypeError: ("PARSE_ERROR", EXIT_PARSE),
    OSError: ("PARSE_ERROR", EXIT_PARSE),
    UnicodeError: ("PARSE_ERROR", EXIT_PARSE),
    # a device too large to model, such as ``rows 100000000``
    MemoryError: ("PARSE_ERROR", EXIT_PARSE),
    InfeasibleModuleError: ("INFEASIBLE_MODULE", EXIT_INFEASIBLE_MODULE),
    PlacementInfeasibleError: ("INFEASIBLE_FLOORPLAN", EXIT_INFEASIBLE_PLAN),
    PlacementTimeoutError: ("TIMEOUT", EXIT_TIMEOUT),
}


def _read_text(path: str) -> str:
    """A document's UTF-8 text; an undecodable file raises a UnicodeError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnicodeError(f"{path}: not UTF-8: {exc}") from None


def _write(text: str, path: str | None) -> None:
    """Write an output to ``path``, or to standard output when there is no
    path; flushed, so an output standard output cannot take fails here."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _summarize(line: str, to_stderr: bool = False) -> None:
    """Print a subcommand's one summary line: on standard output unless
    ``to_stderr``, and on standard error when standard output's reader has
    gone, pointing standard output at ``os.devnull`` so the flush at exit
    stays quiet (the recipe in the ``signal`` module's documentation)."""
    if not to_stderr:
        try:
            print(line, flush=True)
            return
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(line, file=sys.stderr)


def _floorplan(args: argparse.Namespace) -> Floorplan:
    """Parse, check the options, run the pipeline and write its outputs;
    failures raise a ``_FAILURES`` type."""
    fabric = parse_fabric(_read_text(args.fabric))
    design = parse_design(_read_text(args.design))
    design = dataclasses.replace(
        design,
        alpha=design.alpha if args.alpha is None else args.alpha,
        beta=design.beta if args.beta is None else args.beta,
    )
    if not args.time_budget >= 0:
        raise argparse.ArgumentTypeError("time budget must be a non-negative number of seconds")
    if args.no_ar:
        ar_bounds = None
    elif 0 < args.ar_min <= args.ar_max:
        ar_bounds = (args.ar_min, args.ar_max)
    else:
        raise argparse.ArgumentTypeError("aspect-ratio bounds must satisfy 0 < min <= max")

    # The solver log opens before any real work, so an unwritable path
    # fails fast.
    log = open(args.solver_log, "w") if args.solver_log else contextlib.nullcontext()
    with log as log_handle:
        plan = run_floorplan(fabric, design, ar_bounds, args.time_budget, log_handle)
    _write(write_floorplan(plan, design, fabric, design.alpha, design.beta, ar_bounds), args.out)
    if args.render != "none":
        from .render import render_ascii, render_svg

        draw = render_svg if args.render == "svg" else render_ascii
        # appended, not substituted: the render must never land on the
        # document's own path
        ext = ".svg" if args.render == "svg" else ".ascii"
        _write(draw(fabric, plan.rects), args.out and args.out + ext)
    return plan


def _cmd_floorplan(args: argparse.Namespace) -> int:
    started = time.monotonic()
    status, code, wastage, wirelength = "OK", EXIT_OK, 0, 0
    try:
        plan = _floorplan(args)
        wastage, wirelength = plan.total_wastage_frames, round(plan.total_wirelength)
    except tuple(_FAILURES) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        status, code = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
    ms = round((time.monotonic() - started) * 1000)
    # keep stdout a clean document when it is the document sink
    _summarize(
        f"{status} wastage={wastage} wirelength={wirelength} runtime_ms={ms}",
        to_stderr=code == EXIT_OK and not args.out,
    )
    return code


def _cmd_generate(args: argparse.Namespace) -> int:
    status, code = "OK", EXIT_OK
    try:
        fabric = parse_fabric(_read_text(args.fabric))
        design = generate_random_design(args.n, fabric, tuple(args.occupancy), args.seed)
        _write(write_design(design), args.out)
    except GenerationError as exc:
        print(exc, file=sys.stderr)
        status, code = "INFEASIBLE_DESIGN", EXIT_INFEASIBLE_MODULE
    except (FabricError, OSError, UnicodeError, MemoryError) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        status, code = "PARSE_ERROR", EXIT_PARSE
    _summarize(
        f"{status} modules={args.n if code == EXIT_OK else 0}",
        to_stderr=code == EXIT_OK and not args.out,
    )
    return code


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import validate_floorplan

    try:
        document = _read_text(args.plan)
        fabric_text = _read_text(args.fabric)
        problems = validate_floorplan(document, fabric_text)
    except (OSError, ValueError, MemoryError) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        _summarize("PARSE_ERROR violations=0")
        return EXIT_PARSE
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        _summarize(f"INVALID violations={len(problems)}")
        return EXIT_INFEASIBLE_PLAN
    _summarize("VALID violations=0")
    return EXIT_OK


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a usage error, unknown arguments included,
    ends with the subcommand's summary line and exit 1 like other bad input."""

    def __init__(self, *args, summary: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.summary = summary

    def parse_known_args(self, args=None, namespace=None):
        # left over, they would reach the top-level parser, whose error exits 2
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        _summarize(self.summary)
        self.exit(EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilefp",
        description="Floorplanner for reconfigurable regions on tiled FPGA fabrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    fp = sub.add_parser(
        "floorplan", help="place a design onto a fabric",
        summary="PARSE_ERROR wastage=0 wirelength=0 runtime_ms=0",
    )
    fp.add_argument("--fabric", required=True, help="fabric description file")
    fp.add_argument("--design", required=True, help="design description file")
    fp.add_argument(
        "--alpha", type=float, default=None,
        help="wastage weight; overrides the design file",
    )
    fp.add_argument(
        "--beta", type=float, default=None,
        help="anchor-distance weight; overrides the design file",
    )
    fp.add_argument("--ar-min", type=float, default=0.2, help="lowest allowed width/height")
    fp.add_argument("--ar-max", type=float, default=0.7, help="highest allowed width/height")
    fp.add_argument("--no-ar", action="store_true", help="drop the aspect-ratio window")
    fp.add_argument(
        "--time-budget", type=float, default=TIME_BUDGET,
        help="wall-clock safety net for the placement search in seconds; "
        "node budgets decide how the search ends",
    )
    fp.add_argument("--out", default=None, help='floorplan document path (default, or "": stdout)')
    fp.add_argument(
        "--render", choices=("none", "ascii", "svg"), default="none",
        help="also draw the result (next to --out, or to stdout)",
    )
    fp.add_argument("--solver-log", default=None, help="JSONL log of the halving solves")
    fp.set_defaults(func=_cmd_floorplan)

    gen = sub.add_parser(
        "generate", help="write a pseudo-random design", summary="PARSE_ERROR modules=0",
    )
    gen.add_argument("-n", type=int, required=True, help="number of modules")
    gen.add_argument("--fabric", required=True, help="fabric the design is sized against")
    gen.add_argument(
        "--occupancy", type=float, nargs=3, required=True,
        metavar=("CLB", "BRAM", "DSP"),
        help="fraction of each resource the design should demand",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help='design file path (default, or "": stdout)')
    gen.set_defaults(func=_cmd_generate)

    chk = sub.add_parser(
        "validate", help="check a floorplan document against a fabric",
        summary="PARSE_ERROR violations=0",
    )
    chk.add_argument("--fabric", required=True)
    chk.add_argument("--plan", required=True, help="floorplan document to check")
    chk.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
