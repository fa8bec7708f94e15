"""Command-line front end: floorplan runs, design generation, checking.

Exit codes for the ``floorplan`` subcommand: 0 success, 1 unreadable,
undecodable (not UTF-8) or malformed input, an out-of-range option or an
unwritable output, 2 a module that fits nowhere on the device, 3 no
non-overlapping floorplan, 4 time budget exhausted. Every ``floorplan``
invocation ends with one summary line no matter how it exits; it goes to
standard output unless a successful run writes its document there.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time
from pathlib import Path

from .bipartition import InfeasibleModelError, compute_anchors
from .design import (
    DesignError,
    GenerationError,
    generate_random_design,
    parse_design,
    write_design,
)
from .fabric import FabricError, parse_fabric
from .place import (
    Floorplan,
    PlacementInfeasibleError,
    PlacementTimeoutError,
    floorplan_wastage,
    floorplan_wirelength,
    normalize_candidates,
    order_modules,
    trial_and_error_place,
    write_floorplan,
)
from .render import render_ascii, render_svg
from .tessellation import InfeasibleModuleError, generate_placements
from .validate import validate_floorplan

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
    InfeasibleModuleError: ("INFEASIBLE_MODULE", EXIT_INFEASIBLE_MODULE),
    InfeasibleModelError: ("INFEASIBLE_FLOORPLAN", EXIT_INFEASIBLE_PLAN),
    PlacementInfeasibleError: ("INFEASIBLE_FLOORPLAN", EXIT_INFEASIBLE_PLAN),
    PlacementTimeoutError: ("TIMEOUT", EXIT_TIMEOUT),
}


def _floorplan(args: argparse.Namespace) -> Floorplan:
    """Run the pipeline and write its outputs; failures raise a ``_FAILURES`` type."""
    fabric = parse_fabric(Path(args.fabric).read_text(encoding="utf-8"))
    design = parse_design(Path(args.design).read_text(encoding="utf-8"))
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
        candidates = generate_placements(fabric, design, ar_bounds)
        anchors = compute_anchors(fabric, design, candidates, log=log_handle)

    scored = {
        m: normalize_candidates(lst, anchors[m], design.alpha, design.beta)
        for m, lst in candidates.items()
    }
    order = order_modules(design, fabric)
    rects, backtracks = trial_and_error_place(fabric, order, scored, args.time_budget)
    plan = Floorplan(
        rects,
        floorplan_wastage(rects, design, fabric),
        floorplan_wirelength(rects, design),
        backtracks,
    )
    document = write_floorplan(plan, design, fabric, design.alpha, design.beta, ar_bounds)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
    else:
        sys.stdout.write(document)
    if args.render != "none":
        draw = render_svg if args.render == "svg" else render_ascii
        rendering = draw(fabric, rects)
        if args.out:
            # appended, not substituted: the render must never land on
            # the document's own path
            ext = ".svg" if args.render == "svg" else ".ascii"
            Path(args.out + ext).write_text(rendering, encoding="utf-8")
        else:
            sys.stdout.write(rendering)
    return plan


def _cmd_floorplan(args: argparse.Namespace) -> int:
    started = time.monotonic()
    status, code, wastage, wirelength = "OK", EXIT_OK, 0, 0
    try:
        plan = _floorplan(args)
        wastage, wirelength = plan.total_wastage_frames, round(plan.total_wirelength)
    except tuple(_FAILURES) as exc:
        print(exc, file=sys.stderr)
        status, code = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
    ms = round((time.monotonic() - started) * 1000)
    # keep stdout a clean document when it is the document sink
    stream = sys.stderr if code == EXIT_OK and args.out is None else sys.stdout
    print(f"{status} wastage={wastage} wirelength={wirelength} runtime_ms={ms}", file=stream)
    return code


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        fabric = parse_fabric(Path(args.fabric).read_text(encoding="utf-8"))
        design = generate_random_design(args.n, fabric, tuple(args.occupancy), args.seed)
        text = write_design(design)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except GenerationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE_MODULE
    except (FabricError, OSError, UnicodeError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        document = Path(args.plan).read_text(encoding="utf-8")
        fabric_text = Path(args.fabric).read_text(encoding="utf-8")
        problems = validate_floorplan(document, fabric_text)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"INVALID violations={len(problems)}")
        return EXIT_INFEASIBLE_PLAN
    print("VALID violations=0")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilefp",
        description="Floorplanner for reconfigurable regions on tiled FPGA fabrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("floorplan", help="place a design onto a fabric")
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
        "--time-budget", type=float, default=60.0,
        help="placement search budget in seconds",
    )
    fp.add_argument("--out", default=None, help="floorplan document path (default: stdout)")
    fp.add_argument(
        "--render", choices=("none", "ascii", "svg"), default="none",
        help="also draw the result (next to --out, or to stdout)",
    )
    fp.add_argument("--solver-log", default=None, help="JSONL log of the halving solves")
    fp.set_defaults(func=_cmd_floorplan)

    gen = sub.add_parser("generate", help="write a pseudo-random design")
    gen.add_argument("-n", type=int, required=True, help="number of modules")
    gen.add_argument("--fabric", required=True, help="fabric the design is sized against")
    gen.add_argument(
        "--occupancy", type=float, nargs=3, required=True,
        metavar=("CLB", "BRAM", "DSP"),
        help="fraction of each resource the design should demand",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="design file path (default: stdout)")
    gen.set_defaults(func=_cmd_generate)

    chk = sub.add_parser("validate", help="check a floorplan document against a fabric")
    chk.add_argument("--fabric", required=True)
    chk.add_argument("--plan", required=True, help="floorplan document to check")
    chk.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
