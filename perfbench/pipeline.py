"""Span recording and a traced copy of the ``floorplan`` pipeline.

``traced_floorplan`` calls the same public functions of each tilefp module
in the same order as ``cli._cmd_floorplan`` and wraps every call in a span.
The program itself is not instrumented. The benchmark's tests check that
this copy writes byte-identical documents to ``cli.main``.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from pathlib import Path

from tilefp.bipartition import EXACT_LIMIT, InfeasibleModelError, compute_anchors
from tilefp.cli import (
    EXIT_INFEASIBLE_MODULE,
    EXIT_INFEASIBLE_PLAN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    build_parser,
)
from tilefp.design import DesignError, parse_design
from tilefp.fabric import FabricError, parse_fabric
from tilefp.place import (
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
from tilefp.tessellation import InfeasibleModuleError, generate_placements


class Tracer:
    """Spans kept in memory: name, start, end, parent span and case id.

    Counts measured at a span's boundary are stored on the span itself.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, case: str | None = None):
        parent = self._open[-1] if self._open else None
        if case is None and parent is not None:
            case = self.spans[parent]["case"]
        record = {
            "id": len(self.spans), "name": name, "start": time.perf_counter(),
            "end": None, "parent": parent, "case": case, "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def traced_floorplan(argv: list[str], tracer: Tracer) -> int:
    """Run ``floorplan`` through the pipeline's stages, one span per stage.

    Returns the exit code ``cli.main`` gives for the same arguments. Only
    the outcomes the benchmark's workloads can reach are reproduced: no
    rendering, no solver-log file, and the document must go to ``--out``.
    """
    args = build_parser().parse_args(argv)
    try:
        with tracer.span("fabric.parse"):
            fabric = parse_fabric(Path(args.fabric).read_text())
        with tracer.span("design.parse"):
            design = parse_design(Path(args.design).read_text())
    except (OSError, FabricError, DesignError):
        return EXIT_PARSE

    alpha = design.alpha if args.alpha is None else args.alpha
    beta = design.beta if args.beta is None else args.beta
    ar_bounds = None if args.no_ar else (args.ar_min, args.ar_max)

    try:
        with tracer.span("tessellation") as span:
            candidates = generate_placements(fabric, design, ar_bounds)
            sizes = [len(lst) for lst in candidates.values()]
            span["counts"] = {"candidates": sum(sizes), "candidates_max": max(sizes)}
    except InfeasibleModuleError:
        return EXIT_INFEASIBLE_MODULE

    log = io.StringIO()
    try:
        with tracer.span("bipartition") as span:
            anchors = compute_anchors(fabric, design, candidates, log=log)
    except InfeasibleModelError:
        return EXIT_INFEASIBLE_PLAN
    finally:
        solves = [json.loads(line) for line in log.getvalue().splitlines()]
        span["counts"] = {
            "solves": len(solves),
            "bnb_solves": sum(s["variables"] > EXACT_LIMIT for s in solves),
            "max_variables": max((s["variables"] for s in solves), default=0),
            "solve_s": sum(s["solve_ms"] for s in solves) / 1000.0,
        }

    with tracer.span("place.score"):
        scored = {
            m: normalize_candidates(lst, anchors[m], alpha, beta)
            for m, lst in candidates.items()
        }
        order = order_modules(design, fabric)
    try:
        with tracer.span("place.search") as span:
            rects, backtracks = trial_and_error_place(fabric, order, scored, args.time_budget)
            span["counts"] = {"backtracks": backtracks}
    except PlacementInfeasibleError:
        return EXIT_INFEASIBLE_PLAN
    except PlacementTimeoutError:
        span["counts"] = {"timeouts": 1}
        return EXIT_TIMEOUT

    with tracer.span("place.write"):
        plan = Floorplan(
            rects,
            floorplan_wastage(rects, design, fabric),
            floorplan_wirelength(rects, design),
            backtracks,
        )
        document = write_floorplan(plan, design, fabric, alpha, beta, ar_bounds)
    try:
        Path(args.out).write_text(document)
    except OSError:
        return EXIT_PARSE
    return EXIT_OK
