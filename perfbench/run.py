"""tilefp floorplanning benchmark.

    python3 perfbench/run.py --workload sdr --seed 0 --seconds 25 --trace 0

Run it from the repository root. One process, one thread, closed loop: each
case starts after the previous one ends. A pass runs every case of the
workload once; passes repeat for ``--seconds`` (at least two passes, or one
untraced and one traced pass).

``--trace 0`` runs each case through ``tilefp.cli.main`` and reports the
end-to-end metrics, with times scaled to a reference speed that reference.py
measures between passes (see README.md). ``--trace 1`` alternates such
passes with passes through the traced copy of the pipeline in pipeline.py
and reports the per-layer metrics; the spans go to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

Standard output ends with a JSON line that holds a record per case (exit
code, wastage, wirelength, backtracks, sha256 of the document) and then the
result line ``{"correct", "attempted", "failed", "metrics"}``. Standard
error names each metric with its value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from workloads import (
    PAPER_WASTAGE_BOUND,
    SDR_MIN_WASTAGE_CASE,
    WORKLOADS,
    Workload,
    build_workload,
    case_argv,
    generate_designs,
    tilefp_src,
)

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
# reference.py's time when the box that took the baseline was unloaded (a
# shared 2-core x86-64 container, Python 3.11). End-to-end times are scaled
# to that speed; see "Reference speed" in README.md.
REFERENCE_SECONDS = 0.08

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "fraction",
    "wastage_frames": "frames",
    "wirelength": "units",
}
PER_LAYER_UNITS = {
    "fabric.parse_s": "s",
    "design.parse_s": "s",
    "design.generate_s": "s",
    "tessellation.busy_s": "s",
    "tessellation.candidates": "count",
    "tessellation.candidates_max": "count",
    "bipartition.busy_s": "s",
    "bipartition.solve_s": "s",
    "bipartition.solves": "count",
    "bipartition.bnb_solves": "count",
    "bipartition.max_variables": "count",
    "place.score_s": "s",
    "place.search_s": "s",
    "place.backtracks": "count",
    "place.timeouts": "count",
    "place.write_s": "s",
    "place.wastage_frames": "frames",
    "validate.busy_s": "s",
    "trace.overhead_s": "s",
}
# span name -> per-layer time metric, summed over one traced pass
SPAN_TIMES = {
    "fabric.parse": "fabric.parse_s",
    "design.parse": "design.parse_s",
    "tessellation": "tessellation.busy_s",
    "bipartition": "bipartition.busy_s",
    "place.score": "place.score_s",
    "place.search": "place.search_s",
    "place.write": "place.write_s",
    "validate": "validate.busy_s",
}
# span count -> (per-layer metric, how cases combine within a pass)
SPAN_COUNTS = {
    "candidates": ("tessellation.candidates", sum),
    "candidates_max": ("tessellation.candidates_max", max),
    "solve_s": ("bipartition.solve_s", sum),
    "solves": ("bipartition.solves", sum),
    "bnb_solves": ("bipartition.bnb_solves", sum),
    "max_variables": ("bipartition.max_variables", max),
    "backtracks": ("place.backtracks", sum),
    "timeouts": ("place.timeouts", sum),
    "wastage": ("place.wastage_frames", sum),
}


class Run:
    """Everything one benchmark run observed, pass by pass."""

    def __init__(self, workload: Workload, fixtures: Path, work: Path) -> None:
        self.workload = workload
        self.fixtures = fixtures
        self.work = work
        self.out = work / "plan.txt"
        self.fabric_text = {
            c.fabric: (fixtures / c.fabric).read_text() for c in workload.cases
        }
        self.seconds: dict[str, list[float]] = defaultdict(list)  # untraced
        self.passes: list[float] = []  # untraced pass totals
        self.waits: list[float] = []  # of which wall-clock budgets run out
        self.outcomes: dict[str, list[tuple[int, str | None]]] = defaultdict(list)
        self.documents: dict[str, str] = {}
        self.invalid_runs = 0
        self.design_files: set[tuple[str, ...]] = set()
        self.reference: list[float] = []  # reference_seconds() timings
        self.problems: list[str] = []

    def note_designs(self) -> None:
        """Remember the digests of the design files set-up just wrote."""
        self.design_files.add(tuple(
            hashlib.sha256((self.work / d.file).read_bytes()).hexdigest()
            for d in self.workload.designs
        ))

    def argv(self, case) -> list[str]:
        return case_argv(case, self.fixtures, self.work, self.out)

    def record(self, case, code: int, validate) -> str | None:
        """Note a case's outcome; check and keep its document if it solved."""
        if code != 0:
            self.outcomes[case.id].append((code, None))
            return None
        document = self.out.read_text()
        problems = validate(document, self.fabric_text[case.fabric])
        self.problems += [f"{case.id}: {p}" for p in problems]
        self.invalid_runs += bool(problems)
        self.outcomes[case.id].append((code, hashlib.sha256(document.encode()).hexdigest()))
        self.documents.setdefault(case.id, document)
        return document

    def untraced_pass(self) -> None:
        from tilefp.cli import EXIT_TIMEOUT, main
        from tilefp.validate import validate_floorplan

        total = waited = 0.0
        for case in self.workload.cases:
            argv = self.argv(case)
            self.out.unlink(missing_ok=True)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                started = time.perf_counter()
                code = main(argv)
                took = time.perf_counter() - started
            self.seconds[case.id].append(took)
            total += took
            self.record(case, code, validate_floorplan)
            if code == EXIT_TIMEOUT:
                waited += case.time_budget
        self.passes.append(total)
        self.waits.append(waited)

    def traced_pass(self, tracer) -> tuple[float, list[dict]]:
        from pipeline import traced_floorplan
        from tilefp.validate import parse_floorplan, validate_floorplan

        first = len(tracer.spans)
        total = 0.0
        with tracer.span("pass"):
            for case in self.workload.cases:
                argv = self.argv(case)
                self.out.unlink(missing_ok=True)
                with tracer.span("case", case.id) as span:
                    code = traced_floorplan(argv, tracer)
                total += span["end"] - span["start"]
                span["counts"]["exit"] = code

                def validate(document, fabric_text, case_id=case.id):
                    with tracer.span("validate", case_id):
                        return validate_floorplan(document, fabric_text)

                document = self.record(case, code, validate)
                if document is not None:
                    span["counts"]["wastage"] = parse_floorplan(document).total_wastage
        return total, tracer.spans[first:]

    def attempted(self) -> int:
        return sum(len(v) for v in self.outcomes.values())

    def failed(self) -> int:
        exits = sum(code != 0 for v in self.outcomes.values() for code, _ in v)
        return exits + self.invalid_runs

    def check(self) -> None:
        """Set-up determinism, outcome stability and the paper's wastage bound."""
        from tilefp.validate import parse_floorplan

        if len(self.design_files) != 1:
            self.problems.append("set-up wrote different design files on repeats")
        for case_id, outcomes in self.outcomes.items():
            if len(set(outcomes)) > 1:
                self.problems.append(f"{case_id}: outcome differs between passes: {sorted(set(outcomes), key=str)}")
        if self.workload.name == "sdr":
            document = self.documents.get(SDR_MIN_WASTAGE_CASE)
            if document is None:
                self.problems.append(f"{SDR_MIN_WASTAGE_CASE}: no document")
            elif parse_floorplan(document).total_wastage > PAPER_WASTAGE_BOUND:
                self.problems.append(
                    f"{SDR_MIN_WASTAGE_CASE}: wastage above the paper's {PAPER_WASTAGE_BOUND} frames"
                )

    def case_records(self) -> list[dict]:
        from tilefp.validate import parse_floorplan

        records = []
        for case in self.workload.cases:
            code, digest = self.outcomes[case.id][0]
            record = {"case": case.id, "exit": code, "sha256": digest}
            document = self.documents.get(case.id)
            if document is not None:
                doc = parse_floorplan(document)
                record.update(
                    wastage=doc.total_wastage,
                    wirelength=doc.total_wirelength,
                    backtracks=doc.backtracks,
                )
            if self.seconds[case.id]:
                record["seconds_median"] = statistics.median(self.seconds[case.id])
            records.append(record)
        return records


def reference_seconds(after: float = 0.0) -> float:
    """How fast the box is now, from reference.py in a fresh process.

    The probe runs about a tenth as long as the ``after`` seconds of work
    just measured, so that a long pass is matched by a long sample.
    """
    loops = max(3, round(after * 0.1 / REFERENCE_SECONDS))
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py")), str(loops)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(probe.stdout)


def at_reference_speed(
    times: list[float], references: list[float], waits: list[float] | None = None
) -> list[float]:
    """Scale ``times[i]`` by the reference timings taken before and after it.

    ``waits[i]`` is the part of ``times[i]`` spent running out a wall-clock
    budget; it takes as long at any speed, so it is not scaled.
    """
    waits = waits or [0.0] * len(times)
    return [
        (t - w) * 2 * REFERENCE_SECONDS / (references[i] + references[i + 1]) + w
        for i, (t, w) in enumerate(zip(times, waits))
    ]


def repeat_for(seconds: float, min_passes: int, one_pass) -> None:
    """Run passes until the next one would end after ``seconds``."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        started = time.perf_counter()
        one_pass()
        done += 1
        took = time.perf_counter() - started
        if done >= min_passes and time.perf_counter() + took > deadline:
            return


def untraced(run: Run, root: Path, seconds: float) -> dict[str, float]:
    """End-to-end metrics: set-up probes, then passes through ``cli.main``.

    Times are scaled to the reference speed by reference timings taken
    between the probes and between the passes.
    """
    script = Path(__file__).with_name("prepare.py")
    setups, setup_refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(script), "--workload", run.workload.name,
             "--seed", str(run.workload.seed), "--out", str(run.work)],
            cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        timing = json.loads(probe.stdout.splitlines()[-1])
        setups.append(timing["import_s"] + timing["generate_s"])
        setup_refs.append(reference_seconds())
        run.note_designs()

    pass_refs = setup_refs[-1:]

    def one_pass() -> None:
        run.untraced_pass()
        pass_refs.append(reference_seconds(after=run.passes[-1]))

    repeat_for(seconds, 2, one_pass)
    run.check()
    run.reference = setup_refs + pass_refs[1:]

    from tilefp.validate import parse_floorplan

    quality = [
        parse_floorplan(run.documents[c.id])
        for c in run.workload.cases
        if c.quality and c.id in run.documents
    ]
    return {
        "wall_s": statistics.median(at_reference_speed(run.passes, pass_refs, run.waits)),
        "setup_s": statistics.median(at_reference_speed(setups, setup_refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": (run.attempted() - run.failed()) / run.attempted(),
        "wastage_frames": sum(d.total_wastage for d in quality),
        "wirelength": sum(d.total_wirelength for d in quality),
    }


def traced(run: Run, root: Path, seconds: float) -> dict[str, float]:
    """Per-layer metrics: untraced and traced passes taken in turn."""
    from pipeline import Tracer

    tracer = Tracer()
    generate = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("design.generate") as span:
            generate_designs(run.workload, run.fixtures, run.work)
        generate.append(span["end"] - span["start"])
        run.note_designs()

    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def pair() -> None:
        run.untraced_pass()
        wall, spans = run.traced_pass(tracer)
        traced_walls.append(wall)
        layers.append(layer_metrics(spans))

    repeat_for(seconds, 1, pair)
    run.check()
    trace_path = root / ".perfbench" / f"trace-{run.workload.name}-seed{run.workload.seed}.jsonl"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(root)}", file=sys.stderr)

    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["design.generate_s"] = statistics.median(generate)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(run.passes)
    return metrics


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    metrics = {name: 0.0 for name in SPAN_TIMES.values()}
    gathered: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span["name"] in SPAN_TIMES:
            metrics[SPAN_TIMES[span["name"]]] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            if key in SPAN_COUNTS:
                gathered[key].append(value)
    for key, (name, combine) in SPAN_COUNTS.items():
        metrics[name] = combine(gathered[key]) if gathered[key] else 0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tilefp floorplanning benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed: sets the case order")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    fixtures = tilefp_src(root) / "tilefp" / "fixtures"
    workload = build_workload(args.workload, args.seed, fixtures)
    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".perfbench"))
    try:
        run = Run(workload, fixtures, work)
        measure = traced if args.trace else untraced
        values = measure(run, root, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for problem in run.problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:28} {values[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "pass_s": statistics.median(run.passes),
        "reference_s": statistics.median(run.reference) if run.reference else None,
        "cases": run.case_records(),
    }))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
