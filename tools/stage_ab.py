"""In-process A/B timing of two tilefp source trees, stage by stage.

    python3 tools/stage_ab.py A B --rounds N [--workload sdr scaling dense]

A and B are repository roots, each holding ``src/tilefp``. Both trees are
imported into one process under distinct package names (``tilefp_a`` and
``tilefp_b``), and every case of the chosen workloads of
``perfbench/workloads.py`` runs through each tree's
``place.run_floorplan``, with the arguments the benchmark passes to
``floorplan`` parsed by tree A's command-line parser, the fixtures of the
checkout that holds this script, and the generated designs written by
tree A.

Each case first runs once on each side. Unless both trees write
byte-identical documents (or raise the same error), identical
``--solver-log`` records, ``solve_ms`` aside, and identical candidate
lists, the script names the cases that differ, prints no timings and exits
1. The lists come from one call of each tree's
``tessellation.generate_placements`` and are compared module by module:
the rects, the ``wastage`` column and the summaries ``groups``, ``ties``,
``max_waste`` and ``sums``. Then each round runs every case on both
sides with the cyclic garbage collector off, A first in even rounds and B
first in odd ones. Per case and side it prints the median
milliseconds of four stages (tessellation: ``generate_placements``;
anchors: ``compute_anchors``; scoring: ``_rank`` and ``order_modules``;
search: ``_place``) and of the whole run, then the nodes its halving
searches spent in the first run, and in how many rounds B was faster than
A: over the whole run, and next to that in each stage. The stages are
timed by wrapping those names in each tree's ``place`` module, so both
trees must define them; the nodes are counted by wrapping each tree's
``bipartition._solve_branch_and_bound``, whatever its parameters.

Only the standard library is used, and ``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
STAGES = {
    "tessellation": ("generate_placements",),
    "anchors": ("compute_anchors",),
    "scoring": ("_rank", "order_modules"),
    "search": ("_place",),
}


def load_module(name: str, path: Path, package_dir: Path | None = None) -> ModuleType:
    """Import the file ``path`` as module ``name`` (a package when
    ``package_dir`` is given) and register it in ``sys.modules``."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    if spec is None or spec.loader is None:
        raise SystemExit(f"stage_ab: cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@dataclasses.dataclass
class Tree:
    """One imported source tree, with its ``place`` stages wrapped in timers."""

    label: str
    package: str
    times: dict[str, float] = dataclasses.field(default_factory=dict)
    nodes: int = 0

    def __post_init__(self) -> None:
        self.place = importlib.import_module(f"{self.package}.place")
        bipartition = importlib.import_module(f"{self.package}.bipartition")
        bipartition._solve_branch_and_bound = self.counted(bipartition._solve_branch_and_bound)
        self.tessellation = importlib.import_module(f"{self.package}.tessellation")
        self.fabric = importlib.import_module(f"{self.package}.fabric")
        self.design = importlib.import_module(f"{self.package}.design")
        for stage, names in STAGES.items():
            for name in names:
                if not hasattr(self.place, name):
                    raise SystemExit(f"stage_ab: tree {self.label} has no place.{name}")
                setattr(self.place, name, self.timed(stage, getattr(self.place, name)))

    def timed(self, stage: str, function):
        times = self.times

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                times[stage] = times.get(stage, 0.0) + perf_counter() - started

        return wrapper

    def counted(self, search):
        def wrapper(*args):
            bits, nodes = search(*args)
            self.nodes += nodes
            return bits, nodes

        return wrapper

    def run(self, inputs: tuple) -> tuple[float, str, list[dict]]:
        """One floorplan run: its seconds, its document (or error) and its
        solver-log records without ``solve_ms``; ``times`` holds its stages
        and ``nodes`` its halving-search nodes."""
        fabric, design, ar_bounds, time_budget = inputs
        self.times.clear()
        self.nodes = 0
        log = io.StringIO()
        started = perf_counter()
        try:
            plan = self.place.run_floorplan(fabric, design, ar_bounds, time_budget, log)
        except Exception as exc:  # a failed run is compared by its error
            seconds, document = perf_counter() - started, f"{type(exc).__name__}: {exc}"
        else:
            seconds = perf_counter() - started
            document = self.place.write_floorplan(
                plan, design, fabric, design.alpha, design.beta, ar_bounds
            )
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        for record in records:
            record.pop("solve_ms", None)
        return seconds, document, records

    def lists(self, inputs: tuple) -> dict[str, tuple] | str:
        """Per module id, its candidate list's rects, wastages and summaries,
        or the error ``generate_placements`` raised."""
        fabric, design, ar_bounds, _ = inputs
        try:
            placements = self.tessellation.generate_placements(fabric, design, ar_bounds)
        except Exception as exc:  # an infeasible module is compared by its error
            return f"{type(exc).__name__}: {exc}"
        return {
            module_id: (
                list(cands), cands.wastage, cands.groups, list(cands.ties),
                cands.max_waste, cands.sums,
            )
            for module_id, cands in placements.items()
        }


def load_tree(root: Path, label: str) -> Tree:
    package_dir = root.resolve() / "src" / "tilefp"
    if not (package_dir / "place.py").is_file():
        raise SystemExit(f"stage_ab: no src/tilefp under {root}")
    package = f"tilefp_{label.lower()}"
    load_module(package, package_dir / "__init__.py", package_dir)
    return Tree(label, package)


def case_inputs(workloads: ModuleType, names: list[str], a: Tree, work: Path) -> dict:
    """Per case id, its parsed ``floorplan`` arguments and aspect-ratio
    window; the generated designs are written into ``work``."""
    fixtures = ROOT / "src" / "tilefp" / "fixtures"
    cli = importlib.import_module(f"{a.package}.cli")
    cases = {}
    for name in names:
        workload = workloads.build_workload(name, 0, fixtures)
        for spec in workload.designs:
            fabric = a.fabric.parse_fabric((fixtures / spec.fabric).read_text())
            design = a.design.generate_random_design(spec.n, fabric, spec.occupancy, spec.seed)
            (work / spec.file).write_text(a.design.write_design(design))
        for case in workload.cases:
            args = cli.build_parser().parse_args(
                workloads.case_argv(case, fixtures, work, work / "out.fp")
            )
            ar_bounds = None if args.no_ar else (args.ar_min, args.ar_max)
            cases[case.id] = (args, ar_bounds)
    return cases


def parse_inputs(tree: Tree, args: argparse.Namespace, ar_bounds) -> tuple:
    fabric = tree.fabric.parse_fabric(Path(args.fabric).read_text())
    design = tree.design.parse_design(Path(args.design).read_text())
    design = dataclasses.replace(
        design,
        alpha=design.alpha if args.alpha is None else args.alpha,
        beta=design.beta if args.beta is None else args.beta,
    )
    return fabric, design, ar_bounds, args.time_budget


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="repository root of side A")
    parser.add_argument("b", type=Path, help="repository root of side B")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per case")
    parser.add_argument(
        "--workload", nargs="+", default=["sdr", "scaling", "dense"],
        choices=["sdr", "scaling", "dense"],
    )
    opts = parser.parse_args(argv)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")

    workloads = load_module("stage_ab_workloads", ROOT / "perfbench" / "workloads.py")
    sides = load_tree(opts.a, "A"), load_tree(opts.b, "B")
    with tempfile.TemporaryDirectory() as work:
        settings = case_inputs(workloads, opts.workload, sides[0], Path(work))
        inputs = {
            case_id: [parse_inputs(tree, args, ar) for tree in sides]
            for case_id, (args, ar) in settings.items()
        }

    differ = []
    nodes = {}
    for case_id, pair in inputs.items():
        (_, doc_a, log_a), (_, doc_b, log_b) = (tree.run(i) for tree, i in zip(sides, pair))
        nodes[case_id] = [tree.nodes for tree in sides]
        lists_a, lists_b = (tree.lists(i) for tree, i in zip(sides, pair))
        if doc_a != doc_b or log_a != log_b or lists_a != lists_b:
            differ.append(case_id)
    if differ:
        print(f"outputs differ on {', '.join(differ)}: no timings")
        return 1
    print(
        "documents, solver-log records and candidate lists identical "
        f"on {len(inputs)} cases"
    )

    # per case and side: stage -> seconds per round, with "run" for the whole run
    samples = {case_id: ({}, {}) for case_id in inputs}
    for r in range(opts.rounds):
        first = r % 2
        for case_id, pair in inputs.items():
            for k in (first, 1 - first):
                gc.collect()
                gc.disable()
                try:
                    seconds, _, _ = sides[k].run(pair[k])
                finally:
                    gc.enable()
                taken = samples[case_id][k]
                taken.setdefault("run", []).append(seconds)
                for stage in STAGES:
                    taken.setdefault(stage, []).append(sides[k].times.get(stage, 0.0))

    columns = [*STAGES, "run"]
    print(f"median ms of {opts.rounds} rounds, GC off, first side alternating")
    print(f"{'case':<22}{'side':<6}" + "".join(f"{c:>14}" for c in [*columns, "nodes"]))
    for case_id, (taken_a, taken_b) in samples.items():
        for label, taken, spent in zip("AB", (taken_a, taken_b), nodes[case_id]):
            cells = "".join(f"{statistics.median(taken[c]) * 1000:>14.1f}" for c in columns)
            print(f"{case_id:<22}{label:<6}{cells}{spent:>14}")
        wins = {c: sum(b < a for a, b in zip(taken_a[c], taken_b[c])) for c in columns}
        stages = ", ".join(f"{stage} {wins[stage]}" for stage in STAGES)
        change = statistics.median(taken_b["run"]) / statistics.median(taken_a["run"]) - 1
        print(
            f"{'':<22}B faster in {wins['run']}/{opts.rounds} rounds ({stages}), "
            f"run median {change:+.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
