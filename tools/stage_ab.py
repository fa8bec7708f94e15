"""In-process A/B of two tilefp source trees: identity checks, then stage timings.

    python3 tools/stage_ab.py A B [--rounds N] [--workload sdr scaling dense] [--fabrics N]

A and B are repository roots, each holding ``src/tilefp``, imported into
one process as the packages ``tilefp_a`` and ``tilefp_b``. Nothing is
timed unless both checks below pass; the first that fails names what
differs and exits 1.

1. Candidate lists. Each tree's ``tessellation._generate_module_placements``
   runs on every case under no aspect-ratio window and under (0.2, 0.7),
   (0.5, 2) and (0.9, 1.1). Both lists must have equal rects, ``wastage``,
   ``groups``, ``ties``, ``max_waste`` and ``sums``, or both calls must
   raise the same error text. The cases are the distinct requirements of
   each chosen workload's corpus, whose designs tree A parses or generates
   (sdr: the SDR design; dense: the dense designs of
   ``perfbench/workloads.py`` with design seeds 0 to 11; scaling: every
   ``scaling.cfg`` size with design seed n), and which holds every
   requirement and window of the benchmark's cases; then ``--fabrics``
   random fabrics (default 400, fixed seed) of up to 6 x 24 tiles with 0
   to 3 reserved rects, each with one requirement per kind mix: CLB alone,
   BRAM and CLB, DSP and CLB, and all three.
2. Documents. Every benchmark case of the chosen workloads runs once per
   side through ``place.run_floorplan``, its ``floorplan`` arguments
   parsed by tree A's command-line parser, with the fixtures of this
   checkout and the designs tree A generates. Both sides must write
   byte-identical documents (or raise the same error) and ``--solver-log``
   records, ``solve_ms`` aside.

Then each round runs every case on both sides with the cyclic garbage
collector off, A first in even rounds and B first in odd ones. Per case
and side it prints the median milliseconds of four stages (tessellation:
``generate_placements``; anchors: ``compute_anchors``; scoring: ``_rank``
and ``order_modules``; search: ``_place``) and of the whole run, the
documents run's halving-search nodes and its calls of
``tessellation._expand_horizontal`` (walks), and in how many rounds B was
faster than A, over the whole run and in each stage. Both trees must
define those ``place`` names, which are wrapped in timers; the nodes are
counted by wrapping ``bipartition._solve_branch_and_bound``, whatever its
parameters. The walks are counted in the documents run alone, so no timed
round calls through a wrapper of ``_expand_horizontal``.

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
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "tilefp" / "fixtures"
STAGES = {
    "tessellation": ("generate_placements",),
    "anchors": ("compute_anchors",),
    "scoring": ("_rank", "order_modules"),
    "search": ("_place",),
}
WINDOWS = (None, (0.2, 0.7), (0.5, 2.0), (0.9, 1.1))
DENSE_SEEDS = range(12)


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

    def walked_run(self, inputs: tuple) -> tuple[str, list[dict], int]:
        """One untimed run's document (or error) and solver-log records, as
        ``run`` gives them, and how many times it called
        ``tessellation._expand_horizontal``."""
        tessellation = self.tessellation
        expand = tessellation._expand_horizontal
        walks = 0

        def counted(*args, **kwargs):
            nonlocal walks
            walks += 1
            return expand(*args, **kwargs)

        tessellation._expand_horizontal = counted
        try:
            _, document, records = self.run(inputs)
        finally:
            tessellation._expand_horizontal = expand
        return document, records, walks

    def candidate_list(self, fabric, req: tuple[int, int, int], ar_bounds) -> dict:
        """One requirement's list: its rects, wastages and summaries, or
        its error text."""
        module = self.design.ModuleSpec("m", self.fabric.ResourceVector(*req))
        try:
            cands = self.tessellation._generate_module_placements(fabric, module, ar_bounds)
        except Exception as exc:  # an infeasible module is compared by its error
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "rects": list(cands), "wastage": cands.wastage, "groups": cands.groups,
            "ties": list(cands.ties), "max_waste": cands.max_waste, "sums": cands.sums,
        }


def load_tree(root: Path, label: str) -> Tree:
    package_dir = root.resolve() / "src" / "tilefp"
    if not (package_dir / "place.py").is_file():
        raise SystemExit(f"stage_ab: no src/tilefp under {root}")
    package = f"tilefp_{label.lower()}"
    load_module(package, package_dir / "__init__.py", package_dir)
    return Tree(label, package)


def corpus_cases(workloads: ModuleType, names: list[str], a: Tree) -> list[tuple]:
    """(name, fabric text, requirement) per distinct requirement of each
    chosen workload's corpus designs, parsed or generated by tree ``a``."""
    cases = []
    generate = a.design.generate_random_design
    for name in names:
        text = (FIXTURES / (workloads.K410T if name == "scaling" else workloads.FX70T)).read_text()
        fabric = a.fabric.parse_fabric(text)
        if name == "sdr":
            designs = {"sdr": a.design.parse_design((FIXTURES / workloads.SDR).read_text())}
        elif name == "dense":
            n, occupancy = workloads.DENSE_N, workloads.DENSE_OCCUPANCY
            designs = {f"dense seed {s}": generate(n, fabric, occupancy, s) for s in DENSE_SEEDS}
        else:
            designs = {
                f"scaling n = {n}": generate(n, fabric, occupancy, n)
                for n, occupancy in workloads._scaling_config(FIXTURES).items()
            }
        cases += [
            (f"{label}, req {req}", text, req)
            for label, design in designs.items()
            for req in dict.fromkeys(tuple(m.req) for m in design.modules)
        ]
    return cases


def random_cases(count: int) -> list[tuple]:
    """(name, fabric text, requirement) for ``count`` random fabrics, four
    requirements each."""
    rng = random.Random(0)
    cases = []
    for i in range(count):
        rows = rng.randint(1, 6)
        kinds = "".join(rng.choice("CCCBD") for _ in range(rng.randint(1, 24)))
        lines = [f"rows {rows}", f"columns {kinds}"]
        for _ in range(rng.randint(0, 3)):
            r0, r1 = sorted(rng.randrange(rows) for _ in range(2))
            c0, c1 = sorted(rng.randrange(len(kinds)) for _ in range(2))
            lines.append(f"reserved {r0} {c0} {r1} {min(c1, c0 + 2)}")
        name, text = f"random fabric {i} ({'; '.join(lines)})", "\n".join(lines)
        bram, dsp = (rng.randint(1, kinds.count(kind) + 2) for kind in "BD")
        for req in (
            (rng.randint(1, 3 * len(kinds)), 0, 0),
            (rng.randint(0, 3 * len(kinds)), bram, 0),
            (rng.randint(0, 3 * len(kinds)), 0, dsp),
            (rng.randint(0, 3 * len(kinds)), bram, dsp),
        ):
            cases.append((f"{name}, req {req}", text, req))
    return cases


def list_difference(sides: tuple[Tree, Tree], cases: list[tuple]) -> str | None:
    """The first case and window whose lists differ, and the fields that
    differ, or None."""
    fabrics: dict[str, list] = {}  # fabric text -> each side's parsed fabric
    for name, text, req in cases:
        if text not in fabrics:
            fabrics[text] = [tree.fabric.parse_fabric(text) for tree in sides]
        for ar_bounds in WINDOWS:
            got_a, got_b = (
                tree.candidate_list(fabric, req, ar_bounds)
                for tree, fabric in zip(sides, fabrics[text])
            )
            if got_a != got_b:
                keys = dict.fromkeys([*got_a, *got_b])
                fields = [key for key in keys if got_a.get(key) != got_b.get(key)]
                return f"lists differ on {name}, window {ar_bounds}: {', '.join(fields)}"
    return None


def case_inputs(workloads: ModuleType, names: list[str], a: Tree, work: Path) -> dict:
    """Per case id, its parsed ``floorplan`` arguments and aspect-ratio
    window; the generated designs are written into ``work``."""
    cli = importlib.import_module(f"{a.package}.cli")
    cases = {}
    for name in names:
        workload = workloads.build_workload(name, 0, FIXTURES)
        for spec in workload.designs:
            fabric = a.fabric.parse_fabric((FIXTURES / spec.fabric).read_text())
            design = a.design.generate_random_design(spec.n, fabric, spec.occupancy, spec.seed)
            (work / spec.file).write_text(a.design.write_design(design))
        for case in workload.cases:
            args = cli.build_parser().parse_args(
                workloads.case_argv(case, FIXTURES, work, work / "out.fp")
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
    parser.add_argument("--fabrics", type=int, default=400, help="random fabrics")
    opts = parser.parse_args(argv)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    if opts.fabrics < 0:
        parser.error("--fabrics must not be negative")

    workloads = load_module("stage_ab_workloads", ROOT / "perfbench" / "workloads.py")
    sides = load_tree(opts.a, "A"), load_tree(opts.b, "B")
    corpus = corpus_cases(workloads, opts.workload, sides[0])
    randoms = random_cases(opts.fabrics)
    difference = list_difference(sides, corpus + randoms)
    if difference is not None:
        print(difference)
        return 1
    print(
        f"candidate lists identical on {(len(corpus) + len(randoms)) * len(WINDOWS)} cases: "
        f"{len(corpus)} corpus and {len(randoms)} random requirements, "
        f"each under {len(WINDOWS)} windows"
    )

    with tempfile.TemporaryDirectory() as work:
        settings = case_inputs(workloads, opts.workload, sides[0], Path(work))
        inputs = {
            case_id: [parse_inputs(tree, args, ar) for tree in sides]
            for case_id, (args, ar) in settings.items()
        }
    differ = []
    counts = {}  # per case: each side's halving-search nodes and walks
    for case_id, pair in inputs.items():
        runs = [tree.walked_run(i) for tree, i in zip(sides, pair)]
        counts[case_id] = [(tree.nodes, walks) for tree, (_, _, walks) in zip(sides, runs)]
        if runs[0][:2] != runs[1][:2]:
            differ.append(case_id)
    if differ:
        print(f"outputs differ on {', '.join(differ)}: no timings")
        return 1
    print(f"documents and solver-log records identical on {len(inputs)} cases")

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
    print(
        f"{'case':<22}{'side':<6}" + "".join(f"{c:>14}" for c in [*columns, "nodes", "walks"])
    )
    for case_id, (taken_a, taken_b) in samples.items():
        for label, taken, (spent, walks) in zip("AB", (taken_a, taken_b), counts[case_id]):
            cells = "".join(f"{statistics.median(taken[c]) * 1000:>14.1f}" for c in columns)
            print(f"{case_id:<22}{label:<6}{cells}{spent:>14}{walks:>14}")
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
