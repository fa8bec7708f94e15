"""The benchmark's workloads: which floorplan runs make up one pass.

A workload is a list of cases. Each case is one ``tilefp floorplan`` run
from a fabric file and a design file to a written document. Designs that
are not bundled fixtures are generated with ``design.generate_random_design``
during set-up; ``DesignSpec`` says how.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sdr", "scaling", "dense")

FX70T = "fx70t.fabric"
K410T = "xc7k410t.fabric"
SDR = "sdr.design"

# Scaling sizes kept from scaling.cfg, each generated with design seed n as
# in the acceptance tests. n=50 is the largest design and has most of the
# branch-and-bound solves; the smaller sizes would double a pass.
SCALING_SIZES = (50,)

# The dense stress set: fx70t, n=16, occupancy 0.8/0.5/0.5, design seeds
# 0..2. Outcomes are heavy-tailed in the design seed: of seeds 0..5, three
# do not finish within 5 s, one needs 98 backtracks, two need none.
DENSE_N = 16
DENSE_OCCUPANCY = (0.8, 0.5, 0.5)
DENSE_SEEDS = (0, 1, 2)
# Wall-clock placer budget per case. The slowest solving case needs about
# 0.5 s of search (a quarter of the budget is 1.25 s); the case that times
# out is still unfinished after 150 s (more than four times the budget).
DENSE_TIME_BUDGET = 5.0
# Cases that solve within the budget when the corpus was fixed. Only these
# enter the end-to-end quality sums, so a placer that newly solves the
# timed-out case does not read as a wastage regression.
DENSE_QUALITY_SEEDS = (1, 2)

# The case whose wastage the paper bounds at 600 frames.
SDR_MIN_WASTAGE_CASE = "noar-a1b0"
PAPER_WASTAGE_BOUND = 600


@dataclass(frozen=True)
class DesignSpec:
    """A design file that set-up generates."""

    file: str
    fabric: str
    n: int
    occupancy: tuple[float, float, float]
    seed: int


@dataclass(frozen=True)
class Case:
    """One floorplan run.

    ``design`` is a fixture name when ``generated`` is false, else the name
    of a file set-up wrote. ``quality`` says whether the document's totals
    enter the end-to-end wastage and wirelength sums. ``time_budget`` is the
    placer's wall-clock budget, when the case sets one.
    """

    id: str
    fabric: str
    design: str
    args: tuple[str, ...]
    generated: bool = False
    quality: bool = True
    time_budget: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cases: tuple[Case, ...]
    designs: tuple[DesignSpec, ...]


def tilefp_src(root: Path) -> Path:
    """Put the checkout's ``src`` first on the import path and return it.

    Exits with a message and a non-zero code when ``root`` holds no tilefp
    sources, so the benchmark never measures some other installed copy.
    """
    src = root / "src"
    if not (src / "tilefp" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no src/tilefp under {root}; run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def _scaling_config(fixtures: Path) -> dict[int, tuple[float, float, float]]:
    config = {}
    for line in (fixtures / "scaling.cfg").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            n, clb, bram, dsp = line.split()
            config[int(n)] = (float(clb), float(bram), float(dsp))
    return config


def build_workload(name: str, seed: int, fixtures: Path) -> Workload:
    """The cases of one workload, in the order the workload seed gives.

    Every workload is a fixed corpus; the seed only shuffles case order. The
    documents' totals are reported end to end, and across design seeds they
    vary far more than any regression bound (scaling n=50 wirelength ranges
    from 13,120 to 56,256 over design seeds 50 to 53).
    """
    if name == "sdr":
        variants = {
            "noar-a1b0": ("--no-ar", "--alpha", "1", "--beta", "0"),
            "noar-a0b1": ("--no-ar", "--alpha", "0", "--beta", "1"),
            "ar-a1b0": ("--alpha", "1", "--beta", "0"),
            "ar-default": (),
        }
        cases = [Case(cid, FX70T, SDR, args) for cid, args in variants.items()]
        designs: list[DesignSpec] = []
    elif name == "scaling":
        config = _scaling_config(fixtures)
        designs = [
            DesignSpec(f"scaling-n{n}.design", K410T, n, config[n], n)
            for n in SCALING_SIZES
        ]
        cases = [
            Case(d.file.removesuffix(".design"), K410T, d.file, ("--no-ar",), generated=True)
            for d in designs
        ]
    elif name == "dense":
        designs = [
            DesignSpec(f"dense-n{DENSE_N}-s{s}.design", FX70T, DENSE_N, DENSE_OCCUPANCY, s)
            for s in DENSE_SEEDS
        ]
        cases = [
            Case(
                d.file.removesuffix(".design"), FX70T, d.file, ("--no-ar",),
                generated=True, quality=d.seed in DENSE_QUALITY_SEEDS,
                time_budget=DENSE_TIME_BUDGET,
            )
            for d in designs
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(cases)
    return Workload(name, seed, tuple(cases), tuple(designs))


def generate_designs(workload: Workload, fixtures: Path, out_dir: Path) -> None:
    """Write every generated design file of the workload into ``out_dir``."""
    from tilefp.design import generate_random_design, write_design
    from tilefp.fabric import parse_fabric

    fabrics = {}
    for spec in workload.designs:
        if spec.fabric not in fabrics:
            fabrics[spec.fabric] = parse_fabric((fixtures / spec.fabric).read_text())
        design = generate_random_design(spec.n, fabrics[spec.fabric], spec.occupancy, spec.seed)
        (out_dir / spec.file).write_text(write_design(design))


def case_argv(case: Case, fixtures: Path, work: Path, out: Path) -> list[str]:
    """Command-line arguments of ``tilefp floorplan`` for one case."""
    design = work / case.design if case.generated else fixtures / case.design
    budget = () if case.time_budget is None else ("--time-budget", f"{case.time_budget:g}")
    return [
        "floorplan", "--fabric", str(fixtures / case.fabric),
        "--design", str(design), "--out", str(out), *case.args, *budget,
    ]
