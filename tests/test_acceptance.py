"""Release gate: one test per acceptance criterion.

Every test prints its measured numbers so a red run carries its evidence.
End-to-end cases go through cli.main with real fixture files; documents
are checked only through the standalone validator, which sees nothing but
the emitted text and the fabric file.
"""

import random
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from helpers import (
    bqp_enumeration_min,
    brute_force_rects,
    random_bqp_model,
    random_fabric,
    random_requirement,
)
from tilefp.bipartition import _assignment_feasible, _objective_of, _solve_bqp
from tilefp.cli import main
from tilefp.design import ModuleSpec
from tilefp.fixtures import fixture_path
from tilefp.tessellation import _generate_module_placements
from tilefp.validate import parse_floorplan, validate_floorplan

FX_FABRIC = fixture_path("fx70t.fabric")
BIG_FABRIC = fixture_path("xc7k410t.fabric")
SDR_DESIGN = fixture_path("sdr.design")
WASTAGE_REGRESSION = Path(__file__).parent / "data" / "sdr_wastage_best.txt"


class SdrRun(NamedTuple):
    code: int
    elapsed: float
    text: str
    doc: object


class ScaledRun(NamedTuple):
    code: int
    elapsed: float
    design_text: str
    plan_text: str


def _timed_main(argv):
    start = time.monotonic()
    code = main(argv)
    return code, time.monotonic() - start


@pytest.fixture(scope="module")
def sdr_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("sdr")
    variants = {
        "min_wastage": ["--no-ar", "--alpha", "1", "--beta", "0"],
        "min_wastage_again": ["--no-ar", "--alpha", "1", "--beta", "0"],
        "min_wirelength": ["--no-ar", "--alpha", "0", "--beta", "1"],
        "ar_window": ["--alpha", "1", "--beta", "0"],
    }
    runs = {}
    for name, extra in variants.items():
        out = base / f"{name}.plan"
        code, elapsed = _timed_main(
            ["floorplan", "--fabric", str(FX_FABRIC), "--design", str(SDR_DESIGN),
             "--out", str(out), *extra]
        )
        text = out.read_text() if code == 0 else ""
        doc = parse_floorplan(text) if code == 0 else None
        runs[name] = SdrRun(code, elapsed, text, doc)
    return runs


@pytest.fixture(scope="module")
def scaling_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("scaling")
    configs = []
    for line in fixture_path("scaling.cfg").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            n, clb, bram, dsp = line.split()
            configs.append((int(n), clb, bram, dsp))

    def one_run(n, clb, bram, dsp, tag):
        design = base / f"n{n}{tag}.design"
        plan = base / f"n{n}{tag}.plan"
        code, gen_elapsed = _timed_main(
            ["generate", "-n", str(n), "--fabric", str(BIG_FABRIC),
             "--occupancy", clb, bram, dsp, "--seed", str(n), "--out", str(design)]
        )
        if code != 0:
            return ScaledRun(code, gen_elapsed, "", "")
        code, fp_elapsed = _timed_main(
            ["floorplan", "--fabric", str(BIG_FABRIC), "--design", str(design),
             "--no-ar", "--out", str(plan)]
        )
        plan_text = plan.read_text() if code == 0 else ""
        return ScaledRun(code, gen_elapsed + fp_elapsed, design.read_text(), plan_text)

    return [
        (n, one_run(n, clb, bram, dsp, "a"), one_run(n, clb, bram, dsp, "b"))
        for n, clb, bram, dsp in configs
    ]


@pytest.fixture(scope="module")
def generation_suite():
    rng = random.Random(50262)
    suite = []
    for _ in range(20):
        fabric = random_fabric(rng)
        cases = []
        for k in range(10):
            while True:
                req = random_requirement(rng, fabric)
                brute = brute_force_rects(fabric, req, None)
                if brute:
                    break
            module = ModuleSpec(f"m{k}", req)
            cands = _generate_module_placements(fabric, module, None)
            cases.append((req, brute, cands))
        suite.append((fabric, cases))
    return suite


def test_criterion_01_sdr_min_wastage(sdr_runs):
    run = sdr_runs["min_wastage"]
    assert run.code == 0
    best_so_far = int(WASTAGE_REGRESSION.read_text().split()[0])
    print(f"wastage={run.doc.total_wastage} recorded_best={best_so_far} "
          f"elapsed={run.elapsed:.2f}s")
    assert run.doc.total_wastage <= 600
    assert run.doc.total_wastage <= best_so_far
    assert run.elapsed < 5.0


def test_criterion_02_sdr_aspect_ratio_window(sdr_runs):
    ar = sdr_runs["ar_window"]
    free = sdr_runs["min_wastage"]
    assert ar.code == 0
    assert validate_floorplan(ar.text, FX_FABRIC.read_text()) == []
    for rec in ar.doc.records:
        ratio = rec.rect.width / rec.rect.height
        assert 0.2 <= ratio <= 0.7, f"{rec.module_id}: ratio {ratio:.3f}"
    print(f"wastage ar_on={ar.doc.total_wastage} ar_off={free.doc.total_wastage}")
    assert ar.doc.total_wastage >= free.doc.total_wastage


def test_criterion_03_weight_monotonicity(sdr_runs):
    length_run = sdr_runs["min_wirelength"]
    wastage_run = sdr_runs["min_wastage"]
    assert length_run.code == 0
    print(f"wirelength beta-heavy={length_run.doc.total_wirelength} "
          f"alpha-heavy={wastage_run.doc.total_wirelength}")
    assert length_run.doc.total_wirelength <= wastage_run.doc.total_wirelength


def test_criterion_04_solver_matches_enumeration():
    rng = random.Random(40181)
    start = time.monotonic()
    for trial in range(200):
        model = random_bqp_model(rng, rng.randint(2, 12))
        want = bqp_enumeration_min(model)
        got = _solve_bqp(model)
        if want is None:
            assert got is None, f"trial {trial}: phantom assignment"
        else:
            bits = [got[m] for m in model.variables]
            assert _assignment_feasible(model, bits), f"trial {trial}"
            assert _objective_of(model, bits) == want[1], f"trial {trial}"
    elapsed = time.monotonic() - start
    print(f"matched=200/200 elapsed={elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_05_generator_near_brute_force(generation_suite):
    cases = deviations = 0
    for fabric, fabric_cases in generation_suite:
        for req, brute, cands in fabric_cases:
            cases += 1
            for rect, wastage in zip(cands, cands.wastage, strict=True):
                assert rect in brute, f"{req}: {rect} not admissible"
                assert wastage == brute[rect]
            floor = min(brute.values())
            reached = min(cands.wastage, default=None)
            if reached is None or reached > 1.1 * floor:
                deviations += 1
                print(f"deviation: {fabric.rows}x{fabric.cols} req={tuple(req)} "
                      f"brute_min={floor} generated_min={reached}")
    print(f"cases={cases} deviations={deviations}")
    assert cases == 200
    assert deviations <= 10


def test_criterion_06_candidate_count_bound(generation_suite):
    worst = 0.0
    for fabric, fabric_cases in generation_suite:
        bound = 4 * fabric.rows * fabric.cols**2
        mean = sum(len(cands) for _, _, cands in fabric_cases) / len(fabric_cases)
        worst = max(worst, mean / bound)
        assert mean <= bound, f"{fabric.rows}x{fabric.cols}: mean {mean:.1f} > {bound}"
    print(f"worst mean/bound ratio={worst:.4f}")


def test_criterion_07_scaling_within_budget(scaling_runs):
    fabric_text = BIG_FABRIC.read_text()
    valid = 0
    for n, first, _ in scaling_runs:
        assert first.elapsed < 120.0, f"n={n}: {first.elapsed:.1f}s"
        ok = first.code == 0 and validate_floorplan(first.plan_text, fabric_text) == []
        print(f"n={n} code={first.code} elapsed={first.elapsed:.1f}s valid={ok}")
        valid += ok
    assert valid >= 6


def test_criterion_08_every_document_validates(sdr_runs, scaling_runs):
    checked = 0
    fx_text = FX_FABRIC.read_text()
    for name, run in sdr_runs.items():
        if run.code == 0:
            assert validate_floorplan(run.text, fx_text) == [], name
            checked += 1
    big_text = BIG_FABRIC.read_text()
    for n, first, second in scaling_runs:
        for run in (first, second):
            if run.code == 0:
                assert validate_floorplan(run.plan_text, big_text) == [], f"n={n}"
                checked += 1
    print(f"documents checked={checked}")
    assert checked >= 4


def test_criterion_09_reruns_byte_identical(sdr_runs, scaling_runs):
    first = sdr_runs["min_wastage"]
    again = sdr_runs["min_wastage_again"]
    assert first.code == 0 and again.code == 0
    assert first.text == again.text
    for n, run_a, run_b in scaling_runs:
        assert run_a.design_text == run_b.design_text, f"n={n}: design drifted"
        assert run_a.plan_text == run_b.plan_text, f"n={n}: plan drifted"
