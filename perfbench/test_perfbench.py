"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the repository root. The drift check keeps the traced copy of the
pipeline in pipeline.py writing the same documents as ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import build_workload, case_argv, tilefp_src

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = tilefp_src(ROOT) / "tilefp" / "fixtures"
RUN = Path(__file__).with_name("run.py")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("case", build_workload("sdr", 0, FIXTURES).cases, ids=lambda c: c.id)
def test_traced_pipeline_writes_cli_documents_on_sdr(case, tmp_path):
    from pipeline import Tracer, traced_floorplan
    from tilefp.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(case_argv(case, FIXTURES, tmp_path, tmp_path / "cli.txt")) == 0
    tracer = Tracer()
    assert traced_floorplan(case_argv(case, FIXTURES, tmp_path, tmp_path / "traced.txt"), tracer) == 0
    assert (tmp_path / "traced.txt").read_bytes() == (tmp_path / "cli.txt").read_bytes()
    names = [span["name"] for span in tracer.spans]
    assert names == [
        "fabric.parse", "design.parse", "tessellation", "bipartition",
        "place.score", "place.search", "place.write",
    ]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sdr", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    record = json.loads(lines[-2])
    assert record["seed"] == 3
    assert {c["case"] for c in record["cases"]} == {
        "noar-a1b0", "noar-a0b1", "ar-a1b0", "ar-default"
    }
    assert all(c["exit"] == 0 and len(c["sha256"]) == 64 for c in record["cases"])


def test_fails_without_the_program_sources(tmp_path):
    spec = _benchmark_json()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*spec["command"], "--workload", "sdr", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
