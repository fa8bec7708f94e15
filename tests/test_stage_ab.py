"""The in-process A/B harness ``tools/stage_ab.py`` runs end to end, and
prints no timings for trees whose outputs differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_ab.py"
SDR_CASES = ("noar-a1b0", "noar-a0b1", "ar-a1b0", "ar-default")


def run_tool(a, b):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--rounds", "1", "--workload", "sdr"],
        capture_output=True, text=True, timeout=300,
    )


def test_one_tree_on_both_sides_times_every_sdr_case():
    out = run_tool(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "documents and solver-log records identical on 4 cases"
    wins = re.compile(
        r" +B faster in [01]/1 rounds \(tessellation [01], anchors [01], scoring [01], "
        r"search [01]\), run median [+-]\d+\.\d%"
    )
    for case in SDR_CASES:
        rows = [line.split() for line in lines if line.startswith(case)]
        assert [row[1] for row in rows] == ["A", "B"]
        assert all(len(row) == 7 for row in rows)  # four stages and the run
        # the case's win counts follow its B row: the run's, then each stage's
        first = next(k for k, line in enumerate(lines) if line.startswith(case))
        assert wins.fullmatch(lines[first + 2]), lines[first + 2]
    assert sum("B faster in" in line for line in lines) == len(SDR_CASES)


def test_differing_documents_print_no_timings(tmp_path):
    copy = tmp_path / "src" / "tilefp"
    shutil.copytree(ROOT / "src" / "tilefp", copy, ignore=shutil.ignore_patterns("__pycache__"))
    place = copy / "place.py"
    text = place.read_text()
    changed = text.replace('f"total wastage ', 'f"total  wastage ')
    assert changed != text
    place.write_text(changed)
    out = run_tool(ROOT, tmp_path)
    assert out.returncode == 1
    head, tail = "outputs differ on ", ": no timings\n"
    assert out.stdout.startswith(head) and out.stdout.endswith(tail)
    named = out.stdout.removeprefix(head).removesuffix(tail).split(", ")
    assert sorted(named) == sorted(SDR_CASES)
