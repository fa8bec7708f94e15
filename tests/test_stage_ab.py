"""The in-process A/B harness ``tools/stage_ab.py`` runs end to end, and
prints no timings for trees whose outputs or candidate lists differ."""

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
    assert lines[0] == (
        "documents, solver-log records and candidate lists identical on 4 cases"
    )
    wins = re.compile(
        r" +B faster in [01]/1 rounds \(tessellation [01], anchors [01], scoring [01], "
        r"search [01]\), run median [+-]\d+\.\d%"
    )
    for case in SDR_CASES:
        rows = [line.split() for line in lines if line.startswith(case)]
        assert [row[1] for row in rows] == ["A", "B"]
        assert all(len(row) == 8 for row in rows)  # four stages, the run and the nodes
        # one tree spends the same halving-search nodes on both sides
        assert rows[0][-1].isdigit() and rows[0][-1] == rows[1][-1]
        # the case's win counts follow its B row: the run's, then each stage's
        first = next(k for k, line in enumerate(lines) if line.startswith(case))
        assert wins.fullmatch(lines[first + 2]), lines[first + 2]
    assert sum("B faster in" in line for line in lines) == len(SDR_CASES)


def changed_copy(tmp_path, name, old, new):
    """A copy of ``src/tilefp`` under ``tmp_path`` with ``old`` replaced by
    ``new`` in module ``name``."""
    copy = tmp_path / "src" / "tilefp"
    shutil.copytree(ROOT / "src" / "tilefp", copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / name
    text = module.read_text()
    changed = text.replace(old, new)
    assert changed != text
    module.write_text(changed)
    return tmp_path


def assert_no_timings_for_any_sdr_case(out):
    assert out.returncode == 1
    head, tail = "outputs differ on ", ": no timings\n"
    assert out.stdout.startswith(head) and out.stdout.endswith(tail)
    named = out.stdout.removeprefix(head).removesuffix(tail).split(", ")
    assert sorted(named) == sorted(SDR_CASES)


def test_differing_documents_print_no_timings(tmp_path):
    changed = changed_copy(tmp_path, "place.py", 'f"total wastage ', 'f"total  wastage ')
    assert_no_timings_for_any_sdr_case(run_tool(ROOT, changed))


def test_differing_candidate_lists_print_no_timings(tmp_path):
    # Reversed vertical groups leave every corpus document and solver-log
    # record as it is, so only the list check names the cases.
    changed = changed_copy(
        tmp_path, "tessellation.py", '{"vertical": vertical,', '{"vertical": vertical[::-1],'
    )
    assert_no_timings_for_any_sdr_case(run_tool(ROOT, changed))
