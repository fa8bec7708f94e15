"""The candidate-list identity check ``tools/lists_ab.py`` runs end to end,
and names the first case whose lists differ."""

import subprocess
import sys
from pathlib import Path

from test_stage_ab import changed_copy

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "lists_ab.py"


def run_tool(a, b):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--fabrics", "5"],
        capture_output=True, text=True, timeout=300,
    )


def test_one_tree_on_both_sides_has_identical_lists():
    out = run_tool(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    head, tail = "candidate lists identical on ", " requirements, each under 4 windows\n"
    assert out.stdout.startswith(head) and out.stdout.endswith(tail)
    cases, requirements = out.stdout.removeprefix(head).removesuffix(tail).split(" cases: ")
    # the corpus requirements, and four per random fabric
    assert int(requirements) > 20 and int(cases) == 4 * int(requirements)


def test_listed_misfits_name_the_first_windowed_case(tmp_path):
    # A walk that keeps its misfits lists them: the SDR design's first
    # requirement differs once the first window applies.
    changed = changed_copy(
        tmp_path, "tessellation.py",
        "if ar_bounds is not None and not lo <= (c1 - c0 + 1) / height <= hi:",
        "if False:",
    )
    out = run_tool(ROOT, changed)
    assert out.returncode == 1
    assert out.stdout.startswith("lists differ on sdr, req (")
    assert out.stdout.endswith(
        "window (0.2, 0.7): rects, wastage, groups, ties, max_waste, sums\n"
    )
