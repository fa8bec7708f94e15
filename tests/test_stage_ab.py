"""The in-process A/B harness ``tools/stage_ab.py`` runs end to end, names
the first case whose candidate lists differ or every case whose outputs
differ, prints no timings for such trees, and its list corpus holds every
requirement and window of the benchmark's cases."""

import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_ab.py"
SDR_CASES = ("noar-a1b0", "noar-a0b1", "ar-a1b0", "ar-default")
# the SDR design's first requirement, where both list mutants below show
FIRST_SDR_CASE = "sdr, req (25, 0, 5)"


def run_tool(a, b, *options):
    return subprocess.run(
        [
            sys.executable, str(TOOL), str(a), str(b),
            "--rounds", "1", "--workload", "sdr", "--fabrics", "5", *options,
        ],
        capture_output=True, text=True, timeout=300,
    )


def test_one_tree_on_both_sides_times_every_sdr_case():
    out = run_tool(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # the SDR design's five distinct requirements and four per random fabric
    assert lines[:2] == [
        "candidate lists identical on 100 cases: 5 corpus and 20 random requirements, "
        "each under 4 windows",
        "documents and solver-log records identical on 4 cases",
    ]
    wins = re.compile(
        r" +B faster in [01]/1 rounds \(tessellation [01], anchors [01], scoring [01], "
        r"search [01]\), run median [+-]\d+\.\d%"
    )
    for case in SDR_CASES:
        rows = [line.split() for line in lines if line.startswith(case)]
        assert [row[1] for row in rows] == ["A", "B"]
        # four stages, the run, the nodes and the walks
        assert all(len(row) == 9 for row in rows)
        # one tree spends the same halving-search nodes and walks on both sides
        assert all(cell.isdigit() for cell in rows[0][-2:]) and rows[0][-2:] == rows[1][-2:]
        # the case's win counts follow its B row: the run's, then each stage's
        first = next(k for k, line in enumerate(lines) if line.startswith(case))
        assert wins.fullmatch(lines[first + 2]), lines[first + 2]
    assert sum("B faster in" in line for line in lines) == len(SDR_CASES)


@pytest.mark.parametrize(
    ("option", "message"),
    [
        ("--rounds=0", "--rounds must be at least 1"),
        ("--fabrics=-1", "--fabrics must not be negative"),
    ],
)
def test_out_of_range_options_are_refused(option, message):
    out = run_tool(ROOT, ROOT, option)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.endswith(f"error: {message}\n")


def changed_copy(tmp_path, name, changes):
    """A copy of ``src/tilefp`` under ``tmp_path`` with each key of
    ``changes`` replaced by its value in module ``name``."""
    copy = tmp_path / "src" / "tilefp"
    shutil.copytree(ROOT / "src" / "tilefp", copy, ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / name
    text = module.read_text()
    for old, new in changes.items():
        changed = text.replace(old, new)
        assert changed != text, old
        text = changed
    module.write_text(text)
    return tmp_path


def test_differing_documents_print_no_timings(tmp_path):
    changed = changed_copy(tmp_path, "place.py", {'f"total wastage ': 'f"total  wastage '})
    out = run_tool(ROOT, changed)
    assert out.returncode == 1
    lists, documents = out.stdout.splitlines()
    assert lists.startswith("candidate lists identical on 100 cases")
    head, tail = "outputs differ on ", ": no timings"
    assert documents.startswith(head) and documents.endswith(tail)
    named = documents.removeprefix(head).removesuffix(tail).split(", ")
    assert sorted(named) == sorted(SDR_CASES)


def test_differing_candidate_lists_print_no_timings(tmp_path):
    # Reversed vertical groups leave every corpus document and solver-log
    # record as it is, so only the list check names a case.
    changed = changed_copy(
        tmp_path, "tessellation.py", {'{"vertical": vertical,': '{"vertical": vertical[::-1],'}
    )
    out = run_tool(ROOT, changed)
    assert out.returncode == 1
    assert out.stdout == f"lists differ on {FIRST_SDR_CASE}, window None: groups\n"


def test_listed_misfits_name_the_first_windowed_case(tmp_path):
    # A walk that keeps its misfits lists them: the SDR design's first
    # requirement differs once the first window applies. Its kernels too
    # are kept whatever their width, or the misfits of the kernels that
    # cannot fit are never reached.
    changed = changed_copy(tmp_path, "tessellation.py", {
        "if ar_bounds is not None and not lo <= (c1 - c0 + 1) / height <= hi:": "if False:",
        "layers = _may_fit(fabric, layers, need, kind, ar_bounds[1])": "pass",
    })
    out = run_tool(ROOT, changed)
    assert out.returncode == 1
    assert out.stdout == (
        f"lists differ on {FIRST_SDR_CASE}, window (0.2, 0.7): "
        "rects, wastage, groups, ties, max_waste, sums\n"
    )


def test_list_corpus_holds_every_bench_requirement_and_window(tmp_path, monkeypatch):
    """Each workload's benchmark cases ask only for (fabric, requirement,
    window) lists that the tool's list check has compared, so comparing
    whole designs' lists again would add nothing."""
    monkeypatch.syspath_prepend(str(TOOL.parent))
    tool = importlib.import_module("stage_ab")
    workloads = tool.load_module("stage_ab_workloads", ROOT / "perfbench" / "workloads.py")
    tree = tool.load_tree(ROOT, "corpus")
    for name in workloads.WORKLOADS:
        corpus = {
            (text, req, window)
            for _, text, req in tool.corpus_cases(workloads, [name], tree)
            for window in tool.WINDOWS
        }
        cases = tool.case_inputs(workloads, [name], tree, tmp_path)
        assert cases
        for args, window in cases.values():
            text = Path(args.fabric).read_text()
            design = tree.design.parse_design(Path(args.design).read_text())
            for module in design.modules:
                assert (text, tuple(module.req), window) in corpus, (name, module)
