"""The candidate-list identity check of ``tools/stage_ab.py`` finds one
tree's lists identical to themselves over every workload's corpus and a few
random fabrics."""

import importlib

from test_stage_ab import TOOL, ROOT


def test_one_tree_on_both_sides_has_identical_lists(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    tool = importlib.import_module("stage_ab")
    workloads = tool.load_module("stage_ab_workloads", ROOT / "perfbench" / "workloads.py")
    sides = tool.load_tree(ROOT, "same_a"), tool.load_tree(ROOT, "same_b")
    assert sides[0].tessellation is not sides[1].tessellation
    corpus = tool.corpus_cases(workloads, ["sdr", "dense", "scaling"], sides[0])
    randoms = tool.random_cases(5)
    # the corpus requirements, and four per random fabric
    assert len(corpus) > 20 and len(randoms) == 20
    assert tool.list_difference(sides, corpus + randoms) is None
