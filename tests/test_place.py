"""Scoring, ordering and backtracking-placer tests."""

import gc
import random
import weakref
from unittest import mock

import pytest

from tilefp import place
from tilefp.bipartition import compute_anchors
from tilefp.design import Connection, Design, ModuleSpec, generate_random_design
from tilefp.fabric import Rect, ResourceVector, parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.place import (
    Floorplan,
    PlacementInfeasibleError,
    PlacementTimeoutError,
    floorplan_wastage,
    floorplan_wirelength,
    normalize_candidates,
    order_modules,
    run_floorplan,
    trial_and_error_place,
    write_floorplan,
)
from tilefp.tessellation import CandidateList, generate_placements

from helpers import (
    Candidate,
    brute_force_rects,
    first_feasible_assignment,
    random_fabric,
    random_requirement,
    summarized,
)


def cand(rect, wastage):
    return Candidate(rect, ResourceVector(1, 0, 0), wastage)


def sdr_design():
    return Design(
        [
            ModuleSpec("matched_filter", ResourceVector(25, 0, 5)),
            ModuleSpec("carrier_recovery", ResourceVector(7, 0, 1)),
            ModuleSpec("demodulator", ResourceVector(5, 2, 0)),
            ModuleSpec("decoder", ResourceVector(12, 1, 0)),
            ModuleSpec("video_decoder", ResourceVector(55, 2, 5)),
        ],
        [
            Connection("matched_filter", "carrier_recovery", 64),
            Connection("carrier_recovery", "demodulator", 64),
            Connection("demodulator", "decoder", 64),
            Connection("decoder", "video_decoder", 64),
        ],
    )


# --- normalize_candidates ---------------------------------------------------

def test_normalize_extremes_map_to_unit_interval():
    cands = summarized([cand(Rect(0, 4, 0, 5), 72), cand(Rect(0, 0, 0, 1), 0)])
    scored = normalize_candidates(cands, (1.0, 0.5), 1.0, 0.0)
    assert scored == [Rect(0, 0, 0, 1), Rect(0, 4, 0, 5)]
    # the module's own rects come back, only reordered
    assert [id(r) for r in scored] == [id(cands[1]), id(cands[0])]


def test_normalize_equidistant_candidates_order_by_wastage():
    cands = summarized([cand(Rect(0, 0, 0, 0), 36), cand(Rect(0, 2, 0, 2), 0)])
    # anchor at the midpoint: both centers are 1 tile away
    scored = normalize_candidates(cands, (1.5, 0.5), 0.5, 0.5)
    assert scored == [Rect(0, 2, 0, 2), Rect(0, 0, 0, 0)]
    wastage = dict(zip(cands, cands.wastage))
    assert [wastage[r] for r in scored] == [0, 36]


def test_normalize_pure_wastage_mode():
    rng = random.Random(3)
    cands = summarized([
        cand(Rect(0, c, 0, c + rng.randrange(3)), rng.randrange(0, 300))
        for c in range(10)
    ])
    scored = normalize_candidates(cands, (0.0, 0.0), 1.0, 0.0)
    wastage = dict(zip(cands, cands.wastage))
    wastes = [wastage[r] for r in scored]
    assert wastes == sorted(wastes)
    assert sorted(map(id, scored)) == sorted(map(id, cands))


def test_normalize_zero_maxima_and_tie_break():
    cands = summarized([cand(Rect(0, 2, 0, 2), 0), cand(Rect(0, 0, 0, 0), 0)])
    scored = normalize_candidates(cands, (99.0, 99.0), 1.0, 0.0)
    # wastage norm is zero everywhere, so bottom-left position decides
    assert [r.col0 for r in scored] == [0, 2]
    with pytest.raises(ValueError):
        normalize_candidates(summarized([]), (0.0, 0.0), 1.0, 0.0)


def test_normalize_distance_mode_prefers_near_anchor():
    cands = summarized([cand(Rect(0, c, 0, c), 100 - c) for c in range(6)])
    scored = normalize_candidates(cands, (5.5, 0.5), 0.0, 1.0)
    assert [r.col0 for r in scored] == [5, 4, 3, 2, 1, 0]


def test_normalize_divides_by_the_maxima_before_blending():
    # anchor at the center of column 0: distances 4, 0 and 4 tiles
    near = cand(Rect(0, 4, 0, 4), 0)
    wasteful = cand(Rect(0, 0, 0, 0), 36)
    worst = cand(Rect(0, 0, 0, 8), 360)
    anchor = (0.5, 0.5)
    cands = summarized([near, wasteful, worst])

    def raw_sum(c):
        x, y = c.rect.center
        return c.wastage_frames + abs(x - anchor[0]) + abs(y - anchor[1])

    # summed raw, 4 < 36 puts near first; scaled by the maxima (360 frames,
    # 4 tiles), wasteful scores 0.5 * 0.1 against near's 0.5 * 1
    assert sorted([near, wasteful, worst], key=raw_sum) == [near, wasteful, worst]
    scored = normalize_candidates(cands, anchor, 0.5, 0.5)
    assert scored == [wasteful.rect, near.rect, worst.rect]


# --- order_modules -----------------------------------------------------------

def test_order_modules_sdr_by_frames():
    fab = parse_fabric("rows 2\ncolumns CBD\n")
    assert order_modules(sdr_design(), fab) == [
        "video_decoder",
        "matched_filter",
        "decoder",
        "carrier_recovery",
        "demodulator",
    ]


def test_order_modules_ties_by_id():
    fab = parse_fabric("rows 2\ncolumns CBD\n")
    design = Design(
        [
            ModuleSpec("b", ResourceVector(2, 0, 0)),
            ModuleSpec("a", ResourceVector(2, 0, 0)),
            ModuleSpec("only", ResourceVector(1, 0, 0)),
        ]
    )
    assert order_modules(design, fab) == ["a", "b", "only"]


# --- trial_and_error_place ---------------------------------------------------

def score_all(cands, anchors=None, alpha=1.0, beta=0.0):
    anchors = anchors or {}
    return {
        m: normalize_candidates(summarized(lst), anchors.get(m, (0.0, 0.0)), alpha, beta)
        for m, lst in cands.items()
    }


def test_place_disjoint_best_candidates_no_backtrack():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    cands = {
        "a": [cand(Rect(0, 0, 0, 0), 0), cand(Rect(0, 1, 0, 1), 0)],
        "b": [cand(Rect(0, 2, 0, 2), 0), cand(Rect(0, 3, 0, 3), 0)],
    }
    scored = score_all(cands)
    rects, backtracks = trial_and_error_place(fab, ["a", "b"], scored)
    assert rects == {"a": Rect(0, 0, 0, 0), "b": Rect(0, 2, 0, 2)}
    assert backtracks == 0


def test_place_collision_takes_next_candidate():
    fab = parse_fabric("rows 1\ncolumns CCC\n")
    cands = {
        "a": [cand(Rect(0, 0, 0, 0), 0)],
        "b": [cand(Rect(0, 0, 0, 0), 0), cand(Rect(0, 1, 0, 1), 36)],
    }
    scored = score_all(cands)
    rects, backtracks = trial_and_error_place(fab, ["a", "b"], scored)
    assert rects["b"] == Rect(0, 1, 0, 1)
    assert backtracks == 0


def test_place_backtracks_across_depths():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    # a's first pick starves b and c; only a's second pick leaves room
    cands = {
        "a": [Rect(0, 1, 0, 2), Rect(0, 0, 0, 1)],
        "b": [Rect(0, 2, 0, 2), Rect(0, 3, 0, 3)],
        "c": [Rect(0, 3, 0, 3)],
    }
    rects, backtracks = trial_and_error_place(fab, ["a", "b", "c"], cands)
    assert rects == {
        "a": Rect(0, 0, 0, 1),
        "b": Rect(0, 2, 0, 2),
        "c": Rect(0, 3, 0, 3),
    }
    assert backtracks >= 1


def test_place_matches_exhaustive_first_feasible():
    rng = random.Random(41)
    agreements = 0
    for _ in range(40):
        fab = random_fabric(rng, max_rows=3, max_cols=10)
        lists = []
        ids = []
        for k in range(rng.randint(2, 4)):
            req = random_requirement(rng, fab)
            pool = sorted(brute_force_rects(fab, req, None))[: rng.randint(1, 6)]
            if not pool:
                break
            ids.append(f"m{k}")
            lists.append(pool)
        if len(lists) < 2:
            continue
        expect = first_feasible_assignment(fab, lists)
        scored = dict(zip(ids, lists))
        if expect is None:
            with pytest.raises(PlacementInfeasibleError):
                trial_and_error_place(fab, ids, scored)
        else:
            rects, _ = trial_and_error_place(fab, ids, scored)
            assert rects == {
                m: lists[k][expect[k]] for k, m in enumerate(ids)
            }
        agreements += 1
    assert agreements >= 20


def test_place_zero_budget_times_out():
    fab = parse_fabric("rows 1\ncolumns CC\n")
    cands = {"a": [cand(Rect(0, 0, 0, 0), 0)]}
    scored = score_all(cands)
    with pytest.raises(PlacementTimeoutError) as err:
        trial_and_error_place(fab, ["a"], scored, time_budget=0.0)
    assert err.value.limit == "time"
    assert "time budget" in str(err.value)


def test_place_zero_node_budgets_time_out(monkeypatch):
    monkeypatch.setattr(place, "FORWARD_CHECK_NODES", 0)
    monkeypatch.setattr(place, "FAIL_FIRST_NODES", 0)
    fab = parse_fabric("rows 1\ncolumns CC\n")
    scored = score_all({"a": [cand(Rect(0, 0, 0, 0), 0)]})
    with pytest.raises(PlacementTimeoutError) as err:
        trial_and_error_place(fab, ["a"], scored, time_budget=None)
    assert err.value.limit == "nodes"
    assert "node budget" in str(err.value)


def test_place_fail_first_places_fewest_candidates_first(monkeypatch):
    # phase 1 gets no nodes; phase 2 places c (one candidate), then b (one
    # left), then a, where depth-first search in module order backs up
    monkeypatch.setattr(place, "FORWARD_CHECK_NODES", 0)
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    cands = {
        "a": [Rect(0, 1, 0, 2), Rect(0, 0, 0, 1)],
        "b": [Rect(0, 2, 0, 2), Rect(0, 3, 0, 3)],
        "c": [Rect(0, 3, 0, 3)],
    }
    rects, backtracks = trial_and_error_place(fab, ["a", "b", "c"], cands)
    assert list(rects.items()) == [
        ("a", Rect(0, 0, 0, 1)),
        ("b", Rect(0, 2, 0, 2)),
        ("c", Rect(0, 3, 0, 3)),
    ]
    assert backtracks == 0


def test_place_infeasible_names_blocking_module():
    fab = parse_fabric("rows 1\ncolumns CC\n")
    shared = Rect(0, 0, 0, 1)
    cands = {
        "a": [cand(shared, 0)],
        "b": [cand(shared, 0)],
    }
    scored = score_all(cands)
    with pytest.raises(PlacementInfeasibleError) as err:
        trial_and_error_place(fab, ["a", "b"], scored)
    assert err.value.module_id == "b"
    assert err.value.placed == 1


def test_place_rejects_reserved_rects():
    fab = parse_fabric("rows 1\ncolumns CCC\nreserved 0 0 0 0\n")
    cands = {
        "a": [cand(Rect(0, 0, 0, 0), 0), cand(Rect(0, 2, 0, 2), 0)],
    }
    scored = score_all(cands)
    rects, _ = trial_and_error_place(fab, ["a"], scored)
    assert rects["a"] == Rect(0, 2, 0, 2)


# --- metrics -----------------------------------------------------------------

def test_wastage_exact_fit_is_zero():
    fab = parse_fabric("rows 1\ncolumns CCB\n")
    design = Design([ModuleSpec("m", ResourceVector(2, 1, 0))])
    assert floorplan_wastage({"m": Rect(0, 0, 0, 2)}, design, fab) == 0


def test_wastage_two_surplus_clb_tiles():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    design = Design([ModuleSpec("m", ResourceVector(2, 0, 0))])
    assert floorplan_wastage({"m": Rect(0, 0, 0, 3)}, design, fab) == 72


def test_wirelength_example_and_degenerate_cases():
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))],
        [Connection("a", "b", 64)],
    )
    # centers (1, 1) and (4, 3)
    placements = {"a": Rect(0, 0, 1, 1), "b": Rect(2, 3, 3, 4)}
    assert placements["a"].center == (1.0, 1.0)
    assert placements["b"].center == (4.0, 3.0)
    assert floorplan_wirelength(placements, design) == 320

    solo = Design([ModuleSpec("a", ResourceVector(1, 0, 0))])
    assert floorplan_wirelength({"a": Rect(0, 0, 1, 1)}, solo) == 0

    coincident = {"a": Rect(0, 0, 1, 1), "b": Rect(0, 0, 1, 1)}
    assert floorplan_wirelength(coincident, design) == 0


def test_wirelength_translation_invariance():
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))],
        [Connection("a", "b", 7)],
    )
    base = {"a": Rect(0, 0, 1, 1), "b": Rect(2, 3, 3, 4)}
    moved = {
        m: Rect(r.row0 + 2, r.col0 + 5, r.row1 + 2, r.col1 + 5)
        for m, r in base.items()
    }
    assert floorplan_wirelength(base, design) == floorplan_wirelength(moved, design)


# --- document ----------------------------------------------------------------

def test_write_floorplan_document_shape():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(2, 0, 0))],
        [Connection("a", "b", 64)],
    )
    rects = {"b": Rect(0, 0, 0, 1), "a": Rect(0, 2, 0, 2)}
    plan = Floorplan(
        rects,
        floorplan_wastage(rects, design, fab),
        floorplan_wirelength(rects, design),
        backtracks=0,
    )
    text = write_floorplan(plan, design, fab, 1.0, 0.0, None)
    lines = text.splitlines()
    assert lines[0] == "mode alpha 1 beta 0 ar off"
    assert lines[1] == "place b 0 0 0 1 2 0 0 0"
    assert lines[2] == "place a 0 2 0 2 1 0 0 0"
    # centers (1.0, 0.5) and (2.5, 0.5): 64 signals over distance 1.5
    assert lines[3] == "total wastage 0 wirelength 96 backtracks 0"
    assert text.endswith("\n")


def test_write_floorplan_ar_bounds_line():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    design = Design([ModuleSpec("a", ResourceVector(1, 0, 0))])
    rects = {"a": Rect(0, 0, 0, 0)}
    plan = Floorplan(rects, 36, 0.0)
    text = write_floorplan(plan, design, fab, 0.5, 0.5, (0.2, 0.7))
    assert text.splitlines()[0] == "mode alpha 0.5 beta 0.5 ar 0.2 0.7"


def test_end_to_end_small_pipeline_is_deterministic():
    fab = parse_fabric("rows 2\ncolumns CCCCBCCD\n")
    design = Design(
        [
            ModuleSpec("a", ResourceVector(2, 1, 0)),
            ModuleSpec("b", ResourceVector(1, 0, 1)),
        ],
        [Connection("a", "b", 16)],
    )
    outputs = []
    for _ in range(2):
        plan = run_floorplan(fab, design, None)
        outputs.append(write_floorplan(plan, design, fab, 0.5, 0.5, None))
    assert outputs[0] == outputs[1]
    assert "total wastage" in outputs[0]


def test_placer_returns_rects_for_tuple_and_rect_candidates():
    """Candidates are plain tuples; the placer makes a ``Rect`` of each
    chosen one. ``run_floorplan`` and ``trial_and_error_place``, given
    ``normalize_candidates``' lists or the same lists as ``Rect``s, return
    ``Rect``s and pick the same rects."""
    fab = parse_fabric(fixture_path("fx70t.fabric").read_text())
    design = sdr_design()
    plan = run_floorplan(fab, design, None)
    candidates = generate_placements(fab, design, None)
    anchors = compute_anchors(fab, design, candidates)
    scored = {
        m: normalize_candidates(options, anchors[m], design.alpha, design.beta)
        for m, options in candidates.items()
    }
    assert all(type(rect) is tuple for options in scored.values() for rect in options)
    as_rects = {m: [Rect._make(rect) for rect in options] for m, options in scored.items()}
    order = order_modules(design, fab)
    picks = [plan.rects]
    for lists in (scored, as_rects):
        rects, backtracks = trial_and_error_place(fab, order, lists)
        assert backtracks == plan.backtracks
        picks.append(rects)
    for rects in picks:
        assert list(rects) == order
        assert all(type(rect) is Rect for rect in rects.values())
    assert picks[0] == picks[1] == picks[2]


# --- per-list work in run_floorplan ------------------------------------------

def test_run_floorplan_indexes_each_distinct_list_once():
    """On xc7k410t n=50 (design seed 50) 50 modules share 23 candidate
    lists: one run builds one overlap index per list, not one per module."""
    fab = parse_fabric(fixture_path("xc7k410t.fabric").read_text())
    design = generate_random_design(50, fab, (0.8, 0.3, 0.3), 50)
    with mock.patch.object(place, "_Overlaps", wraps=place._Overlaps) as overlaps:
        plan = run_floorplan(fab, design, None)
    assert len(plan.rects) == 50
    assert overlaps.call_count == 23


def test_failed_run_frees_its_candidates_before_the_collector_resumes(monkeypatch):
    """A run that raises leaves no candidate list alive when it turns the
    cyclic garbage collector back on, so resuming does not rewalk them."""
    fab = parse_fabric(fixture_path("fx70t.fabric").read_text())
    tessellate = place.generate_placements
    lists = []

    class Tracked(CandidateList):
        """A candidate list that can be referenced weakly."""

    def generate_placements(*args):
        tracked = {}
        for module_id, options in tessellate(*args).items():
            tracked[module_id] = Tracked(options)
            for name in CandidateList.__slots__:
                setattr(tracked[module_id], name, getattr(options, name))
            lists.append(weakref.ref(tracked[module_id]))
        return tracked

    alive_at_resume = []
    resume = gc.enable

    def enable():
        alive_at_resume.append(sum(ref() is not None for ref in lists))
        resume()

    monkeypatch.setattr(place, "generate_placements", generate_placements)
    monkeypatch.setattr(gc, "enable", enable)
    was = gc.isenabled()
    resume()
    try:
        with pytest.raises(PlacementTimeoutError):
            run_floorplan(fab, sdr_design(), None, time_budget=0.0)
        assert gc.isenabled()
    finally:
        (resume if was else gc.disable)()
    assert len(lists) == 5
    assert alive_at_resume == [0]
