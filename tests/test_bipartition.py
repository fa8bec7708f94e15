"""Halving, cut-cost model and anchor recursion tests."""

import io
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tilefp import bipartition
from tilefp.bipartition import (
    EXACT_LIMIT,
    BqpModel,
    InfeasibleModelError,
    SideData,
    assignment_feasible,
    build_bqp,
    compute_anchors,
    objective_of,
    recursive_bipartition,
    side_data,
    solve_bqp,
    span_groups,
    split_partition,
)
from tilefp.bipartition import _greedy_assignment
from tilefp.design import (
    Connection,
    Design,
    GenerationError,
    ModuleSpec,
    generate_random_design,
    parse_design,
)
from tilefp.fabric import Rect, ResourceVector, parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.tessellation import (
    InfeasibleModuleError,
    PlacementCandidate,
    generate_placements,
)

from helpers import (
    bqp_enumeration_min,
    external_cut_cost,
    pair_cut_cost,
    random_bqp_model,
    random_fabric,
)


def cand(rect, resources=ResourceVector(1, 0, 0)):
    return PlacementCandidate(rect, resources, 0)


# --- split_partition -------------------------------------------------------

def test_split_vertical_even_and_odd():
    fab = parse_fabric("rows 2\ncolumns CCCCCCCCCC\n")
    c0, c1 = split_partition(fab.bounds, "vertical")
    assert c0 == Rect(0, 0, 1, 4)
    assert c1 == Rect(0, 5, 1, 9)
    fab5 = parse_fabric("rows 2\ncolumns CCCCC\n")
    c0, c1 = split_partition(fab5.bounds, "vertical")
    assert c0 == Rect(0, 0, 1, 1)
    assert c1 == Rect(0, 2, 1, 4)


def test_split_horizontal_and_reserved_capacity():
    fab = parse_fabric("rows 4\ncolumns CB\nreserved 0 0 0 0\n")
    c0, c1 = split_partition(fab.bounds, "horizontal")
    assert c0 == Rect(0, 0, 1, 1)
    assert c1 == Rect(2, 0, 3, 1)
    model = build_bqp(fab, (c0, c1), [], [], {}, "horizontal", {}, {})
    # the reserved tile is missing from the bottom child's capacity
    assert model.avail0 == tuple(ResourceVector(1, 2, 0))
    assert model.avail1 == tuple(ResourceVector(2, 2, 0))


def test_split_too_thin_raises():
    with pytest.raises(ValueError):
        split_partition(Rect(0, 0, 2, 0), "vertical")
    with pytest.raises(ValueError):
        split_partition(Rect(0, 0, 0, 2), "horizontal")


def tiles(rect):
    return {
        (row, col)
        for row in range(rect.row0, rect.row1 + 1)
        for col in range(rect.col0, rect.col1 + 1)
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["vertical", "horizontal"]),
    st.integers(0, 5), st.integers(0, 5), st.integers(1, 9), st.integers(1, 9),
)
def test_split_halves_partition_the_rect(axis, row0, col0, rows, cols):
    """The halves are disjoint, cover the rect and keep its extent across
    the cut; the left (or bottom) one takes the floor half of its span."""
    rect = Rect(row0, col0, row0 + rows - 1, col0 + cols - 1)
    span = cols if axis == "vertical" else rows
    assume(span >= 2)
    c0, c1 = split_partition(rect, axis)
    assert tiles(c0).isdisjoint(tiles(c1))
    assert tiles(c0) | tiles(c1) == tiles(rect)
    if axis == "vertical":
        assert (c0.col0, c0.width, c1.col1) == (col0, span // 2, rect.col1)
        assert c0.height == c1.height == rows
    else:
        assert (c0.row0, c0.height, c1.row1) == (row0, span // 2, rect.row1)
        assert c0.width == c1.width == cols


# --- side_data -------------------------------------------------------------

def side_of(rect, c0, c1, axis):
    """Side a one-candidate list is forced to; None when it keeps to the parent."""
    groups = span_groups([cand(rect)], axis)
    data = side_data("m", groups, c0, c1, axis)
    assert data.parent_only == (data.forced_side is None)
    return data.forced_side


def test_side_data_single_candidate_fractions():
    c0, c1 = split_partition(Rect(0, 0, 0, 9), "vertical")
    assert side_of(Rect(0, 0, 0, 3), c0, c1, "vertical") == 0
    assert side_of(Rect(0, 6, 0, 9), c0, c1, "vertical") == 1
    # 4 of 5 tiles on the left: 80%
    assert side_of(Rect(0, 1, 0, 5), c0, c1, "vertical") == 0
    # exactly 75% on the right is still assigned (boundary inclusive)
    assert side_of(Rect(0, 4, 0, 7), c0, c1, "vertical") == 1
    # an even straddle belongs to neither half
    assert side_of(Rect(0, 2, 0, 7), c0, c1, "vertical") is None


def test_side_data_single_candidate_two_dimensional_overlap():
    c0, c1 = split_partition(Rect(0, 0, 3, 3), "horizontal")
    assert side_of(Rect(0, 0, 2, 0), c0, c1, "horizontal") is None
    assert side_of(Rect(1, 0, 2, 3), c0, c1, "horizontal") is None
    assert side_of(Rect(2, 1, 3, 2), c0, c1, "horizontal") == 1


def test_side_data_means_and_minima():
    c0, c1 = split_partition(Rect(0, 0, 1, 7), "vertical")
    cands = [
        cand(Rect(0, 0, 0, 1), ResourceVector(2, 0, 0)),
        cand(Rect(0, 0, 0, 3), ResourceVector(4, 0, 0)),
        cand(Rect(1, 0, 1, 1), ResourceVector(2, 1, 0)),
        cand(Rect(0, 5, 1, 6), ResourceVector(4, 0, 0)),
    ]
    groups = span_groups(cands, "vertical")
    # one group per column span, in first-seen order
    assert groups == ((0, 1, 2, 2, 0, 0), (0, 3, 1, 4, 0, 0), (5, 6, 1, 4, 0, 0))
    data = side_data("m", groups, c0, c1, "vertical")
    assert data.placements0 == groups[:2] and data.placements1 == groups[2:]
    assert data.forced_side is None and not data.parent_only
    assert data.w0 == (2 + 4 + 2) / 3
    assert data.w1 == 2.0
    assert data.occ0 == ResourceVector(2, 0, 0)
    assert data.occ1 == ResourceVector(4, 0, 0)


def test_side_data_forced_and_parent_only():
    c0, c1 = split_partition(Rect(0, 0, 1, 7), "vertical")
    def alone(rect):
        return side_data("m", span_groups([cand(rect)], "vertical"), c0, c1, "vertical")

    left_only = alone(Rect(0, 0, 1, 1))
    assert left_only.forced_side == 0
    assert left_only.w1 is None and left_only.occ1 is None
    straddle = alone(Rect(0, 2, 0, 5))
    assert straddle.parent_only
    assert straddle.forced_side is None


# --- cut costs -------------------------------------------------------------

def test_pair_cut_cost_same_side_is_free():
    for m in (0, 1):
        assert pair_cut_cost(7, m, m, 1.5, 2.5, 3.0, 0.5) == 0


def test_pair_cut_cost_examples():
    assert pair_cut_cost(2, 1, 0, 0.0, 3.0, 2.0, 0.0) == 10
    # with every extent at one half the cost collapses to the bare number
    # of severed signals
    for m_i, m_j in itertools.product((0, 1), repeat=2):
        plain = 4 * (m_i + m_j - 2 * m_i * m_j)
        assert pair_cut_cost(4, m_i, m_j, 0.5, 0.5, 0.5, 0.5) == plain


def test_pair_cut_cost_nonnegative():
    rng = random.Random(7)
    for _ in range(200):
        ws = [rng.uniform(0, 6) for _ in range(4)]
        m_i, m_j = rng.randint(0, 1), rng.randint(0, 1)
        assert pair_cut_cost(rng.randint(1, 64), m_i, m_j, *ws) >= 0


def test_external_cut_cost_examples():
    assert external_cut_cost(8, 0, 1.0, 2.0, 0, 3.0) == 0
    assert external_cut_cost(64, 1, 1.0, 2.0, 0, 3.0) == 320
    assert external_cut_cost(64, 1, 1.0, 2.0, 1, 3.0) == 0
    assert external_cut_cost(5, 0, 2.0, 9.0, 1, 1.0) == 15


# --- build_bqp -------------------------------------------------------------

def sd(module_id, w0=None, w1=None, occ0=None, occ1=None):
    filler = (0, 0, 1, 1, 0, 0)  # one span group: a single one-column candidate
    return SideData(
        module_id,
        (filler,) if w0 is not None else (),
        (filler,) if w1 is not None else (),
        w0,
        w1,
        occ0,
        occ1,
    )


def two_halves(cols="CCCCCCCC", rows=2):
    fab = parse_fabric(f"rows {rows}\ncolumns {cols}\n")
    return fab, split_partition(fab.bounds, "vertical")


def test_build_bqp_two_modules_prefer_same_side():
    fab, children = two_halves()
    one = ResourceVector(2, 0, 0)
    data = [
        sd("a", w0=2.0, w1=2.0, occ0=one, occ1=one),
        sd("b", w0=2.0, w1=2.0, occ0=one, occ1=one),
    ]
    model = build_bqp(
        fab, children, data, [Connection("a", "b", 8)], {}, "vertical", {},
        {"a": one, "b": one},
    )
    assert model.variables == ["a", "b"]
    best = min(
        itertools.product((0, 1), repeat=2),
        key=lambda bits: objective_of(model, bits),
    )
    assert best[0] == best[1]
    assert objective_of(model, best) == 0
    assert assignment_feasible(model, best)


def test_build_bqp_forced_overflow_is_infeasible():
    fab, children = two_halves(cols="CCCC")
    big = ResourceVector(3, 0, 0)
    # both modules only fit on side 0, which holds 4 CLB tiles in total
    data = [
        sd("a", w0=2.0, occ0=big),
        sd("b", w0=2.0, occ0=big),
    ]
    with pytest.raises(InfeasibleModelError):
        build_bqp(fab, children, data, [], {}, "vertical", {}, {"a": big, "b": big})


def test_build_bqp_chain_severs_one_edge():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    children = split_partition(fab.bounds, "vertical")
    two = ResourceVector(2, 0, 0)
    data = [sd(m, w0=2.0, w1=2.0, occ0=two, occ1=two) for m in ("a", "b", "c")]
    conns = [Connection("a", "b", 5), Connection("b", "c", 5)]
    # each half holds 4 CLB tiles, so at most two modules fit per side
    model = build_bqp(fab, children, data, conns, {}, "vertical", {}, {m: two for m in "abc"})
    best = None
    for bits in itertools.product((0, 1), repeat=3):
        if not assignment_feasible(model, bits):
            continue
        if best is None or objective_of(model, bits) < objective_of(model, best):
            best = bits
    cut_edges = sum(
        1 for x, y in (("a", "b"), ("b", "c"))
        if best[model.variables.index(x)] != best[model.variables.index(y)]
    )
    assert cut_edges == 1


def test_build_bqp_parent_only_deduction_and_external():
    fab, children = two_halves()
    one = ResourceVector(1, 0, 0)
    data = [
        sd("a", w0=2.0, w1=2.0, occ0=one, occ1=one),
        sd("big"),  # no candidates in either half
    ]
    model = build_bqp(
        fab, children, data, [Connection("a", "big", 4)],
        {"big": (6.5, 1.0)}, "vertical", {"a": 2.0, "big": 4.0},
        {"a": one, "big": ResourceVector(4, 0, 0)},
    )
    assert model.parent_only == ["big"]
    # half of the stuck module's four tiles is charged to each side
    assert model.avail0[0] == fab.available_in_rect(children[0]).clb - 2.0
    assert model.avail1[0] == fab.available_in_rect(children[1]).clb - 2.0
    # its anchor sits right of the cut, so only m_a = 0 pays
    assert model.linear[0][0] == 4 * (2.0 + 4.0)
    assert model.linear[0][1] == 0


def test_build_bqp_costs_nonnegative_property():
    rng = random.Random(11)
    fab, children = two_halves()
    for _ in range(50):
        ws = [round(rng.uniform(0.5, 4.0), 2) for _ in range(4)]
        occ = ResourceVector(rng.randint(0, 3), 0, 0)
        data = [
            sd("a", w0=ws[0], w1=ws[1], occ0=occ, occ1=occ),
            sd("b", w0=ws[2], w1=ws[3], occ0=occ, occ1=occ),
        ]
        model = build_bqp(
            fab, children, data, [Connection("a", "b", rng.randint(1, 64))],
            {}, "vertical", {}, {"a": occ, "b": occ},
        )
        assert model.const >= 0
        assert all(v >= 0 for pair in model.linear for v in pair)
        for corners in model.pairs.values():
            assert all(c >= 0 for row in corners for c in row)
        for bits in itertools.product((0, 1), repeat=2):
            assert objective_of(model, bits) >= 0


# --- solve_bqp -------------------------------------------------------------

def test_solver_matches_enumeration(monkeypatch):
    rng = random.Random(23)
    # the last four models span the top of the exact range
    sizes = [rng.randint(2, 10) for _ in range(60)] + list(range(13, EXACT_LIMIT + 1))
    for n_vars in sizes:
        model = random_bqp_model(rng, n_vars)
        got = solve_bqp(model)
        want = bqp_enumeration_min(model)
        # the exact range ignores the node budget
        with monkeypatch.context() as patch:
            patch.setattr(bipartition, "NODE_BUDGET", 1)
            assert solve_bqp(model) == got
        if want is None:
            assert got is None
        else:
            # the oracle, too, keeps the lexicographically first minimum
            bits = [got[m] for m in model.variables]
            assert bits == list(want[0])
            assert objective_of(model, bits) == want[1]


def test_solver_tie_break_is_lexicographic():
    model = BqpModel(
        variables=["a", "b", "c"],
        linear=[(0.0, 0.0)] * 3,
        pairs={},
        const=0.0,
        occ0=[(1, 0, 0)] * 3,
        occ1=[(1, 0, 0)] * 3,
        avail0=(1.0, 0.0, 0.0),
        avail1=(2.0, 0.0, 0.0),
    )
    # every feasible assignment costs zero; 0,1,1 is the smallest feasible
    assert solve_bqp(model) == {"a": 0, "b": 1, "c": 1}


def test_large_solver_beats_greedy_seed(monkeypatch):
    rng = random.Random(31)
    model = random_bqp_model(rng, 20)
    monkeypatch.setattr(bipartition, "NODE_BUDGET", 20_000)
    got = solve_bqp(model)
    assert got is not None
    bits = [got[m] for m in model.variables]
    assert assignment_feasible(model, bits)
    greedy = _greedy_assignment(model)
    if assignment_feasible(model, greedy):
        assert objective_of(model, bits) <= objective_of(model, greedy)


@pytest.mark.parametrize("n", [3, EXACT_LIMIT + 4])
def test_solver_rejects_footprints_that_cannot_fit_before_searching(monkeypatch, n):
    """Every variable needs one BRAM tile on either side, and the two sides
    hold n - 1 together: no assignment fits, and none is searched for."""
    def no_search(*args):
        raise AssertionError("searched a model whose footprints cannot fit")

    monkeypatch.setattr(bipartition, "_solve_branch_and_bound", no_search)
    monkeypatch.setattr(bipartition, "_greedy_assignment", no_search)
    half = (n - 1) / 2
    model = BqpModel(
        variables=[f"m{i}" for i in range(n)],
        linear=[(0.0, 1.0)] * n,
        pairs={},
        const=0.0,
        occ0=[(1, 1, 0)] * n,
        occ1=[(2, 1, 0)] * n,
        avail0=(float(n), half, 0.0),
        avail1=(float(n), half, 0.0),
    )
    assert solve_bqp(model) is None


def test_solver_empty_model():
    model = BqpModel([], [], {}, 3.0, [], [], (0, 0, 0), (0, 0, 0))
    assert solve_bqp(model) == {}


class _RootBuilt(Exception):
    pass


def test_settled_interconnect_bound_prunes_scaling_root(monkeypatch):
    """The first vertical halving of the scaling n = 50 design (xc7k410t,
    design seed 50, scaling.cfg occupancy, no AR window) has 50 variables.
    A search bounded by the linear costs alone needs 66,258 nodes to
    finish; bounding by the pair costs to settled modules as well finishes
    in 19,586, with the same assignment."""
    fab = parse_fabric(fixture_path("xc7k410t.fabric").read_text())
    design = generate_random_design(50, fab, (0.8, 0.3, 0.3), 50)
    cands = generate_placements(fab, design, ar_bounds=None)
    built = []

    def build_first(*args):
        built.append(build_bqp(*args))
        raise _RootBuilt

    monkeypatch.setattr(bipartition, "build_bqp", build_first)
    with pytest.raises(_RootBuilt):
        recursive_bipartition(fab, design, cands, "vertical")
    (model,) = built
    assert len(model.variables) == 50
    searches = record_searches(monkeypatch)
    full = solve_bqp(model)
    assert searches == [(50, 19_586)]
    monkeypatch.setattr(bipartition, "NODE_BUDGET", 19_586)
    assert solve_bqp(model) == full


def record_searches(monkeypatch):
    """Patch the halving search to log ``(variables, nodes)`` per call."""
    search = bipartition._solve_branch_and_bound
    searches = []

    def recording_search(model, seed, node_budget):
        bits, nodes = search(model, seed, node_budget)
        searches.append((len(model.variables), nodes))
        return bits, nodes

    monkeypatch.setattr(bipartition, "_solve_branch_and_bound", recording_search)
    return searches


def anchor_searches(monkeypatch, fabric_name, design):
    """``(variables, nodes)`` of every halving search ``compute_anchors``
    runs for a fixture design, or one generated as ``(n, occupancy,
    seed)``, with no AR window."""
    fab = parse_fabric(fixture_path(fabric_name).read_text())
    if isinstance(design, str):
        design = parse_design(fixture_path(design).read_text())
    else:
        design = generate_random_design(design[0], fab, *design[1:])
    cands = generate_placements(fab, design, ar_bounds=None)
    searches = record_searches(monkeypatch)
    compute_anchors(fab, design, cands)
    return searches


# The node counts below were taken before the search loop was rewritten for
# speed: a change that only makes the search faster keeps every one.

def test_scaling_search_node_counts_are_pinned(monkeypatch):
    searches = anchor_searches(monkeypatch, "xc7k410t.fabric", (50, (0.8, 0.3, 0.3), 50))
    assert searches == [
        (50, 19586), (19, 2), (5, 10), (5, 10), (2, 4), (3, 6), (14, 138), (7, 28),
        (3, 8), (31, 2), (16, 176), (8, 154), (8, 250), (15, 492), (8, 136), (4, 8),
        (2, 4), (7, 138), (50, 2), (33, 2), (21, 2), (17, 114),
    ]
    assert sum(nodes for _, nodes in searches) == 21_272


@pytest.mark.parametrize("design, searches, nodes", [
    pytest.param((16, (0.8, 0.5, 0.5), 0), 10, 3_558, id="dense-s0"),
    pytest.param((16, (0.8, 0.5, 0.5), 1), 8, 2_730, id="dense-s1"),
    pytest.param((16, (0.8, 0.5, 0.5), 2), 7, 1_996, id="dense-s2"),
    pytest.param("sdr.design", 7, 68, id="sdr-noar"),
])
def test_fx70t_search_node_totals_are_pinned(monkeypatch, design, searches, nodes):
    got = anchor_searches(monkeypatch, "fx70t.fabric", design)
    assert (len(got), sum(n for _, n in got)) == (searches, nodes)


# --- recursion -------------------------------------------------------------

def test_single_module_anchors_at_device_center():
    fab = parse_fabric("rows 4\ncolumns CCCC\n")
    design = Design([ModuleSpec("m", ResourceVector(1, 0, 0))])
    cands = generate_placements(fab, design, ar_bounds=None)
    anchors = compute_anchors(fab, design, cands)
    assert anchors == {"m": (2.0, 2.0)}


def test_forced_modules_anchor_at_child_centers():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("l", ResourceVector(1, 0, 0)), ModuleSpec("r", ResourceVector(1, 0, 0))]
    )
    cands = {
        "l": [cand(Rect(0, 0, 0, 0))],
        "r": [cand(Rect(0, 3, 0, 3))],
    }
    anchors = recursive_bipartition(fab, design, cands, "vertical")
    assert anchors["l"] == (1.0, 0.5)
    assert anchors["r"] == (3.0, 0.5)


def test_parent_only_module_keeps_parent_anchor():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    design = Design(
        [
            ModuleSpec("big", ResourceVector(4, 0, 0)),
            ModuleSpec("l", ResourceVector(1, 0, 0)),
            ModuleSpec("r", ResourceVector(1, 0, 0)),
        ]
    )
    cands = {
        "big": [cand(Rect(0, 2, 0, 5), ResourceVector(4, 0, 0))],
        "l": [cand(Rect(0, 0, 0, 0))],
        "r": [cand(Rect(0, 7, 0, 7))],
    }
    anchors = recursive_bipartition(fab, design, cands, "vertical")
    assert anchors["big"] == (4.0, 0.5)
    assert anchors["l"][0] < 4.0 < anchors["r"][0]


def test_capacity_forces_modules_apart():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(2, 0, 0)), ModuleSpec("b", ResourceVector(2, 0, 0))],
        [Connection("a", "b", 64)],
    )
    cands = generate_placements(fab, design, ar_bounds=None)
    anchors = recursive_bipartition(fab, design, cands, "vertical")
    assert anchors["a"] != anchors["b"]
    assert {anchors["a"], anchors["b"]} == {(1.0, 0.5), (3.0, 0.5)}


def test_connected_modules_gather_on_one_side():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))],
        [Connection("a", "b", 64)],
    )
    cands = generate_placements(fab, design, ar_bounds=None)
    anchors = recursive_bipartition(fab, design, cands, "vertical")
    # the halving bottoms out at single-column children whose capacity
    # forces the pair apart, but both stay inside the root's left half
    assert anchors["a"][0] < 4.0
    assert anchors["b"][0] < 4.0
    assert abs(anchors["a"][0] - anchors["b"][0]) == 1.0


# a and b only fit the left half of the device, c and d only the right one
FOUR_FORCED = {
    "a": [cand(Rect(0, 0, 0, 0))],
    "b": [cand(Rect(0, 1, 0, 1))],
    "c": [cand(Rect(0, 6, 0, 6))],
    "d": [cand(Rect(0, 7, 0, 7))],
}


def four_forced():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    design = Design([ModuleSpec(m, ResourceVector(1, 0, 0)) for m in "abcd"])
    return fab, design


def model_members(model):
    return {*model.variables, *model.fixed, *model.parent_only}


def fail_halvings(monkeypatch, failing, how):
    """Make every halving whose members are exactly ``failing`` fail, by
    ``solve_bqp`` returning None or by ``build_bqp`` raising
    ``InfeasibleModelError``; returns the members of every model built."""
    build, solve = bipartition.build_bqp, bipartition.solve_bqp
    built = []

    def failing_build(*args):
        model = build(*args)
        built.append(model_members(model))
        if how == "build" and built[-1] == failing:
            raise InfeasibleModelError("overflow")
        return model

    def failing_solve(model):
        if how == "solve" and model_members(model) == failing:
            return None
        return solve(model)

    monkeypatch.setattr(bipartition, "build_bqp", failing_build)
    monkeypatch.setattr(bipartition, "solve_bqp", failing_solve)
    return built


@pytest.mark.parametrize("how", ["solve", "build"])
def test_failed_halving_keeps_members_at_its_center(monkeypatch, how):
    """The right half's halving fails: c and d stay at its center, nothing
    is halved inside it and the log has no record for it, while the left
    half is halved on."""
    fab, design = four_forced()
    built = fail_halvings(monkeypatch, {"c", "d"}, how)
    log = io.StringIO()
    anchors = recursive_bipartition(fab, design, FOUR_FORCED, "vertical", log)
    assert anchors == {"a": (0.5, 0.5), "b": (1.5, 0.5), "c": (6.0, 0.5), "d": (6.0, 0.5)}
    assert built.count({"c", "d"}) == 1
    assert not any(members & {"c", "d"} for members in built[built.index({"c", "d"}) + 1:])
    rects = [json.loads(line)["rect"] for line in log.getvalue().splitlines()]
    assert [0, 0, 0, 7] in rects and [0, 0, 0, 3] in rects
    assert [0, 4, 0, 7] not in rects


@pytest.mark.parametrize("how", ["solve", "build"])
@pytest.mark.parametrize("axis", ["vertical", "horizontal"])
def test_failed_root_halving_names_the_pass(monkeypatch, how, axis):
    fab = parse_fabric("rows 8\ncolumns CCCCCCCC\n")
    design = Design([ModuleSpec(m, ResourceVector(1, 0, 0)) for m in "ab"])
    cands = generate_placements(fab, design, ar_bounds=None)
    fail_halvings(monkeypatch, {"a", "b"}, how)
    with pytest.raises(InfeasibleModelError, match=f"device root \\({axis} pass\\)"):
        recursive_bipartition(fab, design, cands, axis)


def test_compute_anchors_combines_axes():
    fab = parse_fabric("rows 4\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))]
    )
    cands = {
        "a": [cand(Rect(0, 0, 0, 0))],  # bottom-left corner
        "b": [cand(Rect(3, 3, 3, 3))],  # top-right corner
    }
    anchors = compute_anchors(fab, design, cands)
    ax, ay = anchors["a"]
    bx, by = anchors["b"]
    assert ax < bx and ay < by


def test_anchor_totality_and_determinism():
    done = 0
    for seed in range(40):
        rng = random.Random(seed)
        fab = random_fabric(rng, max_rows=4, max_cols=16)
        try:
            design = generate_random_design(4, fab, (0.4, 0.2, 0.2), seed)
            cands = generate_placements(fab, design, ar_bounds=None)
        except (InfeasibleModuleError, GenerationError):
            continue
        first = compute_anchors(fab, design, cands)
        again = compute_anchors(fab, design, cands)
        assert first == again
        for x, y in first.values():
            assert 0 < x < fab.cols
            assert 0 < y < fab.rows
        done += 1
    assert done >= 10
