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
    _BqpModel,
    _SideData,
    _assignment_feasible,
    _build_bqp,
    _greedy_assignment,
    _local_search,
    _objective_of,
    _packed_assignment,
    _recursive_bipartition,
    _repair,
    _side_data,
    _solve_bqp,
    _solve_branch_and_bound,
    _split_partition,
    compute_anchors,
)
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
from tilefp.tessellation import InfeasibleModuleError, generate_placements

from helpers import (
    Candidate,
    bqp_enumeration_min,
    external_cut_cost,
    pair_cut_cost,
    random_bqp_model,
    random_fabric,
    span_groups_walk,
    summarized,
)


def cand(rect, resources=ResourceVector(1, 0, 0)):
    return Candidate(rect, resources, 0)


# --- _split_partition -------------------------------------------------------

def test_split_vertical_even_and_odd():
    fab = parse_fabric("rows 2\ncolumns CCCCCCCCCC\n")
    c0, c1 = _split_partition(fab.bounds, "vertical")
    assert c0 == Rect(0, 0, 1, 4)
    assert c1 == Rect(0, 5, 1, 9)
    fab5 = parse_fabric("rows 2\ncolumns CCCCC\n")
    c0, c1 = _split_partition(fab5.bounds, "vertical")
    assert c0 == Rect(0, 0, 1, 1)
    assert c1 == Rect(0, 2, 1, 4)


def test_split_horizontal_and_reserved_capacity():
    fab = parse_fabric("rows 4\ncolumns CB\nreserved 0 0 0 0\n")
    c0, c1 = _split_partition(fab.bounds, "horizontal")
    assert c0 == Rect(0, 0, 1, 1)
    assert c1 == Rect(2, 0, 3, 1)
    model = _build_bqp(fab, (c0, c1), [], [], {}, "horizontal", {}, {})
    # the reserved tile is missing from the bottom child's capacity
    assert model.avail0 == tuple(ResourceVector(1, 2, 0))
    assert model.avail1 == tuple(ResourceVector(2, 2, 0))


def test_split_too_thin_raises():
    with pytest.raises(ValueError):
        _split_partition(Rect(0, 0, 2, 0), "vertical")
    with pytest.raises(ValueError):
        _split_partition(Rect(0, 0, 0, 2), "horizontal")


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
    c0, c1 = _split_partition(rect, axis)
    assert tiles(c0).isdisjoint(tiles(c1))
    assert tiles(c0) | tiles(c1) == tiles(rect)
    if axis == "vertical":
        assert (c0.col0, c0.width, c1.col1) == (col0, span // 2, rect.col1)
        assert c0.height == c1.height == rows
    else:
        assert (c0.row0, c0.height, c1.row1) == (row0, span // 2, rect.row1)
        assert c0.width == c1.width == cols


# --- _side_data -------------------------------------------------------------

def side_of(rect, c0, c1, axis):
    """Side a one-candidate list is forced to; None when it keeps to the parent."""
    groups = span_groups_walk([cand(rect)], axis)
    data = _side_data("m", groups, c0, c1, axis)
    assert data.parent_only == (data.forced_side is None)
    return data.forced_side


def test_side_data_single_candidate_fractions():
    c0, c1 = _split_partition(Rect(0, 0, 0, 9), "vertical")
    assert side_of(Rect(0, 0, 0, 3), c0, c1, "vertical") == 0
    assert side_of(Rect(0, 6, 0, 9), c0, c1, "vertical") == 1
    # 4 of 5 tiles on the left: 80%
    assert side_of(Rect(0, 1, 0, 5), c0, c1, "vertical") == 0
    # exactly 75% on the right is still assigned (boundary inclusive)
    assert side_of(Rect(0, 4, 0, 7), c0, c1, "vertical") == 1
    # an even straddle belongs to neither half
    assert side_of(Rect(0, 2, 0, 7), c0, c1, "vertical") is None


def test_side_data_single_candidate_two_dimensional_overlap():
    c0, c1 = _split_partition(Rect(0, 0, 3, 3), "horizontal")
    assert side_of(Rect(0, 0, 2, 0), c0, c1, "horizontal") is None
    assert side_of(Rect(1, 0, 2, 3), c0, c1, "horizontal") is None
    assert side_of(Rect(2, 1, 3, 2), c0, c1, "horizontal") == 1


def test_side_data_means_and_minima():
    c0, c1 = _split_partition(Rect(0, 0, 1, 7), "vertical")
    cands = [
        cand(Rect(0, 0, 0, 1), ResourceVector(2, 0, 0)),
        cand(Rect(0, 0, 0, 3), ResourceVector(4, 0, 0)),
        cand(Rect(1, 0, 1, 1), ResourceVector(2, 1, 0)),
        cand(Rect(0, 5, 1, 6), ResourceVector(4, 0, 0)),
    ]
    groups = span_groups_walk(cands, "vertical")
    # one group per column span, in first-seen order
    assert groups == ((0, 1, 2, 2, 0, 0), (0, 3, 1, 4, 0, 0), (5, 6, 1, 4, 0, 0))
    data = _side_data("m", groups, c0, c1, "vertical")
    assert data.placements0 == groups[:2] and data.placements1 == groups[2:]
    assert data.forced_side is None and not data.parent_only
    assert data.w0 == (2 + 4 + 2) / 3
    assert data.w1 == 2.0
    assert data.occ0 == ResourceVector(2, 0, 0)
    assert data.occ1 == ResourceVector(4, 0, 0)


def test_side_data_forced_and_parent_only():
    c0, c1 = _split_partition(Rect(0, 0, 1, 7), "vertical")
    def alone(rect):
        return _side_data("m", span_groups_walk([cand(rect)], "vertical"), c0, c1, "vertical")

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


# --- _build_bqp -------------------------------------------------------------

def sd(module_id, w0=None, w1=None, occ0=None, occ1=None):
    filler = (0, 0, 1, 1, 0, 0)  # one span group: a single one-column candidate
    return _SideData(
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
    return fab, _split_partition(fab.bounds, "vertical")


def test_build_bqp_two_modules_prefer_same_side():
    fab, children = two_halves()
    one = ResourceVector(2, 0, 0)
    data = [
        sd("a", w0=2.0, w1=2.0, occ0=one, occ1=one),
        sd("b", w0=2.0, w1=2.0, occ0=one, occ1=one),
    ]
    model = _build_bqp(
        fab, children, data, [Connection("a", "b", 8)], {}, "vertical", {},
        {"a": one, "b": one},
    )
    assert model.variables == ["a", "b"]
    best = min(
        itertools.product((0, 1), repeat=2),
        key=lambda bits: _objective_of(model, bits),
    )
    assert best[0] == best[1]
    assert _objective_of(model, best) == 0
    assert _assignment_feasible(model, best)


def test_build_bqp_forced_overflow_is_infeasible():
    fab, children = two_halves(cols="CCCC")
    big = ResourceVector(3, 0, 0)
    # both modules only fit on side 0, which holds 4 CLB tiles in total
    data = [
        sd("a", w0=2.0, occ0=big),
        sd("b", w0=2.0, occ0=big),
    ]
    assert _build_bqp(fab, children, data, [], {}, "vertical", {}, {"a": big, "b": big}) is None


def test_build_bqp_chain_severs_one_edge():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    children = _split_partition(fab.bounds, "vertical")
    two = ResourceVector(2, 0, 0)
    data = [sd(m, w0=2.0, w1=2.0, occ0=two, occ1=two) for m in ("a", "b", "c")]
    conns = [Connection("a", "b", 5), Connection("b", "c", 5)]
    # each half holds 4 CLB tiles, so at most two modules fit per side
    model = _build_bqp(fab, children, data, conns, {}, "vertical", {}, {m: two for m in "abc"})
    best = None
    for bits in itertools.product((0, 1), repeat=3):
        if not _assignment_feasible(model, bits):
            continue
        if best is None or _objective_of(model, bits) < _objective_of(model, best):
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
    model = _build_bqp(
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


def test_build_bqp_charges_parent_only_members_by_kind():
    """Each kind of a parent-only requirement is charged to the halves in
    proportion to the tiles of that kind they hold: the CLB-only left half
    owes no BRAM and no DSP. A kind neither half holds is shared by area,
    which overdraws both halves."""
    fab = parse_fabric("rows 3\ncolumns CBD\n")
    children = _split_partition(fab.bounds, "vertical")
    clb0 = fab.available_in_rect(children[0])
    assert (clb0.bram, clb0.dsp) == (0, 0)
    model = _build_bqp(
        fab, children, [sd("a")], [], {"a": (1.5, 1.5)}, "vertical", {},
        {"a": ResourceVector(1, 1, 1)},
    )
    assert model.parent_only == ["a"]
    assert model.avail0 == (clb0.clb - 1, 0, 0)
    both = fab.available_in_rect(children[1])
    assert model.avail1 == (both.clb, both.bram - 1, both.dsp - 1)

    fab, children = two_halves(cols="CCC", rows=1)
    model = _build_bqp(
        fab, children, [sd("a")], [], {"a": (1.5, 0.5)}, "vertical", {},
        {"a": ResourceVector(1, 0, 3)},
    )
    assert model is None


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
        model = _build_bqp(
            fab, children, data, [Connection("a", "b", rng.randint(1, 64))],
            {}, "vertical", {}, {"a": occ, "b": occ},
        )
        assert model.const >= 0
        assert all(v >= 0 for pair in model.linear for v in pair)
        for corners in model.pairs.values():
            assert all(c >= 0 for row in corners for c in row)
        for bits in itertools.product((0, 1), repeat=2):
            assert _objective_of(model, bits) >= 0


# --- _solve_bqp -------------------------------------------------------------

def test_solver_matches_enumeration(monkeypatch):
    rng = random.Random(23)
    # the last four models span the top of the exact range
    sizes = [rng.randint(2, 10) for _ in range(60)] + list(range(13, EXACT_LIMIT + 1))
    for n_vars in sizes:
        model = random_bqp_model(rng, n_vars)
        got = _solve_bqp(model)
        want = bqp_enumeration_min(model)
        # the exact range ignores the node budget
        with monkeypatch.context() as patch:
            patch.setattr(bipartition, "NODE_BUDGET", 1)
            assert _solve_bqp(model) == got
        if want is None:
            assert got is None
        else:
            # the oracle, too, keeps the lexicographically first minimum
            bits = [got[m] for m in model.variables]
            assert bits == list(want[0])
            assert _objective_of(model, bits) == want[1]


def test_solver_tie_break_is_lexicographic():
    model = _BqpModel(
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
    assert _solve_bqp(model) == {"a": 0, "b": 1, "c": 1}


def test_large_solver_beats_greedy_seed(monkeypatch):
    rng = random.Random(31)
    model = random_bqp_model(rng, 20)
    monkeypatch.setattr(bipartition, "NODE_BUDGET", 20_000)
    got = _solve_bqp(model)
    assert got is not None
    bits = [got[m] for m in model.variables]
    assert _assignment_feasible(model, bits)
    greedy = _greedy_assignment(model)
    if _assignment_feasible(model, greedy):
        assert _objective_of(model, bits) <= _objective_of(model, greedy)


@pytest.mark.parametrize("n", [3, EXACT_LIMIT + 4])
def test_solver_rejects_footprints_that_cannot_fit_before_searching(monkeypatch, n):
    """Every variable needs one BRAM tile on either side, and the two sides
    hold n - 1 together: no assignment fits, and none is searched for."""
    def no_search(*args):
        raise AssertionError("searched a model whose footprints cannot fit")

    monkeypatch.setattr(bipartition, "_solve_branch_and_bound", no_search)
    monkeypatch.setattr(bipartition, "_greedy_assignment", no_search)
    half = (n - 1) / 2
    model = _BqpModel(
        variables=[f"m{i}" for i in range(n)],
        linear=[(0.0, 1.0)] * n,
        pairs={},
        const=0.0,
        occ0=[(1, 1, 0)] * n,
        occ1=[(2, 1, 0)] * n,
        avail0=(float(n), half, 0.0),
        avail1=(float(n), half, 0.0),
    )
    assert _solve_bqp(model) is None


def test_packed_assignment_places_joined_sets_whole():
    """{a, b} is the larger set and goes first, to its cheaper side 0 when
    that holds it; c costs the same on either side and goes to the side
    with more CLB room left, side 0 on a tie. With room for {a, b} on
    neither side there is no packing."""
    def model(avail0, avail1):
        return _BqpModel(
            variables=["a", "b", "c"],
            linear=[(0.0, 1.0), (0.0, 0.0), (0.0, 0.0)],
            pairs={(0, 1): ((0.0, 2.0), (2.0, 0.0))},
            const=0.0,
            occ0=[(2, 0, 0), (1, 0, 0), (1, 0, 0)],
            occ1=[(2, 0, 0), (1, 0, 0), (1, 0, 0)],
            avail0=(avail0, 0.0, 0.0),
            avail1=(avail1, 0.0, 0.0),
        )

    assert _packed_assignment(model(4.0, 3.0)) == [0, 0, 1]
    assert _packed_assignment(model(6.0, 3.0)) == [0, 0, 0]
    assert _packed_assignment(model(2.0, 3.0)) == [1, 1, 0]
    assert _packed_assignment(model(2.0, 2.0)) is None


def test_solver_empty_model():
    model = _BqpModel([], [], {}, 3.0, [], [], (0, 0, 0), (0, 0, 0))
    assert _solve_bqp(model) == {}


class _RootBuilt(Exception):
    pass


@pytest.fixture(scope="module")
def scaling_root():
    """The first vertical halving of the scaling n = 50 design (xc7k410t,
    design seed 50, scaling.cfg occupancy, no AR window): its model and the
    members of each ``_side_data`` call that built it."""
    fab = parse_fabric(fixture_path("xc7k410t.fabric").read_text())
    design = generate_random_design(50, fab, (0.8, 0.3, 0.3), 50)
    cands = generate_placements(fab, design, ar_bounds=None)
    built, split = [], []
    side_data = bipartition._side_data

    def build_first(*args):
        built.append(_build_bqp(*args))
        raise _RootBuilt

    def recording_side_data(module_id, *args):
        split.append(module_id)
        return side_data(module_id, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bipartition, "_build_bqp", build_first)
        patch.setattr(bipartition, "_side_data", recording_side_data)
        with pytest.raises(_RootBuilt):
            _recursive_bipartition(fab, design, cands, "vertical")
    (model,) = built
    return model, split


def test_scaling_root_splits_each_shared_list_once(scaling_root):
    """The 50 members of the scaling root share 23 candidate lists, so the
    halving splits 23 groups tuples, one per list."""
    model, split = scaling_root
    assert len(model_members(model)) == 50
    assert len(split) == len(set(split)) == 23


def large_seed(model):
    """The seed ``_solve_bqp`` searches from beyond ``EXACT_LIMIT``."""
    seed = _repair(model, _greedy_assignment(model))
    return None if seed is None else _local_search(model, seed)


def test_settled_interconnect_bound_prunes_scaling_root(monkeypatch, scaling_root):
    """The scaling root has 50 variables. From the seed alone, a search
    bounded by the linear costs needs 66,258 nodes to finish; bounding by
    the pair costs to settled modules as well finishes in 19,586, and
    fixing variables by reduced cost too in 4,976. Bounded by the packed
    assignment too, which costs 0, it finishes in 1,410 (10,768 without
    fixing), with the same assignment."""
    model, _ = scaling_root
    assert len(model.variables) == 50
    bits, nodes = _solve_branch_and_bound(model, large_seed(model), bipartition.NODE_BUDGET)
    assert nodes == 4_976
    assert _objective_of(model, _packed_assignment(model)) == 0
    searches = record_searches(monkeypatch)
    full = _solve_bqp(model)
    assert full == dict(zip(model.variables, bits))
    assert searches == [(50, 1_410)]
    monkeypatch.setattr(bipartition, "NODE_BUDGET", 1_410)
    assert _solve_bqp(model) == full


def test_spent_packed_bound_falls_back_to_the_unbounded_search(monkeypatch, scaling_root):
    """Under a node budget the bounded root search cannot finish within,
    ``_solve_bqp`` returns what the search from the seed alone returns
    under that budget. The one search call spends the budget bounded and
    then the budget again from the seed alone, which needs 4,976 nodes to
    finish."""
    model, _ = scaling_root
    monkeypatch.setattr(bipartition, "NODE_BUDGET", 1_000)
    bits, nodes = _solve_branch_and_bound(model, large_seed(model), 1_000)
    assert bits is not None and nodes == 1_000
    searches = record_searches(monkeypatch)
    assert _solve_bqp(model) == dict(zip(model.variables, bits))
    assert searches == [(50, 2_000)]


def record_searches(monkeypatch):
    """Patch the halving search to log ``(variables, nodes)`` per call."""
    search = bipartition._solve_branch_and_bound
    searches = []

    def recording_search(model, seed, node_budget, upper=None):
        bits, nodes = search(model, seed, node_budget, upper)
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


# The node counts below move only down, and only with a pruning rule that
# leaves every assignment, document and solver-log record as it was; a
# change that only makes the search loop faster keeps every one. The
# scaling root's went 19,586 -> 10,768 with the packed bound and 10,768 ->
# 1,410 with reduced-cost fixing, which also took the last search, of 17
# variables, from 114 to 64 nodes. Fixing runs only in searches that start
# with a value to beat, so the exact searches of the fx70t designs keep
# their counts.

def test_scaling_search_node_counts_are_pinned(monkeypatch):
    searches = anchor_searches(monkeypatch, "xc7k410t.fabric", (50, (0.8, 0.3, 0.3), 50))
    assert searches == [
        (50, 1410), (19, 2), (5, 10), (5, 10), (2, 4), (3, 6), (14, 138), (7, 28),
        (3, 8), (31, 2), (16, 176), (8, 154), (8, 250), (15, 492), (8, 136), (4, 8),
        (2, 4), (7, 138), (50, 2), (33, 2), (21, 2), (17, 64),
    ]
    assert sum(nodes for _, nodes in searches) == 3_046


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
        "l": summarized([cand(Rect(0, 0, 0, 0))]),
        "r": summarized([cand(Rect(0, 3, 0, 3))]),
    }
    anchors = _recursive_bipartition(fab, design, cands, "vertical")
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
        "big": summarized([cand(Rect(0, 2, 0, 5), ResourceVector(4, 0, 0))]),
        "l": summarized([cand(Rect(0, 0, 0, 0))]),
        "r": summarized([cand(Rect(0, 7, 0, 7))]),
    }
    anchors = _recursive_bipartition(fab, design, cands, "vertical")
    assert anchors["big"] == (4.0, 0.5)
    assert anchors["l"][0] < 4.0 < anchors["r"][0]


def test_capacity_forces_modules_apart():
    fab = parse_fabric("rows 1\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(2, 0, 0)), ModuleSpec("b", ResourceVector(2, 0, 0))],
        [Connection("a", "b", 64)],
    )
    cands = generate_placements(fab, design, ar_bounds=None)
    anchors = _recursive_bipartition(fab, design, cands, "vertical")
    assert anchors["a"] != anchors["b"]
    assert {anchors["a"], anchors["b"]} == {(1.0, 0.5), (3.0, 0.5)}


def test_connected_modules_gather_on_one_side():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))],
        [Connection("a", "b", 64)],
    )
    cands = generate_placements(fab, design, ar_bounds=None)
    anchors = _recursive_bipartition(fab, design, cands, "vertical")
    # the halving bottoms out at single-column children whose capacity
    # forces the pair apart, but both stay inside the root's left half
    assert anchors["a"][0] < 4.0
    assert anchors["b"][0] < 4.0
    assert abs(anchors["a"][0] - anchors["b"][0]) == 1.0


# a and b only fit the left half of the device, c and d only the right one
FOUR_FORCED = {
    "a": summarized([cand(Rect(0, 0, 0, 0))]),
    "b": summarized([cand(Rect(0, 1, 0, 1))]),
    "c": summarized([cand(Rect(0, 6, 0, 6))]),
    "d": summarized([cand(Rect(0, 7, 0, 7))]),
}


def four_forced():
    fab = parse_fabric("rows 1\ncolumns CCCCCCCC\n")
    design = Design([ModuleSpec(m, ResourceVector(1, 0, 0)) for m in "abcd"])
    return fab, design


def model_members(model):
    return {*model.variables, *model.fixed, *model.parent_only}


def fail_halvings(monkeypatch, failing, how):
    """Make every halving whose members are exactly ``failing`` fail, by
    ``_solve_bqp`` or ``_build_bqp`` returning None; returns the members
    of every model built."""
    build, solve = bipartition._build_bqp, bipartition._solve_bqp
    built = []

    def failing_build(*args):
        model = build(*args)
        built.append(model_members(model))
        if how == "build" and built[-1] == failing:
            return None
        return model

    def failing_solve(model):
        if how == "solve" and model_members(model) == failing:
            return None
        return solve(model)

    monkeypatch.setattr(bipartition, "_build_bqp", failing_build)
    monkeypatch.setattr(bipartition, "_solve_bqp", failing_solve)
    return built


# (the pass whose device-root halving fails, or None when the right
# half's halving fails; how it fails)
FAILED_HALVINGS = [pytest.param(None, how, id=how) for how in ("solve", "build")] + [
    pytest.param(axis, how, id=f"{axis}-root-{how}")
    for axis in ("vertical", "horizontal")
    for how in ("solve", "build")
]


@pytest.mark.parametrize(("root", "how"), FAILED_HALVINGS)
def test_failed_halving_keeps_members_at_its_center(monkeypatch, root, how):
    """A failed halving's members keep its center, nothing is halved
    inside it and the log has no record for it. When the right half's
    halving fails, the left half is halved on; when the device root's
    fails, in either pass, every anchor stays at the device center and
    the pass ends without an error."""
    if root is not None:
        fab = parse_fabric("rows 8\ncolumns CCCCCCCC\n")
        design = Design([ModuleSpec(m, ResourceVector(1, 0, 0)) for m in "ab"])
        cands = generate_placements(fab, design, ar_bounds=None)
        built = fail_halvings(monkeypatch, {"a", "b"}, how)
        log = io.StringIO()
        anchors = _recursive_bipartition(fab, design, cands, root, log)
        assert anchors == dict.fromkeys("ab", fab.bounds.center)
        assert built == [{"a", "b"}]
        assert log.getvalue() == ""
        return
    fab, design = four_forced()
    built = fail_halvings(monkeypatch, {"c", "d"}, how)
    log = io.StringIO()
    anchors = _recursive_bipartition(fab, design, FOUR_FORCED, "vertical", log)
    assert anchors == {"a": (0.5, 0.5), "b": (1.5, 0.5), "c": (6.0, 0.5), "d": (6.0, 0.5)}
    assert built.count({"c", "d"}) == 1
    assert not any(members & {"c", "d"} for members in built[built.index({"c", "d"}) + 1:])
    rects = [json.loads(line)["rect"] for line in log.getvalue().splitlines()]
    assert [0, 0, 0, 7] in rects and [0, 0, 0, 3] in rects
    assert [0, 4, 0, 7] not in rects


def test_compute_anchors_combines_axes():
    fab = parse_fabric("rows 4\ncolumns CCCC\n")
    design = Design(
        [ModuleSpec("a", ResourceVector(1, 0, 0)), ModuleSpec("b", ResourceVector(1, 0, 0))]
    )
    cands = {
        "a": summarized([cand(Rect(0, 0, 0, 0))]),  # bottom-left corner
        "b": summarized([cand(Rect(3, 3, 3, 3))]),  # top-right corner
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
