"""Differential properties: the fast tessellation, halving and placement
paths against the plain step-by-step reference versions in ``helpers``."""

import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tilefp import place
from tilefp.bipartition import Partition, side_data, split_partition
from tilefp.design import ModuleSpec
from tilefp.fabric import Fabric, Rect, ResourceKind, ResourceVector
from tilefp.place import (
    PlacementInfeasibleError,
    PlacementTimeoutError,
    _Overlaps,
    trial_and_error_place,
)
from tilefp.tessellation import (
    InfeasibleModuleError,
    PlacementCandidate,
    _columns_outward,
    _nearest_column,
    base_kernels_for_row,
    expand_horizontal,
    generate_module_placements,
    kind_order,
    merge_row_kernels,
)

from helpers import (
    columns_outward_walk,
    dfs_place_walk,
    expand_horizontal_walk,
    merge_row_kernels_walk,
    module_placements_walk,
    overlap_side,
    two_phase_place_walk,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

kinds = st.sampled_from(list(ResourceKind))


@st.composite
def rects_in(draw, rows, cols):
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0, rows - 1))
    c0 = draw(st.integers(0, cols - 1))
    c1 = draw(st.integers(c0, cols - 1))
    return Rect(r0, c0, r1, c1)


@st.composite
def fabrics(draw, max_rows=5, max_cols=16):
    rows = draw(st.integers(1, max_rows))
    columns = draw(st.text(alphabet="CBD", min_size=1, max_size=max_cols))
    reserved = draw(st.lists(rects_in(rows, len(columns)), max_size=2))
    return Fabric(rows, columns, reserved)


@PROPERTY
@given(fabrics(), kinds, st.one_of(st.none(), kinds))
def test_columns_outward_matches_walk(fab, target, blocked):
    for start in range(fab.cols):
        for step in (-1, +1):
            assert list(_columns_outward(fab, start, step, target, blocked)) == (
                columns_outward_walk(fab, start, step, target, blocked)
            )


@PROPERTY
@given(st.lists(st.integers(0, 30), unique=True), st.integers(-2, 32))
def test_nearest_column_matches_scan(columns, col):
    columns = tuple(sorted(columns))
    expected = min(columns, key=lambda c: (abs(c - col), c)) if columns else None
    assert _nearest_column(columns, col) == expected


@PROPERTY
@given(st.data())
def test_expand_horizontal_matches_walk(data):
    fab = data.draw(fabrics())
    kernel = data.draw(rects_in(fab.rows, fab.cols))
    needed = data.draw(st.integers(0, fab.rows * fab.cols))
    target = data.draw(kinds)
    blocked = data.draw(st.one_of(st.none(), kinds))
    expected = expand_horizontal_walk(fab, kernel, needed, target, blocked)
    # rects emitted earlier are only ever free ones
    seen = set(data.draw(st.lists(st.sampled_from(expected)))) if expected else set()
    before = set(seen)
    grown, free_row1 = expand_horizontal(fab, kernel, needed, target, blocked, seen)
    assert grown == [k for k in expected if k not in before]
    assert free_row1 == max((k.row1 for k in expected), default=-1)
    assert seen == before | set(expected)
    # each stage emits only rects that hold its kind's need
    assert all(fab.resources_in_rect(k).of(target) >= needed for k in expected)


requirements = st.builds(
    ResourceVector, st.integers(0, 8), st.integers(0, 3), st.integers(0, 3)
).filter(lambda req: req.total > 0)


@PROPERTY
@given(st.data())
def test_merge_row_kernels_matches_walk(data):
    fab = data.draw(fabrics(max_cols=20))
    row = data.draw(st.integers(0, fab.rows - 1))
    kinds = kind_order(data.draw(requirements))
    kernels = base_kernels_for_row(fab, row, kinds)
    needed = data.draw(st.integers(0, len(fab.columns_of(kinds[0])) + 1))
    assert merge_row_kernels(fab, kernels, needed, kinds[0]) == (
        merge_row_kernels_walk(fab, kernels, needed, kinds[0])
    )


ar_windows = st.one_of(
    st.none(),
    st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2).map(lambda w: (min(w), max(w))),
)


@PROPERTY
@given(fabrics(), requirements, ar_windows)
# The DSP-blocked CLB walk from each two-row DSP rect reaches only the rect
# that the walk from the one-row kernel at its foot already emitted while
# growing upward. That is not "no free split", so the walk must not be
# redone unblocked.
@example(Fabric(2, "CDCDC"), ResourceVector(4, 0, 1), None)
# The DSP-blocked CLB walk from the one-row rect on DSP column 4 has a free
# split only at height 1, since the CLB tile to its right is reserved one
# row up. The same span two rows tall finds none, falls back and crosses
# DSP column 3. Skipping every taller kernel over a span already grown
# would lose that candidate.
@example(Fabric(2, "DCCDDC", [Rect(1, 5, 1, 5)]), ResourceVector(1, 0, 1), None)
def test_module_placements_match_walk(fab, req, ar_bounds):
    module = ModuleSpec("m", req)
    try:
        expected = module_placements_walk(fab, module, ar_bounds)
    except InfeasibleModuleError as exc:
        with pytest.raises(InfeasibleModuleError, match=f"^{re.escape(str(exc))}$"):
            generate_module_placements(fab, module, ar_bounds)
        return
    assert generate_module_placements(fab, module, ar_bounds) == expected


@PROPERTY
@given(st.data())
def test_side_data_split_matches_overlap_side(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 12))
    fab = Fabric(rows, "C" * cols)
    axes = [a for a, span in (("vertical", cols), ("horizontal", rows)) if span >= 2]
    if not axes:
        return
    axis = data.draw(st.sampled_from(axes))
    parent_rect = data.draw(rects_in(rows, cols).filter(
        lambda r: (r.width if axis == "vertical" else r.height) >= 2
    ))
    parent = Partition(parent_rect, ("m",), fab.available_in_rect(parent_rect))
    child0, child1 = split_partition(parent, axis, fab)
    cands = [
        PlacementCandidate(r, fab.resources_in_rect(r), 0)
        for r in data.draw(st.lists(rects_in(rows, cols), max_size=12))
    ]
    module = ModuleSpec("m", ResourceVector(1, 0, 0))
    split = side_data(module, cands, child0, child1, axis)
    for side, placements in ((0, split.placements0), (1, split.placements1)):
        expected = [
            c for c in cands if overlap_side(c.rect, child0.rect, child1.rect) == side
        ]
        assert list(placements) == expected
    # each candidate alone is forced to the side it lands on, or keeps to
    # the parent when it lands on neither
    for c in cands:
        alone = side_data(module, [c], child0, child1, axis)
        assert alone.forced_side == overlap_side(c.rect, child0.rect, child1.rect)


# Longest candidate list per module count: the whole depth-first tree then
# has at most 780 nodes, within phase 1's budget, so phase 1 alone decides.
PLACER_LIST_MAX = {2: 12, 3: 8, 4: 5, 5: 3}


@st.composite
def small_rects_in(draw, rows, cols):
    """Rects of at most 2 rows by 3 columns, so that several fit side by side."""
    r0 = draw(st.integers(0, rows - 1))
    c0 = draw(st.integers(0, cols - 1))
    r1 = min(rows - 1, r0 + draw(st.integers(0, 1)))
    c1 = min(cols - 1, c0 + draw(st.integers(0, 2)))
    return Rect(r0, c0, r1, c1)


@st.composite
def placer_inputs(draw):
    """A small fabric with reserved rects, and 2-5 modules' ordered candidates."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(4, 10))
    fab = Fabric(rows, "C" * cols, draw(st.lists(small_rects_in(rows, cols), max_size=2)))
    n = draw(st.integers(2, 5))
    lists = draw(st.lists(
        st.lists(small_rects_in(rows, cols), min_size=2, max_size=PLACER_LIST_MAX[n]),
        min_size=n, max_size=n,
    ))
    candidates = {
        f"m{k}": [PlacementCandidate(r, ResourceVector(), 0) for r in rects]
        for k, rects in enumerate(lists)
    }
    return fab, list(candidates), candidates


def tree_nodes(lists):
    """Nodes of the full depth-first tree over ``lists``, root excluded."""
    total, width = 0, 1
    for options in lists:
        width *= len(options)
        total += width
    return total


@PROPERTY
@given(placer_inputs())
def test_placer_matches_depth_first_walk(inputs):
    fab, order, candidates = inputs
    assert tree_nodes(candidates.values()) <= place.FORWARD_CHECK_NODES
    try:
        expected, _ = dfs_place_walk(fab, order, candidates, None)
    except PlacementInfeasibleError:
        with pytest.raises(PlacementInfeasibleError):
            trial_and_error_place(fab, order, candidates, None)
        return
    rects, _ = trial_and_error_place(fab, order, candidates, None)
    assert rects == expected
    assert list(rects) == order


@PROPERTY
@given(placer_inputs())
def test_fail_first_phase_agrees_with_walk_on_feasibility(inputs):
    fab, order, candidates = inputs
    try:
        dfs_place_walk(fab, order, candidates, None)
        feasible = True
    except PlacementInfeasibleError:
        feasible = False
    # no phase 1 nodes: phase 2 decides alone
    with mock.patch.object(place, "FORWARD_CHECK_NODES", 0):
        if not feasible:
            with pytest.raises(PlacementInfeasibleError):
                trial_and_error_place(fab, order, candidates, None)
            return
        rects, _ = trial_and_error_place(fab, order, candidates, None)
    assert list(rects) == order
    for module_id, rect in rects.items():
        assert rect in {c.rect for c in candidates[module_id]}
    placed = list(rects.values())
    assert all(fab.is_free_rect(rect, placed[:i]) for i, rect in enumerate(placed))


def unit_candidates(*lists):
    """Modules m0, m1, ... with candidates on the given rects, in order."""
    return {
        f"m{k}": [PlacementCandidate(r, ResourceVector(), 0) for r in rects]
        for k, rects in enumerate(lists)
    }


@st.composite
def loose_rects_in(draw, rows, cols):
    """Rects of at most 2 rows by 3 columns that may stick out of the device
    by a tile on any side; some are upside down."""
    r0 = draw(st.integers(-1, rows))
    c0 = draw(st.integers(-1, cols))
    return Rect(r0, c0, r0 + draw(st.integers(-1, 1)), c0 + draw(st.integers(0, 2)))


@st.composite
def two_phase_inputs(draw):
    """Small fabric with reserved rects, 2-6 modules' ordered candidates
    (some outside the device), node budgets small enough that phase 2 and
    the node limit are reached, and sometimes a spent time budget."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(4, 8))
    fab = Fabric(rows, "C" * cols, draw(st.lists(small_rects_in(rows, cols), max_size=1)))
    n = draw(st.integers(2, 6))
    inside = small_rects_in(rows, cols)
    lists = draw(st.lists(
        st.lists(st.one_of(inside, inside, inside, loose_rects_in(rows, cols)),
                 min_size=3, max_size=10),
        min_size=n, max_size=n,
    ))
    candidates = unit_candidates(*lists)
    budgets = (draw(st.integers(0, 40)), draw(st.integers(0, 60)))
    time_budget = draw(st.sampled_from([None] * 5 + [0.0]))
    return fab, list(candidates), candidates, budgets, time_budget


def place_outcome(placer, fab, order, candidates, budgets, time_budget):
    """The placer's rects, their key order and backtracks, or the exception's
    type, fields and message, under the given node budgets."""
    forward, fail_first = budgets
    with mock.patch.object(place, "FORWARD_CHECK_NODES", forward), \
            mock.patch.object(place, "FAIL_FIRST_NODES", fail_first):
        try:
            rects, backtracks = placer(fab, order, candidates, time_budget)
        except (PlacementInfeasibleError, PlacementTimeoutError) as exc:
            return type(exc), vars(exc), str(exc)
    return rects, list(rects), backtracks


TWO_FREE_PAIRS = unit_candidates(
    [Rect(0, 0, 0, 0), Rect(0, 1, 0, 1)], [Rect(0, 2, 0, 2), Rect(0, 3, 0, 3)]
)


@PROPERTY
@given(two_phase_inputs())
# phase 1 spends its one node on an accepted placement and phase 2 has
# none: the timeout counts that placement
@example((Fabric(1, "CCCC"), ["m0", "m1"], TWO_FREE_PAIRS, (1, 0), None))
def test_placer_matches_two_phase_oracle(inputs):
    expected = place_outcome(two_phase_place_walk, *inputs)
    assert place_outcome(trial_and_error_place, *inputs) == expected


# Row and column counts: 1-row and 1-column devices, perfect squares and
# their neighbours, the 158 columns of xc7k410t, and 255-257 around the
# 256 rows and columns up to which the index keeps coordinates in bytes.
SIZES = [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 44, 158, 255, 256, 257]


@st.composite
def index_inputs(draw):
    """A fabric, candidate rects that may leave it or be upside down, and
    probe rects inside it."""
    rows, cols = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    fab = Fabric(rows, "C" * cols, draw(st.lists(rects_in(rows, cols), max_size=2)))

    def coordinate(size):
        return st.one_of(st.integers(0, size - 1), st.integers(-2, size + 1))

    rects = draw(st.lists(st.builds(
        Rect, coordinate(rows), coordinate(cols), coordinate(rows), coordinate(cols)
    ), max_size=30))
    return fab, rects, draw(st.lists(rects_in(rows, cols), min_size=1, max_size=5))


@PROPERTY
@given(index_inputs())
# past 256 columns the index compares ints: col0 200 <= probe col1 256
@example((Fabric(1, "C" * 257), [Rect(0, 200, 0, 200)], [Rect(0, 100, 0, 256)]))
def test_overlap_index_matches_rect_overlaps(inputs):
    fab, rects, probes = inputs
    index = _Overlaps([PlacementCandidate(r, ResourceVector(), 0) for r in rects], fab)

    def bitset(indices):
        return sum(1 << j for j in set(indices))

    assert index.free == bitset(
        j for j, rect in enumerate(rects)
        if 0 <= rect.row0 <= rect.row1 < fab.rows and 0 <= rect.col0 <= rect.col1 < fab.cols
        and not fab.reserved_tiles_in(rect)
    )
    for probe in probes:
        assert index(probe) == bitset(j for j, r in enumerate(rects) if r.overlaps(probe))
