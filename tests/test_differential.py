"""Differential properties: the fast tessellation, halving and placement
paths against the plain step-by-step reference versions in ``helpers``."""

import math
import operator
import re
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tilefp import bipartition, place
from tilefp.bipartition import (
    EXACT_LIMIT,
    _BqpModel,
    _SideData,
    _build_bqp,
    _greedy_assignment,
    _local_search,
    _packed_assignment,
    _repair,
    _side_data,
    _solve_bqp,
    _solve_branch_and_bound,
    _split_partition,
)
from tilefp.design import Connection, Design, ModuleSpec
from tilefp.fabric import Fabric, Rect, ResourceKind, ResourceVector, parse_fabric
from tilefp.place import (
    PlacementInfeasibleError,
    PlacementTimeoutError,
    _Overlaps,
    normalize_candidates,
    order_modules,
    run_floorplan,
    trial_and_error_place,
    write_floorplan,
)
from tilefp.tessellation import (
    InfeasibleModuleError,
    _columns_outward,
    _expand_horizontal,
    _generate_module_placements,
    _merge_row_kernels,
    _nearest_column,
    generate_placements,
)
from tilefp.validate import validate_floorplan

from helpers import (
    Candidate,
    as_columns,
    aspect_ratio,
    base_kernels_walk,
    branch_and_bound_walk,
    candidate_records,
    capacity_holds_walk,
    columns_outward_walk,
    coordinate_sums_walk,
    cut_cost_walk,
    dfs_place_walk,
    expand_horizontal_walk,
    external_cut_cost,
    is_free_rect,
    kind_order_walk,
    local_search_walk,
    merge_row_kernels_walk,
    module_placements_walk,
    normalize_candidates_walk,
    objective_walk,
    overlap_side,
    pair_cut_cost,
    resources_in_rect,
    side_data_walk,
    span_groups_walk,
    summarized,
    tie_order_walk,
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
def fabrics(draw, max_rows=5, max_cols=16, frames=st.none()):
    rows = draw(st.integers(1, max_rows))
    columns = draw(st.text(alphabet="CBD", min_size=1, max_size=max_cols))
    reserved = draw(st.lists(rects_in(rows, len(columns)), max_size=2))
    return Fabric(rows, columns, reserved, draw(frames))


# frames per tile of each kind, from 1 up to 10**23, whose sums leave every
# machine integer behind
frame_weights = st.fixed_dictionaries(
    {kind: st.one_of(st.integers(1, 40), st.just(10**23)) for kind in ResourceKind}
)


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


ar_windows = st.one_of(
    st.none(),
    st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2).map(lambda w: (min(w), max(w))),
)


@PROPERTY
@given(st.data())
def test_expand_horizontal_matches_walk(data):
    """Kernels of one stage walk in turn, as ``_expand_or_cross`` walks
    them, with one shared split table and one shared ``seen``: each emits
    the reference walk's rects less those seen before. The kernels share a
    few column spans at several rows, blocked and unblocked, so the table's
    entries are reused across rows, heights and fallbacks. Under an
    aspect-ratio window the rects that misfit it are left out, of the
    walk's output and of ``seen``, and the highest free row1 stays the
    reference walk's."""
    fab = data.draw(fabrics())
    needed = data.draw(st.integers(0, fab.rows * fab.cols))
    target = data.draw(kinds)
    spans = data.draw(st.lists(rects_in(1, fab.cols), min_size=1, max_size=3))
    ar_bounds = data.draw(ar_windows)
    seen, splits = None, {}
    for _ in range(data.draw(st.integers(1, 6))):
        span = data.draw(st.sampled_from(spans))
        row0 = data.draw(st.integers(0, fab.rows - 1))
        kernel = Rect(row0, span.col0, data.draw(st.integers(row0, fab.rows - 1)), span.col1)
        blocked = data.draw(st.one_of(st.none(), kinds))
        expected = expand_horizontal_walk(fab, kernel, needed, target, blocked)
        fitting = [
            k for k in expected
            if ar_bounds is None or ar_bounds[0] <= aspect_ratio(k) <= ar_bounds[1]
        ]
        if seen is None:
            # rects emitted earlier are only ever free ones that fit
            seen = set(data.draw(st.lists(st.sampled_from(fitting)))) if fitting else set()
        before = set(seen)
        grown, free_row1 = _expand_horizontal(
            fab, kernel, needed, target, blocked, seen, splits, ar_bounds
        )
        assert grown == [k for k in fitting if k not in before]
        assert free_row1 == max((k.row1 for k in expected), default=-1)
        assert seen == before | set(fitting)
        # each stage emits only rects that hold its kind's need
        assert all(resources_in_rect(fab, k).of(target) >= needed for k in expected)


requirements = st.builds(
    ResourceVector, st.integers(0, 8), st.integers(0, 3), st.integers(0, 3)
).filter(lambda req: req.total > 0)


@PROPERTY
@given(st.data())
def test_merge_row_kernels_matches_walk(data):
    fab = data.draw(fabrics(max_cols=20))
    row = data.draw(st.integers(0, fab.rows - 1))
    kinds = kind_order_walk(data.draw(requirements))
    kernels = base_kernels_walk(fab, row, kinds)
    needed = data.draw(st.integers(0, len(fab.columns_of(kinds[0])) + 1))
    assert _merge_row_kernels(fab, kernels, needed, kinds[0]) == (
        merge_row_kernels_walk(fab, kernels, needed, kinds[0])
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
# A paired module walks every kernel both ways. Here the DSP at column 8
# pairs with no BRAM, since its nearest one at column 9 is reserved, and
# falls back to the bare tile. Its split reaching two DSP columns left,
# (0, 3, 0, 8), is no l = 0 split of an earlier kernel: the DSP at column
# 3 is paired with the BRAM at column 2, not bare. The rightward-only rule
# of an unpaired module's closed form would lose that candidate here.
@example(Fabric(1, "CDBDDCBCDBDB", [Rect(0, 9, 0, 9)]), ResourceVector(2, 1, 3), None)
# The last stage tests the window before it builds a rect. The DSP-blocked
# CLB walk from (0, 1, 0, 1) reaches one CLB column, too few at height 1;
# at height 2 its one split, (0, 0, 1, 1), is free but square, a misfit.
# A free misfit is still a free split, so the walk must not fall back and
# cross DSP column 2 to (0, 1, 1, 3), 3 wide by 2 tall, which would fit.
@example(Fabric(2, "CDDC"), ResourceVector(2, 0, 1), (1.5, 2.5))
# The BRAM-blocked CLB walk from the three-row kernel on BRAM column 2 has
# one split, (0, 2, 2, 3): it misfits and holds the reserved tile (2, 3).
# A misfit over a reserved tile is no free split, so the walk falls back
# and crosses BRAM column 1 to (0, 0, 2, 2), which fits.
@example(Fabric(3, "CBBC", [Rect(2, 3, 2, 3)]), ResourceVector(1, 1, 0), (1.0, 1.0))
# The one rect of a paired module, 3 wide by 1 tall, misfits: the window,
# not the fabric, is to blame.
@example(Fabric(1, "DBC"), ResourceVector(1, 1, 1), (0.2, 0.7))
def test_module_placements_match_walk(fab, req, ar_bounds):
    module = ModuleSpec("m", req)
    try:
        expected = module_placements_walk(fab, module, ar_bounds)
    except InfeasibleModuleError as exc:
        with pytest.raises(InfeasibleModuleError, match=f"^{re.escape(str(exc))}$"):
            _generate_module_placements(fab, module, ar_bounds)
        return
    got = _generate_module_placements(fab, module, ar_bounds)
    assert (list(got), got.wastage) == as_columns(expected)


@st.composite
def unpaired_requirements(draw):
    """A fabric and a requirement that pairs no DSP with BRAM: a first kind
    needed from 1 to its column count + 2 (to 3x the columns for CLB), and
    a CLB need from 0 to 3x the columns when CLB is not first."""
    fab = draw(fabrics(max_cols=20))
    first = draw(kinds)
    top = 3 * fab.cols if first is ResourceKind.CLB else len(fab.columns_of(first)) + 2
    need = draw(st.integers(1, top))
    clb = need if first is ResourceKind.CLB else draw(st.integers(0, 3 * fab.cols))
    counts = {ResourceKind.CLB: clb, first: need}
    return fab, ResourceVector(*(counts.get(kind, 0) for kind in ResourceKind))


# three first kinds, each with as many examples as CLB alone once had
@settings(PROPERTY, max_examples=900)
@given(unpaired_requirements(), ar_windows)
# need 1: every bare kernel suffices, so no row span is merged
@example((Fabric(2, "CBC", [Rect(1, 0, 1, 0)]), ResourceVector(1, 0, 0)), None)
@example((Fabric(2, "CBCB", [Rect(1, 1, 1, 1)]), ResourceVector(2, 1, 0)), None)
# no column of the first kind: no kernel, nothing covers, and the error
# has no reason
@example((Fabric(2, "BD"), ResourceVector(2, 0, 0)), None)
@example((Fabric(2, "CB"), ResourceVector(1, 0, 1)), None)
# the row-0 span from column 0 ends on its 3rd column of the first kind,
# which is reserved: the walk's merge runs on to column 4 (5 for BRAM) and
# drops the span
@example((Fabric(2, "CCBCC", [Rect(0, 3, 0, 3)]), ResourceVector(3, 0, 0)), None)
@example((Fabric(2, "BCBBCB", [Rect(0, 3, 0, 3)]), ResourceVector(2, 3, 0)), None)
# the row-0 span between the two DSP columns holds a reserved CLB tile,
# so only the row-1 span grows taller
@example((Fabric(3, "DCD", [Rect(0, 1, 0, 1)]), ResourceVector(1, 0, 2)), None)
# the reserved tile above the bare kernel on column 1 stops its growth,
# while the kernel on column 0 still emits its taller rects
@example((Fabric(3, "CCC", [Rect(1, 1, 1, 1)]), ResourceVector(2, 0, 0)), None)
# every rect of a CLB-only module misfits, so the window is to blame
@example((Fabric(1, "CC"), ResourceVector(2, 0, 0)), (0.2, 0.7))
def test_one_kind_placements_match_walk(case, ar_bounds):
    fab, req = case
    module = ModuleSpec("m", req)
    try:
        expected = module_placements_walk(fab, module, ar_bounds)
    except InfeasibleModuleError as exc:
        with pytest.raises(InfeasibleModuleError, match=f"^{re.escape(str(exc))}$"):
            _generate_module_placements(fab, module, ar_bounds)
        return
    got = _generate_module_placements(fab, module, ar_bounds)
    assert (list(got), got.wastage) == as_columns(expected)


@PROPERTY
@given(fabrics(frames=frame_weights), requirements, ar_windows)
# a one-candidate list
@example(Fabric(1, "C"), ResourceVector(1, 0, 0), None)
# columns 0..6 come first two rows tall, from row 0, and only later one
# row tall, from row 1: a span's least height need not be its first rect's
@example(Fabric(2, "DBBDDBC"), ResourceVector(1, 3, 1), None)
# a DSP tile worth 10**23 frames, as in the CLI's huge-frame-weight case
@example(
    Fabric(2, "CCDCCBCCDCCC", frames={ResourceKind.DSP: 10**23}), ResourceVector(3, 1, 1), None
)
# the window keeps the one-tile rects and drops the two-tile-tall ones
@example(Fabric(2, "CC"), ResourceVector(1, 0, 0), (0.9, 1.1))
# over 256 columns: a paired module's rects start on columns 254 to 256
@example(Fabric(2, "C" * 256 + "DBCC", [Rect(1, 100, 1, 100)]), ResourceVector(2, 1, 1), None)
def test_list_summaries_match_walks(fab, req, ar_bounds):
    """The summaries tessellation makes while it prices a list equal walks
    over the finished list: both axes' span groups in first-appearance
    order, the tie order, the largest wastage and the coordinate sums; and
    each wastage is the frames its rect holds beyond the requirement."""
    try:
        cands = _generate_module_placements(fab, ModuleSpec("m", req), ar_bounds)
    except InfeasibleModuleError:
        return
    records = candidate_records(fab, cands)
    weights = [fab.frames[kind] for kind in ResourceKind]
    for c in records:
        held = sum(map(operator.mul, c.resources - req, weights))
        assert c.wastage_frames == held, c
    for axis in ("vertical", "horizontal"):
        assert cands.groups[axis] == span_groups_walk(records, axis)
    assert list(cands.ties) == tie_order_walk(records)
    assert cands.max_waste == max(c.wastage_frames for c in records)
    assert cands.sums == coordinate_sums_walk(records)


# Few distinct coordinates and wastages, so that lists hold equal wastage,
# equal (row0, col0) under different (row1, col1), equal distances and
# whole duplicates; weights from 0 to 1e308, whose objective overflows.
tied_candidates = st.builds(
    lambda r0, c0, dr, dc, waste: Candidate(
        Rect(r0, c0, r0 + dr, c0 + dc), ResourceVector(), waste
    ),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([0, 0, 1, 2, 36, 10**20]),
)
weights = st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e308])


@PROPERTY
@given(
    st.lists(tied_candidates, min_size=1, max_size=24),
    st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])] * 2),
    weights,
    weights,
)
def test_normalize_candidates_matches_walk(cands, anchor, alpha, beta):
    got = normalize_candidates(summarized(cands), anchor, alpha, beta)
    want = normalize_candidates_walk(cands, anchor, alpha, beta)
    assert len(got) == len(want)
    assert all(g is w.rect for g, w in zip(got, want))


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
    child0, child1 = _split_partition(parent_rect, axis)
    cands = [
        Candidate(r, resources_in_rect(fab, r), 0)
        for r in data.draw(st.lists(rects_in(rows, cols), max_size=12))
    ]
    split = side_data_walk("m", cands, child0, child1, axis)
    for side, placements in ((0, split.placements0), (1, split.placements1)):
        expected = [c for c in cands if overlap_side(c.rect, child0, child1) == side]
        assert list(placements) == expected
    # each candidate alone is forced to the side it lands on, or keeps to
    # the parent when it lands on neither
    for c in cands:
        alone = side_data_walk("m", [c], child0, child1, axis)
        assert alone.forced_side == overlap_side(c.rect, child0, child1)


@PROPERTY
@given(
    fabrics(max_rows=6, max_cols=20),
    st.builds(ResourceVector, st.integers(1, 6), st.integers(0, 1), st.integers(0, 1)),
    ar_windows,
    st.data(),
)
def test_side_data_groups_match_walk_down_the_halvings(fab, req, ar_bounds, data):
    """Along random root-to-leaf chains of halvings from the whole device,
    starting from the span groups tessellation attached to the list (which
    equal the walk's), the span-group side data agrees with the
    candidate-wise walk."""
    module = ModuleSpec("m", req)
    try:
        cands = _generate_module_placements(fab, module, ar_bounds)
    except InfeasibleModuleError:
        assume(False)
    for axis in ("vertical", "horizontal"):
        groups = cands.groups[axis]
        members = candidate_records(fab, cands)
        assert groups == span_groups_walk(members, axis)
        assert sum(g[2] for g in groups) == len(cands)
        rect = fab.bounds
        while (rect.width if axis == "vertical" else rect.height) >= 2:
            child0, child1 = _split_partition(rect, axis)
            got = _side_data("m", groups, child0, child1, axis)
            want = side_data_walk("m", members, child0, child1, axis)
            for side in (0, 1):
                got_side = (got.placements0, got.placements1)[side]
                want_side = (want.placements0, want.placements1)[side]
                assert sum(g[2] for g in got_side) == len(want_side)
                assert sorted(got_side) == sorted(span_groups_walk(want_side, axis))
            assert (got.w0, got.w1, got.occ0, got.occ1) == (want.w0, want.w1, want.occ0, want.occ1)
            assert got.forced_side == want.forced_side
            assert got.parent_only == want.parent_only
            sides = [s for s, p in enumerate((want.placements0, want.placements1)) if p]
            if not sides:
                break
            side = data.draw(st.sampled_from(sides))
            groups = (got.placements0, got.placements1)[side]
            members = (want.placements0, want.placements1)[side]
            rect = (child0, child1)[side]


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
    candidates = {f"m{k}": rects for k, rects in enumerate(lists)}
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
        assert rect in candidates[module_id]
    placed = list(rects.values())
    assert all(is_free_rect(fab, rect, placed[:i]) for i, rect in enumerate(placed))


@st.composite
def whole_designs(draw):
    """A fabric document of 1-5 rows by 2-10 columns with 0-2 reserved
    rects, 2-5 modules with each pair connected by 64 signals about two
    times in five, and no aspect-ratio window or the CLI's default one."""
    rows = draw(st.integers(1, 5))
    columns = "".join(draw(st.lists(st.sampled_from("CCCBD"), min_size=2, max_size=10)))
    lines = [f"rows {rows}", f"columns {columns}"]
    for rect in draw(st.lists(rects_in(rows, len(columns)), max_size=2)):
        lines.append("reserved {} {} {} {}".format(*rect))
    modules = [
        ModuleSpec(f"m{i}", ResourceVector(
            draw(st.integers(1, 4)), draw(st.sampled_from((0, 0, 1, 2))),
            draw(st.sampled_from((0, 0, 1))),
        ))
        for i in range(draw(st.integers(2, 5)))
    ]
    connections = [
        Connection(a.id, b.id, 64)
        for a, b in combinations(modules, 2)
        if draw(st.integers(0, 4)) < 2
    ]
    ar_bounds = draw(st.sampled_from([None, (0.2, 0.7)]))
    return "\n".join(lines) + "\n", Design(modules, connections), ar_bounds


@PROPERTY
@given(whole_designs())
def test_pipeline_places_whenever_its_lists_hold_a_floorplan(inputs):
    """The whole pipeline against a plain depth-first walk over its own
    candidate lists. When the walk finds a floorplan, ``run_floorplan``
    returns a valid one or stops on a node budget; when the walk finds
    none, the placer proves it. Anchors only steer the search, so no
    halving may end a run."""
    fabric_text, design, ar_bounds = inputs
    fab = parse_fabric(fabric_text)
    try:
        lists = generate_placements(fab, design, ar_bounds)
    except InfeasibleModuleError:
        with pytest.raises(InfeasibleModuleError):
            run_floorplan(fab, design, ar_bounds, None)
        return
    try:
        dfs_place_walk(fab, order_modules(design, fab), lists, None)
    except PlacementInfeasibleError:
        with pytest.raises(PlacementInfeasibleError):
            run_floorplan(fab, design, ar_bounds, None)
        return
    try:
        plan = run_floorplan(fab, design, ar_bounds, None)
    except PlacementTimeoutError:
        return
    document = write_floorplan(plan, design, fab, design.alpha, design.beta, ar_bounds)
    assert validate_floorplan(document, fabric_text) == []


def unit_candidates(*lists):
    """Modules m0, m1, ... with candidates on the given rects, in order."""
    return {f"m{k}": list(rects) for k, rects in enumerate(lists)}


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
# no modules: an empty floorplan before any node
@example((Fabric(1, "CCCC"), [], {}, (0, 0), None))
# one module, placed by phase 2 alone
@example((Fabric(1, "CCCC"), ["m0"], unit_candidates([Rect(0, 0, 0, 0)]), (0, 1), None))
def test_placer_matches_two_phase_oracle(inputs):
    expected = place_outcome(two_phase_place_walk, *inputs)
    assert place_outcome(trial_and_error_place, *inputs) == expected


@st.composite
def spilling_rects_in(draw, rows, cols):
    """Rects of at most 2 rows by 3 columns with tile coordinates >= 0 that
    may stick out of the device above or to the right; some are upside down."""
    r0, c0 = draw(st.integers(0, rows)), draw(st.integers(0, cols))
    return Rect(r0, c0, max(0, r0 + draw(st.integers(-1, 1))), c0 + draw(st.integers(0, 2)))


# Anchor coordinates: the device's corner, points inside it, and points far
# right of and above it, from which a left-to-right list scores in reverse.
far_anchors = st.tuples(
    st.sampled_from([0.0, 0.5, 2.5, 40.0]), st.sampled_from([0.0, 1.0, 40.0])
)


@st.composite
def shared_list_inputs(draw):
    """2-6 modules drawing their candidate lists from 1-2 list objects, so
    that several modules share one list, each with its own anchor; the
    weights; and node budgets small enough that phase 2 and the node limit
    are reached. A list holds up to 40 candidates, some off the device, so
    that some domains are nearly empty."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(4, 8))
    fab = Fabric(rows, "C" * cols, draw(st.lists(small_rects_in(rows, cols), max_size=1)))
    inside = small_rects_in(rows, cols)
    candidate = st.builds(
        lambda rect, waste: Candidate(rect, ResourceVector(), waste),
        st.one_of(inside, inside, spilling_rects_in(rows, cols)), st.sampled_from([0, 1, 2, 36]),
    )
    lists = draw(st.lists(st.lists(candidate, min_size=1, max_size=40), min_size=1, max_size=2))
    lists = [summarized(options) for options in lists]
    n = draw(st.integers(2, 6))
    candidates = {f"m{k}": draw(st.sampled_from(lists)) for k in range(n)}
    anchors = {module_id: draw(far_anchors) for module_id in candidates}
    alpha, beta = draw(weights), draw(weights)
    budgets = (draw(st.integers(0, 40)), draw(st.integers(0, 60)))
    return fab, candidates, anchors, (alpha, beta), budgets


def in_score_order(candidates, anchors, alpha, beta):
    """Each module's list as ``run_floorplan`` scores it, materialized."""
    ranked = place._rank(candidates, anchors, alpha, beta)
    return {m: [candidates[m][j] for j in ranked[m]] for m in candidates}


def shared_list(rects):
    """One list object of zero-wastage candidates on ``rects``."""
    return summarized([Candidate(r, ResourceVector(), 0) for r in rects])


# Left to right along one row: an anchor far right scores it in reverse.
ROW_OF_FOUR = shared_list([Rect(0, c, 0, c) for c in range(4)])
# Two free candidates among 30 off the device: 2 of 32 bits, so the placer
# reads its domains bit by bit; its scored order puts column 3 before 0.
FEW_FREE = shared_list(
    [Rect(0, 0, 0, 0)] + [Rect(0, 4, 0, 4 + k % 3) for k in range(30)] + [Rect(0, 3, 0, 3)]
)


@PROPERTY
@given(shared_list_inputs())
@example((
    Fabric(1, "CCCC"), {"m0": ROW_OF_FOUR, "m1": ROW_OF_FOUR},
    {"m0": (0.0, 0.0), "m1": (40.0, 0.0)}, (0.0, 1.0), (0, 0),
))
def test_shared_list_scoring_matches_walk(inputs):
    fab, candidates, anchors, (alpha, beta), _ = inputs
    scored = in_score_order(candidates, anchors, alpha, beta)
    for module_id, options in candidates.items():
        records = [Candidate(r, ResourceVector(), w) for r, w in zip(options, options.wastage)]
        want = normalize_candidates_walk(records, anchors[module_id], alpha, beta)
        assert len(scored[module_id]) == len(want)
        assert all(g is w.rect for g, w in zip(scored[module_id], want))


@PROPERTY
@given(shared_list_inputs())
# dense domains: module m1 takes the row in reverse list order
@example((
    Fabric(1, "CCCC"), {"m0": ROW_OF_FOUR, "m1": ROW_OF_FOUR, "m2": ROW_OF_FOUR},
    {"m0": (0.0, 0.0), "m1": (40.0, 0.0), "m2": (0.0, 0.0)}, (0.0, 1.0), (40, 60),
))
# sparse domains, walked in score order against list order
@example((
    Fabric(1, "CCCC"), {"m0": FEW_FREE, "m1": FEW_FREE},
    {"m0": (40.0, 0.0), "m1": (40.0, 0.0)}, (0.0, 1.0), (40, 60),
))
# sparse domains in phase 2 alone
@example((
    Fabric(1, "CCCC"), {"m0": FEW_FREE, "m1": FEW_FREE},
    {"m0": (0.0, 0.0), "m1": (40.0, 0.0)}, (0.0, 1.0), (0, 60),
))
def test_shared_list_placer_matches_two_phase_oracle(inputs):
    """The placer on shared lists, each module walking its own score order,
    agrees with the oracle on the materialized scored lists, and so does
    ``trial_and_error_place`` given those lists."""
    fab, candidates, anchors, (alpha, beta), budgets = inputs
    ranked = place._rank(candidates, anchors, alpha, beta)
    scored = in_score_order(candidates, anchors, alpha, beta)
    order = list(candidates)
    expected = place_outcome(two_phase_place_walk, fab, order, scored, budgets, None)

    def shared(fab, order, _, time_budget):
        return place._place(fab, order, candidates, ranked, time_budget)

    assert place_outcome(shared, fab, order, scored, budgets, None) == expected
    assert place_outcome(trial_and_error_place, fab, order, scored, budgets, None) == expected


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
# a candidate ending one column past the device, every row inside
@example((Fabric(2, "CCCC"), [Rect(0, 0, 0, 1), Rect(0, 2, 1, 4)], [Rect(0, 0, 0, 0)]))
# an upside-down candidate, every coordinate inside the device
@example((Fabric(2, "CCCC"), [Rect(0, 0, 0, 0), Rect(1, 0, 0, 0)], [Rect(0, 0, 1, 3)]))
# a candidate ending one row past the device, every column inside
@example((Fabric(2, "CCCC"), [Rect(0, 0, 1, 0), Rect(0, 0, 2, 0)], [Rect(1, 0, 1, 0)]))
def test_overlap_index_matches_rect_overlaps(inputs):
    fab, rects, probes = inputs
    index = _Overlaps(rects, fab)

    def bitset(indices):
        return sum(1 << j for j in set(indices))

    assert index.free == bitset(
        j for j, rect in enumerate(rects)
        if 0 <= rect.row0 <= rect.row1 < fab.rows and 0 <= rect.col0 <= rect.col1 < fab.cols
        and not fab.reserved_tiles_in(rect)
    )
    for probe in probes:
        assert index(probe) == bitset(j for j, r in enumerate(rects) if r.overlaps(probe))


@st.composite
def byte_pairs(draw):
    """Equal-length byte strings ``lo`` and ``hi``, ``hi >= lo`` at every
    position in about half the draws, with 0, 255 and equal bytes common."""
    octets = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
    lo = draw(st.lists(octets, max_size=40))
    if draw(st.booleans()):
        hi = [draw(st.one_of(st.sampled_from([x, 255]), st.integers(x, 255))) for x in lo]
    else:
        hi = draw(st.lists(octets, min_size=len(lo), max_size=len(lo)))
    return bytes(lo), bytes(hi)


@PROPERTY
@given(byte_pairs())
@example((b"", b""))
@example((b"\x00\xff", b"\x00\xff"))
@example((b"\x01\x00", b"\x00\xff"))
def test_lane_order_check_matches_pairwise_comparison(pair):
    lo, hi = pair
    assert place._ordered(lo, hi) == all(map(operator.le, lo, hi))


# --- side-assignment search ------------------------------------------------

BQP_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Mean extents as ``_build_bqp`` takes them from span groups: ratios of small
# integers, here sums of thirds and sevenths. Many assignments then cost the
# same in exact arithmetic and differ only in float rounding.
extents = st.builds(lambda a, b: a / 3 + b / 7, st.integers(1, 6), st.integers(0, 6))


@st.composite
def fractional_bqp_models(draw, min_vars, max_vars):
    """Models priced the way ``_build_bqp`` prices them: each variable has a
    mean extent per side, a few connections to settled modules make its
    linear costs and connections between variables make the pair corners.
    Capacity ranges from tight, where many flips overflow a side, to the
    mild pressure of ``helpers.random_bqp_model``."""
    n = draw(st.integers(min_vars, max_vars))
    w = [(draw(extents), draw(extents)) for _ in range(n)]
    linear = []
    for w0, w1 in w:
        row = [0.0, 0.0]
        for _ in range(draw(st.integers(0, 2))):
            signals, side, w_e = draw(st.integers(1, 8)), draw(st.integers(0, 1)), draw(extents)
            for v in (0, 1):
                row[v] += external_cut_cost(signals, v, w0, w1, side, w_e)
        linear.append(tuple(row))
    pairs = {}
    for i, j in combinations(range(n), 2):
        if draw(st.integers(0, 9)) < 3:
            signals = draw(st.integers(1, 8))
            pairs[(i, j)] = tuple(
                tuple(pair_cut_cost(signals, vi, vj, *w[i], *w[j]) for vj in (0, 1))
                for vi in (0, 1)
            )
    occ = st.tuples(st.integers(0, 3), st.integers(0, 2), st.just(0))
    cap = float(max(2, draw(st.integers(n // 2, (3 * n) // 2))))
    return _BqpModel(
        variables=[f"m{i}" for i in range(n)],
        linear=linear,
        pairs=pairs,
        const=draw(extents),
        occ0=[draw(occ) for _ in range(n)],
        occ1=[draw(occ) for _ in range(n)],
        avail0=(cap, cap, 1.0),
        avail1=(cap, cap, 1.0),
    )


@BQP_PROPERTY
@given(fractional_bqp_models(1, EXACT_LIMIT))
# the variables' smaller BRAM footprints, 3, overflow both sides' 2 together
@example(_BqpModel(
    ["m0", "m1", "m2"], [(0.0, 1.0)] * 3, {}, 0.0,
    [(1, 1, 0)] * 3, [(2, 1, 0)] * 3, (4.0, 1.0, 1.0), (4.0, 1.0, 1.0),
))
# ... and fill them exactly when one side holds one more
@example(_BqpModel(
    ["m0", "m1", "m2"], [(0.0, 1.0)] * 3, {}, 0.0,
    [(1, 1, 0)] * 3, [(2, 1, 0)] * 3, (4.0, 1.0, 1.0), (4.0, 2.0, 1.0),
))
def test_exact_solver_matches_branch_and_bound_walk(model):
    bits, _ = branch_and_bound_walk(model, None, math.inf)
    assert _solve_bqp(model) == (None if bits is None else dict(zip(model.variables, bits)))


# A cap on the walk keeps each example fast; the search the walk does not
# finish is only held to at least the walk's objective.
WALK_BUDGET = 20_000


@settings(BQP_PROPERTY, max_examples=30)
@given(fractional_bqp_models(EXACT_LIMIT + 1, EXACT_LIMIT + 6))
def test_search_needs_no_more_nodes_than_walk(model):
    """From the seed ``_solve_bqp`` uses, the search given the walk's own node
    count returns the walk's assignment: it finds the walk's incumbents in
    the walk's order, within as many nodes."""
    seed = _repair(model, _greedy_assignment(model))
    if seed is not None:
        seed = local_search_walk(model, seed)
    bits, nodes = branch_and_bound_walk(model, None if seed is None else seed.copy(), WALK_BUDGET)
    got, _ = _solve_branch_and_bound(model, None if seed is None else seed.copy(), nodes)
    if nodes < WALK_BUDGET:
        assert got == bits
    else:
        assert got is not None and objective_walk(model, got) <= objective_walk(model, bits)


@BQP_PROPERTY
@given(fractional_bqp_models(1, EXACT_LIMIT + 10))
def test_packed_assignment_fits_and_keeps_pairs_together(model):
    packed = _packed_assignment(model)
    if packed is not None:
        assert capacity_holds_walk(model, packed)
        assert all(packed[i] == packed[j] for i, j in model.pairs)


def large_seed(model):
    """The seed ``_solve_bqp`` searches from beyond ``EXACT_LIMIT``."""
    seed = _repair(model, _greedy_assignment(model))
    return None if seed is None else _local_search(model, seed)


@BQP_PROPERTY
@given(fractional_bqp_models(EXACT_LIMIT + 1, EXACT_LIMIT + 10))
def test_packed_bound_keeps_the_unbounded_assignment(model):
    """Beyond the exact range ``_solve_bqp`` also bounds its search by the
    packed assignment. It returns what the search from the same seed alone
    returns, and when that search finishes, in no more nodes; when only
    the bounded search finishes, it returns no dearer an assignment."""
    seed = large_seed(model)
    bits, nodes = _solve_branch_and_bound(model, seed, WALK_BUDGET)
    search = bipartition._solve_branch_and_bound
    spent = []

    def recording_search(*args):
        got, used = search(*args)
        spent.append(used)
        return got, used

    with mock.patch.object(bipartition, "NODE_BUDGET", WALK_BUDGET), \
            mock.patch.object(bipartition, "_solve_branch_and_bound", recording_search):
        result = _solve_bqp(model)
    got = None if result is None else [result[m] for m in model.variables]
    if spent and spent[0] < WALK_BUDGET <= nodes:
        assert got is not None and objective_walk(model, got) <= objective_walk(model, bits)
    else:
        assert got == bits
        if spent and nodes < WALK_BUDGET:
            assert spent[0] <= nodes


# Variable 0 costs 0.5 on side 1 and needs no tile; the 16 others cost 1 on
# side 1 and one CLB on either side, and side 0 holds 15 CLBs. The seed
# costs 1, so a branch with variable 0 on side 1 may add at most 0.5 more:
# every other variable is forced to side 0, where 16 CLBs overflow it.
FORCED_OVERFLOW = _BqpModel(
    [f"m{i}" for i in range(17)],
    [(0.0, 0.5)] + [(0.0, 1.0)] * 16,
    {},
    0.0,
    [(0, 0, 0)] + [(1, 0, 0)] * 16,
    [(0, 0, 0)] + [(1, 0, 0)] * 16,
    (15.0, 0.0, 0.0),
    (17.0, 0.0, 0.0),
)


@BQP_PROPERTY
@given(fractional_bqp_models(EXACT_LIMIT + 1, EXACT_LIMIT + 10))
@example(FORCED_OVERFLOW)
def test_fixing_search_returns_the_walks_assignment_in_no_more_nodes(model):
    """Beyond the exact range the search from ``_solve_bqp``'s seed fixes
    variables by reduced cost, with or without the packed assignment as
    ``upper``. Wherever the walk, which bounds by linear costs alone and
    fixes nothing, finishes, the search returns its assignment within as
    many nodes."""
    seed = large_seed(model)
    bits, walked = branch_and_bound_walk(model, None if seed is None else seed.copy(), WALK_BUDGET)
    if walked >= WALK_BUDGET:
        return
    for upper in (None, _packed_assignment(model)):
        got, nodes = _solve_branch_and_bound(
            model, None if seed is None else seed.copy(), WALK_BUDGET, upper
        )
        assert got == bits
        assert nodes <= walked


def test_forced_overflow_example_needs_fewer_nodes():
    """On ``FORCED_OVERFLOW`` the walk, like the search before it fixed
    variables, spends 66 nodes; fixing cuts every branch with variable 0
    on side 1 at once, and the search spends 34."""
    seed = large_seed(FORCED_OVERFLOW)
    assert objective_walk(FORCED_OVERFLOW, seed) == 1.0
    bits, walked = branch_and_bound_walk(FORCED_OVERFLOW, seed.copy(), WALK_BUDGET)
    got, nodes = _solve_branch_and_bound(FORCED_OVERFLOW, seed.copy(), WALK_BUDGET)
    assert got == bits
    assert (walked, nodes) == (66, 34)


@BQP_PROPERTY
@given(fractional_bqp_models(2, EXACT_LIMIT + 4), st.data())
def test_spent_packed_bound_hands_over_to_the_unbounded_search(model, data):
    """Under any node budget, the search bounded by the packed assignment
    finishes with the unbounded search's assignment, or spends the budget
    and returns what the unbounded search returns under it."""
    upper = _packed_assignment(model)
    if upper is None:
        return
    full, _ = _solve_branch_and_bound(model, None, math.inf)
    _, needed = _solve_branch_and_bound(model, None, math.inf, upper)
    budget = data.draw(st.integers(1, needed))
    got, nodes = _solve_branch_and_bound(model, None, budget, upper)
    if nodes <= budget:
        assert got == full
    else:
        assert got == _solve_branch_and_bound(model, None, budget)[0]


@BQP_PROPERTY
@given(fractional_bqp_models(2, EXACT_LIMIT + 8), st.data())
def test_local_search_matches_walk(model, data):
    n = len(model.variables)
    start = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    assert _local_search(model, start.copy()) == local_search_walk(model, start.copy())


# --- connection pricing ----------------------------------------------------

PRICING_FABRIC = Fabric(4, "C" * 8)
# one span group: a single one-column candidate
FILLER = (0, 0, 1, 1, 0, 0)


@st.composite
def pricing_inputs(draw):
    """An axis, member modules (free, fixed to a side, or parent-only, with
    a mean extent per side), anchors for them and for modules outside the
    partition, some of them on the cut line, extents for some of the
    settled ones, and connections among all of them, repeats included."""
    axis = draw(st.sampled_from(["vertical", "horizontal"]))
    members = [
        (draw(st.sampled_from(["free", 0, 1, "parent"])), draw(extents), draw(extents))
        for _ in range(draw(st.integers(1, 6)))
    ]
    ids = [f"m{i}" for i in range(len(members))]
    ids += [f"o{i}" for i in range(draw(st.integers(0, 3)))]
    size = PRICING_FABRIC.cols if axis == "vertical" else PRICING_FABRIC.rows
    anchors = {}
    for m in ids:
        along = draw(st.integers(0, 2 * size)) / 2
        anchors[m] = (along, 1.0) if axis == "vertical" else (1.0, along)
    settled = [m for m in ids if m.startswith("o") or members[int(m[1:])][0] == "parent"]
    extent_of = {m: draw(extents) for m in settled if draw(st.booleans())}
    pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    connections = [
        (*draw(pairs), draw(st.integers(1, 64)))
        for _ in range(draw(st.integers(0, 12) if len(ids) > 1 else st.just(0)))
    ]
    return axis, members, anchors, extent_of, connections


@PROPERTY
@given(pricing_inputs())
# the same two free variables connected twice, once each way round
@example((
    "vertical", [("free", 1.0, 2.0), ("free", 3.0, 0.5)],
    {"m0": (4.0, 1.0), "m1": (4.0, 1.0)}, {}, [("m0", "m1", 2), ("m1", "m0", 3)],
))
def test_build_bqp_prices_connections_like_the_cut_formulas(inputs):
    axis, members, anchors, extent_of, connections = inputs
    data = []
    for i, (kind, w0, w1) in enumerate(members):
        side0, side1 = kind in ("free", 0), kind in ("free", 1)
        data.append(_SideData(
            f"m{i}", (FILLER,) if side0 else (), (FILLER,) if side1 else (),
            w0 if side0 else None, w1 if side1 else None,
            ResourceVector() if side0 else None, ResourceVector() if side1 else None,
        ))
    children = _split_partition(PRICING_FABRIC.bounds, axis)
    conns = [Connection(*c) for c in connections]
    requirements = {d.module_id: ResourceVector() for d in data}
    model = _build_bqp(
        PRICING_FABRIC, children, data, conns, anchors, axis, extent_of, requirements
    )
    linear, pairs, const = cut_cost_walk(data, conns, anchors, extent_of, children[1], axis)
    assert model.linear == linear
    assert list(model.pairs.items()) == list(pairs.items())
    assert model.const == const
