"""Kernel tessellation tests, anchored by brute-force enumeration."""

import random
import tracemalloc
from unittest import mock

import pytest

from tilefp import tessellation
from tilefp.design import Design, ModuleSpec, generate_random_design, parse_design
from tilefp.fabric import Fabric, Rect, ResourceKind, ResourceVector, parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.tessellation import (
    InfeasibleModuleError,
    _expand_horizontal,
    _generate_module_placements,
    _kind_order,
    _merge_row_kernels,
    _paired_kernels,
    generate_placements,
)

from helpers import (
    as_columns,
    aspect_ratio,
    base_kernels_walk,
    brute_force_rects,
    candidate_records,
    coordinate_sums_walk,
    module_placements_walk,
    random_fabric,
    random_requirement,
    resources_in_rect,
    span_groups_walk,
    tie_order_walk,
)

DSP, BRAM, CLB = ResourceKind.DSP, ResourceKind.BRAM, ResourceKind.CLB


def columns(cands):
    """A candidate list's rects and its wastage column."""
    return list(cands), cands.wastage


def expand(fabric, kernel, needed, target, blocked):
    """One expansion with nothing seen before, whose highest free row1 is
    then just that of the tallest rect it emitted; the rects as ``Rect``s."""
    grown, free_row1 = _expand_horizontal(fabric, kernel, needed, target, blocked, set())
    grown = [Rect._make(k) for k in grown]
    assert free_row1 == max((k.row1 for k in grown), default=-1)
    return grown


def test_kind_order_covers_all_mixes():
    assert _kind_order(ResourceVector(55, 2, 5)) == (DSP, BRAM, CLB)
    assert _kind_order(ResourceVector(25, 0, 5)) == (DSP, CLB)
    assert _kind_order(ResourceVector(5, 2, 0)) == (BRAM, CLB)
    assert _kind_order(ResourceVector(10, 0, 0)) == (CLB,)


def test_base_kernels_pair_scarce_kinds():
    fab = parse_fabric("rows 1\ncolumns CCBCD\n")
    kernels = _paired_kernels(fab, 0)
    # DSP at 4 pairs with the BRAM at 2, everything between included
    assert kernels == [Rect(0, 2, 0, 4)]
    assert resources_in_rect(fab, kernels[0]) == ResourceVector(1, 1, 1)


def test_base_kernels_empty_without_primary():
    # no DSP column to seed on, or no BRAM column to pair with
    assert _paired_kernels(parse_fabric("rows 1\ncolumns CCBC\n"), 0) == []
    assert _paired_kernels(parse_fabric("rows 1\ncolumns CCDC\n"), 0) == []


def test_base_kernels_tie_breaks_left():
    fab = parse_fabric("rows 1\ncolumns BCDCB\n")
    kernels = _paired_kernels(fab, 0)
    assert kernels == [Rect(0, 0, 0, 2)]


def test_base_kernels_skip_reserved():
    fab = parse_fabric("rows 2\ncolumns CCBCD\nreserved 0 3 0 3\n")
    # the span from DSP 4 to BRAM 2 crosses the reserved col 3 in row 0, so
    # the kernel shrinks back to the bare DSP tile there
    assert _paired_kernels(fab, 0) == [Rect(0, 4, 0, 4)]
    assert _paired_kernels(fab, 1) == [Rect(1, 2, 1, 4)]
    # a reserved primary tile kills the kernel outright
    fab2 = parse_fabric("rows 2\ncolumns CCBCD\nreserved 0 4 0 4\n")
    assert _paired_kernels(fab2, 0) == []


def test_merge_keeps_input_when_one_kernel_fits():
    fab = parse_fabric("rows 1\ncolumns BBBCB\n")
    kernels = base_kernels_walk(fab, 0, (BRAM, CLB))
    merged = _merge_row_kernels(fab, kernels, 1, ResourceKind.BRAM)
    assert merged == kernels


def test_merge_spans_to_first_sufficient():
    fab = parse_fabric("rows 1\ncolumns CCBCCCB\n")
    kernels = base_kernels_walk(fab, 0, (BRAM, CLB))
    merged = _merge_row_kernels(fab, kernels, 2, ResourceKind.BRAM)
    # from col 2 the span reaches the BRAM at 6; from col 6 nothing suffices
    assert merged == [Rect(0, 2, 0, 6)]


def test_merge_matches_span_enumeration_oracle():
    # first-sufficient span per start index, via brute force over all spans
    rng = random.Random(21)
    for _ in range(40):
        cols = "".join(rng.choice("CB") for _ in range(rng.randrange(4, 14)))
        if "B" not in cols:
            cols = "B" + cols[1:]
        fab = Fabric(1, cols)
        kernels = base_kernels_walk(fab, 0, (BRAM, CLB))
        needed = rng.randrange(2, 5)
        if any(resources_in_rect(fab, k).bram >= needed for k in kernels):
            continue
        merged = _merge_row_kernels(fab, kernels, needed, ResourceKind.BRAM)
        expected = []
        for i in range(len(kernels)):
            for j in range(i + 1, len(kernels)):
                rect = Rect(0, kernels[i].col0, 0, kernels[j].col1)
                if resources_in_rect(fab, rect).bram >= needed:
                    expected.append(rect)
                    break
        assert merged == expected


def test_merge_discards_spans_over_reserved():
    fab = parse_fabric("rows 1\ncolumns BCBCB\nreserved 0 3 0 3\n")
    kernels = base_kernels_walk(fab, 0, (BRAM, CLB))
    assert kernels == [
        Rect(0, 0, 0, 0),
        Rect(0, 2, 0, 2),
        Rect(0, 4, 0, 4),
    ]
    # the span starting at column 2 would have to cross the reserved column
    # to reach a second BRAM, so only the leftmost start yields a merge
    merged = _merge_row_kernels(fab, kernels, 2, ResourceKind.BRAM)
    assert merged == [Rect(0, 0, 0, 2)]


def zero_column_splits(fabric, kernel, needed, kind):
    """The expansion's candidates that stay in the kernel's own columns."""
    grown = expand(fabric, kernel, needed, kind, blocked=None)
    cols = (kernel.col0, kernel.col1)
    return [k for k in grown if (k.col0, k.col1) == cols]


def test_zero_column_split_grows_until_satisfied():
    fab = parse_fabric("rows 4\ncolumns CB\n")
    start = Rect(0, 1, 0, 1)
    grown = zero_column_splits(fab, start, 3, BRAM)
    assert grown[0] == Rect(0, 1, 2, 1)
    assert resources_in_rect(fab, grown[0]).bram == 3
    # every taller variant follows, up to the device top
    assert grown == [Rect(0, 1, 2, 1), Rect(0, 1, 3, 1)]
    # already satisfied: the kernel itself comes first
    assert zero_column_splits(fab, start, 1, BRAM)[0] == start


def test_zero_column_split_empty_at_top_or_reserved():
    fab = parse_fabric("rows 3\ncolumns CB\n")
    start = Rect(0, 1, 0, 1)
    assert zero_column_splits(fab, start, 4, BRAM) == []
    fab2 = parse_fabric("rows 3\ncolumns CB\nreserved 1 1 1 1\n")
    start2 = Rect(0, 1, 0, 1)
    assert zero_column_splits(fab2, start2, 2, BRAM) == []


def test_expand_horizontal_enumerates_all_splits():
    # single row, DSP kernel in a CLB field: needing 2 columns gives the
    # splits (0,2), (1,1) and (2,0)
    fab = parse_fabric("rows 1\ncolumns CCDCC\n")
    start = Rect(0, 2, 0, 2)
    grown = expand(fab, start, 2, ResourceKind.CLB, ResourceKind.DSP)
    assert sorted(grown) == [
        Rect(0, 0, 0, 2),
        Rect(0, 1, 0, 3),
        Rect(0, 2, 0, 4),
    ]


def test_expand_horizontal_clips_at_edges_and_blockers():
    fab = parse_fabric("rows 1\ncolumns DCC\n")
    start = Rect(0, 0, 0, 0)
    grown = expand(fab, start, 1, ResourceKind.CLB, ResourceKind.DSP)
    assert grown == [Rect(0, 0, 0, 1)]
    # another DSP column blocks the walk before any CLB shows up
    fab2 = parse_fabric("rows 1\ncolumns DDCC\n")
    start2 = Rect(0, 0, 0, 0)
    grown2 = expand(fab2, start2, 1, ResourceKind.CLB, ResourceKind.DSP)
    assert grown2 == []


def test_expand_horizontal_skips_and_records_seen_rects():
    fab = parse_fabric("rows 1\ncolumns CCDCC\n")
    start = Rect(0, 2, 0, 2)
    seen = {Rect(0, 1, 0, 3)}
    grown, free_row1 = _expand_horizontal(fab, start, 2, CLB, DSP, seen)
    assert grown == [Rect(0, 2, 0, 4), Rect(0, 0, 0, 2)]
    assert free_row1 == 0
    assert seen == {Rect(0, 0, 0, 2), Rect(0, 1, 0, 3), Rect(0, 2, 0, 4)}
    # every free split seen: nothing to emit, yet a free split existed
    assert _expand_horizontal(fab, start, 2, CLB, DSP, seen) == ([], 0)
    # nothing free at all, and nothing recorded
    blocked = parse_fabric("rows 1\ncolumns DDCC\n")
    none_seen = set()
    assert _expand_horizontal(
        blocked, Rect(0, 0, 0, 0), 1, CLB, DSP, none_seen
    ) == ([], -1)
    assert none_seen == set()


def test_expand_horizontal_emits_kernel_when_satisfied():
    fab = parse_fabric("rows 1\ncolumns CCDCC\n")
    start = Rect(0, 1, 0, 3)
    grown = expand(fab, start, 2, ResourceKind.CLB, ResourceKind.DSP)
    assert grown == [start]


def test_expand_horizontal_emits_every_height():
    fab = parse_fabric("rows 3\ncolumns CCDCC\n")
    start = Rect(0, 2, 0, 2)
    grown = expand(fab, start, 4, ResourceKind.CLB, ResourceKind.DSP)
    heights = {k.height for k in grown}
    assert heights == {1, 2, 3}
    by_height = {h: [k for k in grown if k.height == h] for h in heights}
    # height 1 needs four extra columns but only two exist per side, so the
    # sole viable split is two left + two right (the full row)
    assert by_height[1] == [Rect(0, 0, 0, 4)]
    # height 2 needs two extra columns: splits (0,2), (1,1) and (2,0) all fit
    assert sorted(by_height[2]) == [
        Rect(0, 0, 1, 2),
        Rect(0, 1, 1, 3),
        Rect(0, 2, 1, 4),
    ]
    assert all(resources_in_rect(fab, k).clb >= 4 for k in grown)


@pytest.mark.parametrize("fabric, taller", [
    # the DSP-blocked CLB walk from (0,0,0,0) has a free split at row1 = 1
    (Fabric(2, "DC"), Rect(0, 0, 1, 0)),
    # the one from (0,2,0,2) has none, falls back and crosses DSP column 1
    (Fabric(2, "CDDC", [Rect(0, 3, 1, 3)]), Rect(0, 2, 1, 2)),
])
def test_taller_kernel_over_grown_span_is_not_walked(fabric, taller):
    """A later-kind kernel over a column span already grown from a lower
    kernel can emit nothing new, so it is never walked."""
    walked = []
    walk = tessellation._expand_horizontal

    def spy(fabric, kernel, *args, **kwargs):
        walked.append(kernel)
        return walk(fabric, kernel, *args, **kwargs)

    with mock.patch.object(tessellation, "_expand_horizontal", spy):
        _generate_module_placements(fabric, ModuleSpec("m", ResourceVector(1, 0, 1)), None)
    assert Rect(taller.row0, taller.col0, 0, taller.col1) in walked
    assert taller not in walked


def test_fallback_only_when_no_height_has_a_free_split():
    """A later kind's blocked walk falls back unblocked only when it finds
    no free split at any height, so a kernel's one-row rects can depend on
    its row. The BRAM walk from row 0's kernel (0, 0, 0, 1), blocked at
    DSP column 3, first succeeds at height 2 and emits no one-row rect; row
    1's kernel cannot grow, so its walk falls back and crosses the DSP
    columns. Both one-row rects over all seven columns are free and equally
    wasteful; only row 1's is listed, as the reference walk lists it."""
    fab = Fabric(2, "DBBDDBC")
    module = ModuleSpec("m", ResourceVector(1, 3, 1))
    got = _generate_module_placements(fab, module, None)
    assert (1, 0, 1, 6) in got and (0, 0, 0, 6) not in got
    admissible = brute_force_rects(fab, module.req, None)
    assert admissible[Rect(0, 0, 0, 6)] == admissible[Rect(1, 0, 1, 6)]
    assert (list(got), got.wastage) == as_columns(module_placements_walk(fab, module, None))


def first_kind_walks(fabric, req):
    """The steps of the column walks each first-kind kernel's expansion makes."""
    first = _kind_order(req)[0]
    walks, expanding = {}, []
    expand, outward = tessellation._expand_horizontal, tessellation._columns_outward

    def spy_expand(fabric, kernel, needed, target, *args, **kwargs):
        expanding.append(kernel if target is first else None)
        try:
            return expand(fabric, kernel, needed, target, *args, **kwargs)
        finally:
            expanding.pop()

    def spy_outward(fabric, start, step, *args):
        if expanding[-1] is not None:
            walks.setdefault(expanding[-1], []).append(step)
        return outward(fabric, start, step, *args)

    with mock.patch.object(tessellation, "_expand_horizontal", spy_expand), \
            mock.patch.object(tessellation, "_columns_outward", spy_outward):
        _generate_module_placements(fabric, ModuleSpec("m", req), None)
    return walks


@pytest.mark.parametrize("fabric, req", [
    (Fabric(3, "CCDCCBCC", [Rect(1, 3, 1, 3)]), ResourceVector(1, 0, 0)),
    (Fabric(3, "CCDCCBCC", [Rect(1, 3, 1, 3)]), ResourceVector(3, 0, 0)),
    (Fabric(2, "CCBCCBCC"), ResourceVector(3, 2, 0)),
    (Fabric(2, "DCDCCDC"), ResourceVector(2, 0, 2)),
])
def test_unpaired_modules_skip_the_kernel_walk(fabric, req):
    """An unpaired module's first stage comes from the closed form: no
    kernel is seeded, merged or walked, whether its need merges kernels or
    not. Its later kind still expands the closed form's rects."""
    targets = []
    expand = tessellation._expand_horizontal

    def spy(fabric, kernel, needed, target, *args):
        targets.append(target)
        return expand(fabric, kernel, needed, target, *args)

    with mock.patch.object(tessellation, "_expand_horizontal", spy), \
            mock.patch.object(tessellation, "_paired_kernels") as seed, \
            mock.patch.object(tessellation, "_merge_row_kernels") as merge:
        assert first_kind_walks(fabric, req) == {}
    assert not seed.called and not merge.called
    assert set(targets) == (set() if _kind_order(req) == (CLB,) else {CLB})


def test_paired_modules_walk_every_kernel_left():
    # the DSP at column 8 falls back to a bare kernel: its nearest BRAM is
    # reserved
    fabric = Fabric(1, "CDBDDCBCDBDB", [Rect(0, 9, 0, 9)])
    walks = first_kind_walks(fabric, ResourceVector(2, 1, 3))
    assert Rect(0, 8, 0, 8) in walks and Rect(0, 2, 0, 3) in walks
    assert all(sorted(steps) == [-1, +1] for steps in walks.values())


def test_generate_placements_minimal_two_column_case():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    design = Design([ModuleSpec("m", ResourceVector(2, 0, 0))])
    cands = generate_placements(fab, design, ar_bounds=(0.2, 0.7))["m"]
    # the flat 1x2 span has ratio 2.0 and is rejected; the two vertical
    # dominoes at ratio 0.5 survive
    assert sorted(cands) == [Rect(0, 0, 1, 0), Rect(0, 1, 1, 1)]
    assert all(w == 0 for w in cands.wastage)
    unbounded = generate_placements(fab, design, ar_bounds=None)["m"]
    assert set(unbounded) == {
        Rect(0, 0, 0, 1),
        Rect(1, 0, 1, 1),
        Rect(0, 0, 1, 0),
        Rect(0, 1, 1, 1),
        Rect(0, 0, 1, 1),
    }


def test_generate_placements_infeasible_module():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    design = Design([ModuleSpec("m", ResourceVector(5, 0, 0))])
    with pytest.raises(InfeasibleModuleError) as err:
        generate_placements(fab, design, ar_bounds=None)
    assert err.value.module_id == "m"
    design2 = Design([ModuleSpec("m", ResourceVector(1, 1, 0))])
    with pytest.raises(InfeasibleModuleError):
        generate_placements(fab, design2, ar_bounds=None)


def test_modules_with_equal_requirements_get_equal_lists():
    fab = parse_fabric("rows 3\ncolumns CCBCDCCBCC\nreserved 0 5 1 6\n")
    design = Design(
        [
            ModuleSpec("a", ResourceVector(4, 1, 1)),
            ModuleSpec("b", ResourceVector(3, 0, 0)),
            ModuleSpec("c", ResourceVector(4, 1, 1)),
            ModuleSpec("d", ResourceVector(4, 0, 0)),
        ]
    )
    cands = generate_placements(fab, design, ar_bounds=None)
    for module in design.modules:
        assert columns(cands[module.id]) == columns(_generate_module_placements(fab, module, None))
    assert columns(cands["a"]) == columns(cands["c"]) != columns(cands["d"])


def test_infeasible_shared_requirement_names_first_module():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    design = Design(
        [
            ModuleSpec("k", ResourceVector(1, 0, 0)),
            ModuleSpec("z", ResourceVector(5, 0, 0)),
            ModuleSpec("a", ResourceVector(5, 0, 0)),
        ]
    )
    with pytest.raises(InfeasibleModuleError) as err:
        generate_placements(fab, design, ar_bounds=None)
    assert err.value.module_id == "z"


def test_infeasible_reason_blames_bounds_only_when_deserved():
    # too small to ever cover: the window is not the problem
    fab = parse_fabric("rows 2\ncolumns CC\n")
    design = Design([ModuleSpec("m", ResourceVector(5, 0, 0))])
    with pytest.raises(InfeasibleModuleError) as err:
        generate_placements(fab, design, ar_bounds=(0.2, 0.7))
    assert "aspect" not in str(err.value)
    # coverage exists, but only at ratios the window rejects
    wide = parse_fabric("rows 1\ncolumns CCCC\n")
    design2 = Design([ModuleSpec("m", ResourceVector(2, 0, 0))])
    with pytest.raises(InfeasibleModuleError) as err2:
        generate_placements(wide, design2, ar_bounds=(0.2, 0.7))
    assert "aspect" in str(err2.value)


def test_generate_placements_is_deterministic():
    fab = parse_fabric("rows 3\ncolumns CCBCDCCBCC\n")
    design = Design(
        [
            ModuleSpec("a", ResourceVector(4, 1, 1)),
            ModuleSpec("b", ResourceVector(3, 0, 0)),
        ]
    )
    first = generate_placements(fab, design, ar_bounds=None)
    second = generate_placements(fab, design, ar_bounds=None)
    assert list(first) == list(second)
    assert all(columns(first[m]) == columns(second[m]) for m in first)


def test_candidates_are_sound_and_near_optimal():
    # soundness on every case; wastage competitive with the brute-force
    # minimum on nearly all (the acceptance suite runs the full version)
    rng = random.Random(77)
    cases = 0
    competitive = 0
    for _ in range(8):
        fab = random_fabric(rng)
        for _ in range(4):
            req = random_requirement(rng, fab)
            module = ModuleSpec("m", req)
            valid = brute_force_rects(fab, req, None)
            try:
                cands = _generate_module_placements(fab, module, None)
            except InfeasibleModuleError:
                assert not valid
                continue
            assert valid, "generator produced candidates where brute force found none"
            for rect, wastage in zip(cands, cands.wastage, strict=True):
                assert rect in valid, (fab.rows, fab.cols, req, rect)
                assert wastage == valid[rect]
            cases += 1
            best = min(valid.values())
            got = min(cands.wastage)
            if got <= max(best * 1.1, best + 1e-9):
                competitive += 1
    assert cases >= 20
    assert competitive >= cases * 0.9


def test_candidates_respect_aspect_bounds():
    rng = random.Random(131)
    for _ in range(6):
        fab = random_fabric(rng)
        req = random_requirement(rng, fab)
        module = ModuleSpec("m", req)
        try:
            cands = _generate_module_placements(fab, module, (0.2, 0.7))
        except InfeasibleModuleError:
            continue
        for rect in cands:
            assert 0.2 <= aspect_ratio(rect) <= 0.7


def test_candidates_never_touch_reserved():
    fab = parse_fabric("rows 3\ncolumns CCCBCC\nreserved 1 1 2 2\n")
    design = Design([ModuleSpec("m", ResourceVector(3, 1, 0))])
    for rect in generate_placements(fab, design, ar_bounds=None)["m"]:
        assert fab.reserved_tiles_in(rect) == 0


@pytest.mark.parametrize(
    "fabric_name, design, ar_bounds",
    [
        pytest.param("fx70t.fabric", "sdr", None, id="sdr-noar"),
        pytest.param("fx70t.fabric", "sdr", (0.2, 0.7), id="sdr-ar-default"),
        pytest.param("xc7k410t.fabric", (50, (0.8, 0.3, 0.3), 50), None, id="scaling-n50"),
        *(
            pytest.param("fx70t.fabric", (16, (0.8, 0.5, 0.5), seed), None, id=f"dense-s{seed}")
            for seed in range(3)
        ),
    ],
)
def test_bench_list_summaries_match_walks(fabric_name, design, ar_bounds):
    """Every list of the benchmark corpus carries the summaries that walks
    over its recounted records give: both axes' span groups, the tie order,
    the largest wastage and the coordinate sums."""
    fabric = parse_fabric(fixture_path(fabric_name).read_text())
    if design == "sdr":
        design = parse_design(fixture_path("sdr.design").read_text())
    else:
        design = generate_random_design(design[0], fabric, *design[1:])
    lists = {id(c): c for c in generate_placements(fabric, design, ar_bounds).values()}
    for cands in lists.values():
        records = candidate_records(fabric, cands)
        for axis in ("vertical", "horizontal"):
            assert cands.groups[axis] == span_groups_walk(records, axis)
        assert list(cands.ties) == tie_order_walk(records)
        assert cands.max_waste == max(c.wastage_frames for c in records)
        assert cands.sums == coordinate_sums_walk(records)


def test_wide_device_lists_stay_small():
    """Spans and bands are kept per key that occurs, not in tables sized by
    the square of the device width: the list of three-CLB rects on a
    4,000-column device peaks far below such a table."""
    fab = Fabric(1, "C" * 4000)
    design = Design([ModuleSpec("m", ResourceVector(3, 0, 0))])
    tracemalloc.start()
    try:
        cands = generate_placements(fab, design, None)["m"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cands) == len(cands.groups["vertical"]) == 3998  # one per span
    assert peak < 16 * 2**20
