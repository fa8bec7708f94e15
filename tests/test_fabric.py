"""Grid model and fabric parser tests."""

import random

import pytest

from tilefp.fabric import (
    Fabric,
    FabricError,
    Rect,
    ResourceKind,
    ResourceVector,
    parse_fabric,
)

from helpers import aspect_ratio, is_free_rect, resources_in_rect


def test_parse_minimal_fabric():
    fab = parse_fabric("rows 2\ncolumns CCBCD\n")
    assert fab.rows == 2
    assert fab.cols == 5
    assert fab.kind_of(2) is ResourceKind.BRAM
    assert fab.kind_of(4) is ResourceKind.DSP
    assert fab.columns_of(ResourceKind.CLB) == (0, 1, 3)


def test_parse_reserved_and_comments():
    text = """
    # device with a static region
    rows 3
    columns CCCC
    reserved 0 0 1 1  # bottom-left block
    """
    fab = parse_fabric(text)
    assert fab.is_reserved(0, 0)
    assert fab.is_reserved(1, 1)
    assert not fab.is_reserved(2, 0)
    assert fab.reserved_tiles_in(Rect(0, 0, 2, 3)) == 4


def test_parse_frames_override():
    fab = parse_fabric("rows 1\ncolumns CB\nframes 10 20 30\n")
    assert fab.frames_of(ResourceVector(1, 1, 1)) == 60


def test_parse_rejects_zero_rows():
    with pytest.raises(FabricError):
        parse_fabric("rows 0\ncolumns CC\n")


def test_parse_reports_line_of_bad_kind():
    with pytest.raises(FabricError, match="line 2"):
        parse_fabric("rows 1\ncolumns CCXC\n")


def test_parse_rejects_mismatched_column_lines():
    text = "rows 2\ncolumns CCB\ncolumns CBB\n"
    with pytest.raises(FabricError, match="differ"):
        parse_fabric(text)
    # identical repeats are fine
    assert parse_fabric("rows 2\ncolumns CCB\ncolumns CCB\n").cols == 3


@pytest.mark.parametrize("repeat", ["rows 3", "frames 36 30 20"])
def test_parse_rejects_a_differing_repeat(repeat):
    """A repeated rows or frames line that differs names its line, as a
    differing columns line does; an identical repeat is fine."""
    directive = repeat.split()[0]
    text = f"rows 12\ncolumns CCB\nframes 36 30 28\n{repeat}\n"
    with pytest.raises(FabricError, match=f"line 4: '{directive}' line differs"):
        parse_fabric(text)
    fab = parse_fabric("rows 12\ncolumns CCB\nframes 36 30 28\nrows 12\nframes 36 30 28\n")
    assert fab.rows == 12 and fab.frames_of(ResourceVector(1, 1, 1)) == 94


def test_parse_rejects_out_of_bounds_reserved():
    with pytest.raises(FabricError, match="reserved"):
        parse_fabric("rows 2\ncolumns CC\nreserved 0 0 2 1\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(FabricError, match="line 1"):
        parse_fabric("gridsize 4\n")


def test_resources_in_rect_counts_columns_per_row():
    fab = parse_fabric("rows 3\ncolumns CCBCD\n")
    assert resources_in_rect(fab, Rect(0, 0, 0, 4)) == ResourceVector(3, 1, 1)
    assert resources_in_rect(fab, Rect(0, 0, 2, 4)) == ResourceVector(9, 3, 3)
    assert resources_in_rect(fab, Rect(1, 2, 1, 2)) == ResourceVector(0, 1, 0)


def test_resources_in_rect_rejects_out_of_bounds():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    with pytest.raises(FabricError):
        resources_in_rect(fab, Rect(0, 0, 2, 1))


@pytest.mark.parametrize("args, message", [
    ((0, "CC"), "at least one clock-region row"),
    ((1, ""), "at least one resource column"),
    ((1, "CXB"), "unknown resource kind 'X'"),
    ((1, "CB", (), {ResourceKind.BRAM: 0}), "frames per BRAM tile must be positive"),
    ((2, "CC", [Rect(1, 0, 1, 2)]), "reserved rect out of bounds"),
])
def test_fabric_rejects_bad_arguments(args, message):
    """The constructor checks what it is given, as the parser does."""
    with pytest.raises(FabricError, match=message):
        Fabric(*args)


def test_queries_reject_out_of_range_columns_and_rects():
    fab = Fabric(2, "CB")
    for col in (-1, 2):
        with pytest.raises(FabricError, match=f"column {col} out of range"):
            fab.kind_of(col)
    for rect in (Rect(0, 0, 2, 1), Rect(0, -1, 1, 0), Rect(1, 1, 0, 1)):
        with pytest.raises(FabricError, match="rect out of bounds"):
            fab.reserved_tiles_in(rect)


def test_resources_additive_over_partitions():
    rng = random.Random(7)
    kinds = "".join(rng.choice("CCCBD") for _ in range(12))
    fab = Fabric(5, kinds)
    for _ in range(50):
        r0, r1 = sorted(rng.randrange(5) for _ in range(2))
        c0, c1 = sorted(rng.randrange(12) for _ in range(2))
        rect = Rect(r0, c0, r1, c1)
        whole = resources_in_rect(fab, rect)
        if c0 < c1:
            cut = rng.randrange(c0, c1)
            left = resources_in_rect(fab, Rect(r0, c0, r1, cut))
            right = resources_in_rect(fab, Rect(r0, cut + 1, r1, c1))
            assert left + right == whole


def test_is_free_rect():
    fab = parse_fabric("rows 3\ncolumns CCCC\nreserved 2 3 2 3\n")
    assert is_free_rect(fab, Rect(0, 0, 1, 3))
    assert not is_free_rect(fab, Rect(1, 2, 2, 3))  # touches reserved
    assert not is_free_rect(fab, Rect(0, 0, 3, 0))  # out of bounds
    occupied = [Rect(0, 0, 0, 1)]
    assert not is_free_rect(fab, Rect(0, 1, 1, 2), occupied)
    # sharing a boundary is not an overlap
    assert is_free_rect(fab, Rect(0, 2, 0, 3), occupied)
    assert is_free_rect(fab, Rect(1, 0, 1, 1), occupied)


def test_rect_geometry():
    rect = Rect(0, 0, 1, 3)
    assert rect.width == 4 and rect.height == 2
    assert aspect_ratio(rect) == 2.0
    assert rect.center == (2.0, 1.0)
    assert Rect(0, 0, 0, 0).center == (0.5, 0.5)
    # full device center of a 4x6 grid
    assert Rect(0, 0, 3, 5).center == (3.0, 2.0)


def test_frames_of_known_requirements():
    fab = parse_fabric("rows 1\ncolumns C\n")
    assert fab.frames_of(ResourceVector(0, 0, 0)) == 0
    assert fab.frames_of(ResourceVector(25, 0, 5)) == 1040
    assert fab.frames_of(ResourceVector(12, 1, 0)) == 462
    assert fab.frames_of(ResourceVector(1, 1, 1)) == 94


def test_frames_of_is_linear():
    fab = parse_fabric("rows 1\ncolumns C\n")
    rng = random.Random(3)
    for _ in range(20):
        a = ResourceVector(rng.randrange(9), rng.randrange(9), rng.randrange(9))
        b = ResourceVector(rng.randrange(9), rng.randrange(9), rng.randrange(9))
        assert fab.frames_of(a + b) == fab.frames_of(a) + fab.frames_of(b)


def test_resource_vector_subtraction_guards_negative():
    with pytest.raises(ValueError):
        ResourceVector(1, 0, 0) - ResourceVector(2, 0, 0)
    assert ResourceVector(3, 2, 1) - ResourceVector(1, 2, 0) == ResourceVector(2, 0, 1)


def test_available_resources_excludes_reserved():
    fab = parse_fabric("rows 2\ncolumns CBD\nreserved 0 0 1 0\n")
    assert fab.available_in_rect(fab.bounds) == ResourceVector(0, 2, 2)


def test_available_in_rect_clips_reserved_overlap():
    fab = parse_fabric("rows 4\ncolumns CCBD\nreserved 1 1 2 2\n")
    # the reserved block overlaps the query rect in three of its tiles
    assert fab.available_in_rect(Rect(0, 0, 1, 3)) == ResourceVector(3, 1, 2)
    assert fab.available_in_rect(Rect(3, 0, 3, 3)) == ResourceVector(2, 1, 1)
