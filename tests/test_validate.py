"""Document checker tests: parsing plus every violation class."""

import pytest

from tilefp.validate import parse_floorplan, validate_floorplan

FABRIC = """\
rows 3
columns CCBCD
reserved 2 4 2 4
"""

GOOD = """\
mode alpha 1 beta 0 ar off
place a 0 0 2 1 5 0 0 36
place b 0 2 1 3 2 2 0 0
total wastage 36 wirelength 96 backtracks 0
"""


def test_parse_roundtrip_fields():
    doc = parse_floorplan(GOOD)
    assert doc.alpha == 1.0 and doc.beta == 0.0
    assert doc.ar_bounds is None
    assert len(doc.records) == 2
    assert doc.records[0].module_id == "a"
    assert doc.records[0].wastage_frames == 36
    assert doc.total_wastage == 36
    assert doc.total_wirelength == 96
    assert doc.backtracks == 0
    commented = "# checked\n" + GOOD.replace("ar off\n", "ar off  # no window\n")
    assert parse_floorplan(commented) == doc


def test_parse_ar_bounds():
    doc = parse_floorplan(GOOD.replace("ar off", "ar 0.2 0.7"))
    assert doc.ar_bounds == (0.2, 0.7)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: "",
        lambda t: t.replace("mode alpha", "mood alpha"),
        lambda t: t.replace("ar off", "ar"),
        lambda t: t.replace("place a 0 0 2 1 5 0 0 36\n", "place a 0 0 2 1\n"),
        lambda t: t.replace("total wastage 36 ", "total frames 36 "),
        lambda t: t.replace("place b", "locate b"),
        lambda t: t + "total wastage 0 wirelength 0 backtracks 0\n",
        lambda t: t.replace(
            "total wastage 36 wirelength 96 backtracks 0\n", ""
        ),
        lambda t: t.replace("alpha 1", "alpha x"),
        lambda t: t.replace("place b 0 2", "place b 0 x"),
    ],
)
def test_parse_rejects_malformed(mutation):
    with pytest.raises(ValueError) as info:
        parse_floorplan(mutation(GOOD))
    # every error names its line, except the two about the whole document
    message = str(info.value)
    assert message.startswith("line ") or message in (
        "empty floorplan document",
        "missing total line",
    )


def test_valid_document_passes():
    assert validate_floorplan(GOOD, FABRIC) == []


def test_detects_out_of_bounds():
    bad = GOOD.replace("place b 0 2 1 3", "place b 0 2 3 3")
    problems = validate_floorplan(bad, FABRIC)
    assert any("leaves the device" in p for p in problems)


def test_detects_reserved_overlap():
    bad = """\
mode alpha 1 beta 0 ar off
place a 1 3 2 4 2 0 1 0
total wastage 0 wirelength 0 backtracks 0
"""
    problems = validate_floorplan(bad, FABRIC)
    assert any("reserved" in p for p in problems)


def test_detects_pairwise_overlap():
    bad = """\
mode alpha 1 beta 0 ar off
place a 0 0 2 1 5 0 0 36
place b 0 1 1 3 2 1 0 36
total wastage 72 wirelength 0 backtracks 0
"""
    problems = validate_floorplan(bad, FABRIC)
    assert any("overlap" in p for p in problems)


def test_detects_coverage_miss():
    bad = GOOD.replace("place b 0 2 1 3 2 2 0 0", "place b 0 2 1 3 2 3 0 0")
    problems = validate_floorplan(bad, FABRIC)
    assert any("misses requirement" in p for p in problems)


def test_detects_wastage_lie():
    bad = GOOD.replace("place a 0 0 2 1 5 0 0 36", "place a 0 0 2 1 5 0 0 0")
    problems = validate_floorplan(bad, FABRIC)
    assert any("wastage says 0" in p for p in problems)


def test_detects_total_mismatch():
    bad = GOOD.replace("total wastage 36", "total wastage 26")
    problems = validate_floorplan(bad, FABRIC)
    assert any("total wastage says 26" in p for p in problems)


def test_detects_duplicate_module():
    bad = GOOD.replace(
        "place b 0 2 1 3 2 2 0 0", "place a 0 2 1 3 2 2 0 0"
    )
    problems = validate_floorplan(bad, FABRIC)
    assert any("placed twice" in p for p in problems)


def test_detects_aspect_ratio_violation():
    doc = """\
mode alpha 1 beta 0 ar 0.2 0.7
place a 0 0 0 4 3 1 1 0
total wastage 0 wirelength 0 backtracks 0
"""
    problems = validate_floorplan(doc, FABRIC)
    assert problems == [
        "a: aspect ratio 5.000 outside [0.2, 0.7]"
    ]


def test_aspect_ratio_inside_window_passes():
    doc = """\
mode alpha 1 beta 0 ar 0.5 0.7
place a 0 0 2 1 5 0 0 36
total wastage 36 wirelength 0 backtracks 0
"""
    # width 2 over height 3 is ratio 0.667
    assert validate_floorplan(doc, FABRIC) == []
