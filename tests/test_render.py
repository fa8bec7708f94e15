"""Renderer tests."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from hypothesis import example, given, settings, strategies as st

from tilefp.design import DesignError, ModuleSpec
from tilefp.fabric import Rect, ResourceVector, parse_fabric
from tilefp.render import render_ascii, render_svg


def test_ascii_single_module_on_2x2():
    fab = parse_fabric("rows 2\ncolumns CB\n")
    out = render_ascii(fab, {"m": Rect(0, 0, 0, 0)})
    assert out == "cb\nmb\n"


def test_ascii_empty_floorplan_shows_fabric_only():
    fab = parse_fabric("rows 2\ncolumns CBD\nreserved 1 2 1 2\n")
    out = render_ascii(fab, {})
    assert out == "cb#\ncbd\n"


def test_ascii_top_row_first():
    fab = parse_fabric("rows 3\ncolumns CC\n")
    out = render_ascii(fab, {"x": Rect(2, 0, 2, 1)})
    assert out.splitlines() == ["xx", "cc", "cc"]


def test_svg_one_tile_element_per_tile():
    fab = parse_fabric("rows 3\ncolumns CCBD\nreserved 0 0 0 1\n")
    svg = render_svg(fab, {"m": Rect(1, 0, 2, 1)})
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    tiles = [e for e in root.iter(f"{ns}rect") if e.get("class") == "tile"]
    assert len(tiles) == 12
    outlines = [e for e in root.iter(f"{ns}rect") if e.get("class") == "module"]
    assert len(outlines) == 1
    labels = [e.text for e in root.iter(f"{ns}text")]
    assert labels == ["m"]


def test_svg_y_axis_flips_rows():
    fab = parse_fabric("rows 2\ncolumns CC\n")
    svg = render_svg(fab, {"top": Rect(1, 0, 1, 0)})
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    outline = next(
        e for e in root.iter(f"{ns}rect") if e.get("class") == "module"
    )
    # the top clock region row draws at the top of the image
    assert outline.get("y") == "0"


def test_svg_escapes_module_ids():
    fab = parse_fabric("rows 1\ncolumns CC\n")
    svg = render_svg(fab, {"a<b": Rect(0, 0, 0, 0)})
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert next(root.iter(f"{ns}text")).text == "a<b"


# Module ids ``ModuleSpec`` accepts, rich in XML's special characters. Only
# characters XML can carry are drawn: control characters and unassigned
# code points are left out.
module_ids = st.text(
    st.one_of(
        st.sampled_from("&<>\"'"),
        st.characters(blacklist_categories=("Cc", "Cs", "Cn", "Zl", "Zp", "Zs")),
    ),
    min_size=1, max_size=12,
).filter(lambda s: "#" not in s and not any(ch.isspace() for ch in s))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(module_ids)
@example("&amp;<&lt;>'\"")
def test_svg_label_matches_saxutils_escape(module_id):
    """The label is the id escaped as ``xml.sax.saxutils.escape`` does, and
    parses back to the id."""
    ModuleSpec(module_id, ResourceVector(1, 0, 0))
    fab = parse_fabric("rows 1\ncolumns CC\n")
    svg = render_svg(fab, {module_id: Rect(0, 0, 0, 0)})
    label = next(ln for ln in svg.splitlines() if ln.startswith("<text "))
    assert label.partition(">")[2] == f"{escape(module_id)}</text>"
    root = ET.fromstring(svg)
    assert next(root.iter("{http://www.w3.org/2000/svg}text")).text == module_id


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, codec=None,
                             categories=None, exclude_categories=()),
               min_size=1, max_size=8))
@example("a\x01b")
@example("\ud800")
@example("\uffff")
def test_svg_parses_for_every_accepted_id(module_id):
    """An id ``ModuleSpec`` accepts, whatever its code points, gives an SVG
    that ElementTree parses back to the id."""
    try:
        ModuleSpec(module_id, ResourceVector(1, 0, 0))
    except DesignError:
        return
    fab = parse_fabric("rows 1\ncolumns CC\n")
    root = ET.fromstring(render_svg(fab, {module_id: Rect(0, 0, 0, 0)}))
    assert next(root.iter("{http://www.w3.org/2000/svg}text")).text == module_id
