"""Floorplan drawings: quick ASCII grids and standalone SVG files.

Both renderers are pure functions of the fabric and the chosen rectangles.
The ASCII form is one character per tile with the top row first; the SVG
form draws one square per tile, hatches reserved tiles and outlines every
module's rectangle with a label.
"""

from __future__ import annotations

from typing import Mapping

from .fabric import Fabric, Rect, ResourceKind

__all__ = ["render_ascii", "render_svg"]

_TILE_PX = 18

_KIND_CHAR = {
    ResourceKind.CLB: "c",
    ResourceKind.BRAM: "b",
    ResourceKind.DSP: "d",
}

_KIND_FILL = {
    ResourceKind.CLB: "#dce6f1",
    ResourceKind.BRAM: "#c7e5c7",
    ResourceKind.DSP: "#f5d9b8",
}


def _escape(text: str) -> str:
    """``text`` as XML character data, replacing ``&`` first, then ``>`` and ``<``.

    The same three replacements as ``xml.sax.saxutils.escape``, without
    importing the stdlib's XML and network stack at start-up.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_ascii(fabric: Fabric, placements: Mapping[str, Rect]) -> str:
    """Character grid of the device, top row first.

    Free tiles show their column kind in lowercase, reserved tiles a hash
    mark, and tiles inside a placed rectangle the first character of the
    module's id.
    """
    grid = [
        [_KIND_CHAR[fabric.kind_of(c)] for c in range(fabric.cols)]
        for _ in range(fabric.rows)
    ]
    for r in range(fabric.rows):
        for c in range(fabric.cols):
            if fabric.is_reserved(r, c):
                grid[r][c] = "#"
    for module_id, rect in placements.items():
        mark = module_id[0]
        for r in range(rect.row0, rect.row1 + 1):
            for c in range(rect.col0, rect.col1 + 1):
                grid[r][c] = mark
    rows = ("".join(row) for row in reversed(grid))
    return "\n".join(rows) + "\n"


def render_svg(fabric: Fabric, placements: Mapping[str, Rect]) -> str:
    """Standalone SVG drawing of the device and the placed rectangles."""
    s = _TILE_PX
    width, height = fabric.cols * s, fabric.rows * s
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>",
        '<pattern id="reserved" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">',
        '<rect width="6" height="6" fill="#e8e8e8"/>',
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#888888" stroke-width="2"/>',
        "</pattern>",
        "</defs>",
    ]
    for r in range(fabric.rows):
        # row 0 is the bottom clock region, SVG y grows downward
        y = (fabric.rows - 1 - r) * s
        for c in range(fabric.cols):
            if fabric.is_reserved(r, c):
                fill = "url(#reserved)"
            else:
                fill = _KIND_FILL[fabric.kind_of(c)]
            parts.append(
                f'<rect class="tile" x="{c * s}" y="{y}" width="{s}" '
                f'height="{s}" fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
    for module_id, rect in placements.items():
        x = rect.col0 * s
        y = (fabric.rows - 1 - rect.row1) * s
        w = rect.width * s
        h = rect.height * s
        parts.append(
            f'<rect class="module" x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="none" stroke="#222222" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + w / 2:g}" y="{y + h / 2:g}" text-anchor="middle" '
            f'dominant-baseline="central" font-family="monospace" '
            f'font-size="{s * 0.55:g}">{_escape(module_id)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
