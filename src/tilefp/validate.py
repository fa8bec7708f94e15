"""Independent checker for floorplan documents.

Everything here works from exactly two artifacts, the floorplan document
and the fabric file, and recomputes every claim with plain cell-by-cell
loops instead of the query structures the pipeline uses. A clean result is
an empty violation list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fabric import Fabric, Rect, ResourceKind, ResourceVector, parse_fabric, _read_directives

__all__ = [
    "FloorplanDocument",
    "PlacementRecord",
    "parse_floorplan",
    "validate_floorplan",
]


@dataclass(frozen=True)
class PlacementRecord:
    """One placed module as the document states it."""

    module_id: str
    rect: Rect
    req: ResourceVector
    wastage_frames: int


@dataclass(frozen=True)
class FloorplanDocument:
    """Parsed form of a floorplan document."""

    alpha: float
    beta: float
    ar_bounds: tuple[float, float] | None
    records: tuple[PlacementRecord, ...]
    total_wastage: int
    total_wirelength: int
    backtracks: int


_FLOORPLAN_LAYOUTS = (
    "mode alpha <alpha:float> beta <beta:float> ar off",
    "mode alpha <alpha:float> beta <beta:float> ar <lo:float> <hi:float>",
    "place <id> <row0:int> <col0:int> <row1:int> <col1:int>"
    " <clb:int> <bram:int> <dsp:int> <wastage:int>",
    "total wastage <frames:int> wirelength <units:int> backtracks <count:int>",
)


def parse_floorplan(text: str) -> FloorplanDocument:
    """Parse a floorplan document; malformed input raises ValueError."""
    mode = None
    records = []
    total = None
    for fail, directive, values in _read_directives(text, ValueError, _FLOORPLAN_LAYOUTS):
        if (directive == "mode") != (mode is None):
            fail("the mode line must come first, and only once")
        if directive == "mode":
            alpha, beta, *ar = values
            mode = (alpha, beta, tuple(ar) or None)
        elif directive == "place":
            module_id, *nums = values
            records.append(
                PlacementRecord(
                    module_id,
                    Rect(*nums[0:4]),
                    ResourceVector(*nums[4:7]),
                    nums[7],
                )
            )
        else:
            if total is not None:
                fail("two total lines")
            total = values
    if mode is None:
        raise ValueError("empty floorplan document")
    if total is None:
        raise ValueError("missing total line")
    return FloorplanDocument(*mode, tuple(records), *total)


def _reserved_cells(fabric: Fabric) -> set[tuple[int, int]]:
    cells = set()
    for rect in fabric.reserved_rects:
        for r in range(rect.row0, rect.row1 + 1):
            for c in range(rect.col0, rect.col1 + 1):
                cells.add((r, c))
    return cells


def validate_floorplan(document_text: str, fabric_text: str) -> list[str]:
    """All rule violations found in a floorplan document, worded for humans.

    Checks bounds, reserved-tile avoidance, pairwise overlap, resource
    coverage, the per-record and total wastage arithmetic, and the
    aspect-ratio window when the document declares one.
    """
    doc = parse_floorplan(document_text)
    fabric = parse_fabric(fabric_text)
    reserved = _reserved_cells(fabric)
    frames = fabric.frames
    problems: list[str] = []

    seen_ids: set[str] = set()
    wastage_sum = 0
    for rec in doc.records:
        rid = rec.module_id
        if rid in seen_ids:
            problems.append(f"{rid}: placed twice")
            continue
        seen_ids.add(rid)
        rect = rec.rect
        if not (
            0 <= rect.row0 <= rect.row1 < fabric.rows
            and 0 <= rect.col0 <= rect.col1 < fabric.cols
        ):
            problems.append(f"{rid}: rect {tuple(rect)} leaves the device")
            continue

        counts = {kind: 0 for kind in ResourceKind}
        overlap_reserved = 0
        for r in range(rect.row0, rect.row1 + 1):
            for c in range(rect.col0, rect.col1 + 1):
                if (r, c) in reserved:
                    overlap_reserved += 1
                else:
                    counts[fabric.kind_of(c)] += 1
        if overlap_reserved:
            problems.append(
                f"{rid}: covers {overlap_reserved} reserved tile(s)"
            )
        have = ResourceVector(
            counts[ResourceKind.CLB],
            counts[ResourceKind.BRAM],
            counts[ResourceKind.DSP],
        )
        if not have.covers(rec.req):
            problems.append(
                f"{rid}: rect holds {tuple(have)} which misses requirement "
                f"{tuple(rec.req)}"
            )
        else:
            waste = sum(
                (h - n) * frames[kind]
                for kind, h, n in zip(ResourceKind, have, rec.req)
            )
            if waste != rec.wastage_frames:
                problems.append(
                    f"{rid}: wastage says {rec.wastage_frames}, tiles give {waste}"
                )
            wastage_sum += waste
        if doc.ar_bounds is not None:
            lo, hi = doc.ar_bounds
            ar = rect.width / rect.height
            if not lo <= ar <= hi:
                problems.append(
                    f"{rid}: aspect ratio {ar!r} outside [{lo!r}, {hi!r}]"
                )

    recs = doc.records
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            if recs[i].rect.overlaps(recs[j].rect):
                problems.append(
                    f"{recs[i].module_id} and {recs[j].module_id}: "
                    f"rectangles overlap"
                )

    if not problems and wastage_sum != doc.total_wastage:
        problems.append(
            f"total wastage says {doc.total_wastage}, records sum to {wastage_sum}"
        )
    return problems
