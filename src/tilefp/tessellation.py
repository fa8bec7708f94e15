"""Candidate placement generation by columnar kernel tessellation.

Placements for a module are grown from kernels: minimal rectangles seeded
on the scarcest resource the module needs. Kernels of one row can merge
into wider spans when a single column cannot provide enough of that
resource; every kernel is then expanded, first upward until the scarcest
requirement is met, then sideways (and upward again) column by column for
each remaining kind in priority order. Expansion enumerates every way of
splitting the needed columns between the left and the right side and emits
a candidate at every reachable height, which is what gives the aspect-ratio
filter something to choose from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .design import (
    Design,
    ModuleSpec,
    PriorityClass,
    PRIORITY_CLASSES,
    classify_modules,
)
from .fabric import Fabric, Rect, ResourceKind, ResourceVector

__all__ = [
    "InfeasibleModuleError",
    "Kernel",
    "PlacementCandidate",
    "base_kernels_for_row",
    "expand_horizontal",
    "expand_vertical",
    "generate_module_placements",
    "generate_placements",
    "merge_row_kernels",
]


class InfeasibleModuleError(Exception):
    """A module has no valid placement anywhere on the fabric."""

    def __init__(self, module_id: str, reason: str = "") -> None:
        self.module_id = module_id
        msg = f"no valid placement for module {module_id!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class Kernel(NamedTuple):
    """A rectangle under construction plus its resource content."""

    rect: Rect
    resources: ResourceVector


class PlacementCandidate(NamedTuple):
    """One admissible rectangle for a module."""

    module_id: str
    rect: Rect
    resources: ResourceVector
    wastage_frames: int
    center: tuple[float, float]


def _nearest_column(columns: tuple[int, ...], col: int) -> int | None:
    """Column from the sorted ``columns`` closest to ``col``; ties go left."""
    if not columns:
        return None
    i = bisect_left(columns, col)
    if i == 0:
        return columns[0]
    if i == len(columns):
        return columns[-1]
    left, right = columns[i - 1], columns[i]
    return left if col - left <= right - col else right


def base_kernels_for_row(fabric: Fabric, row: int, cls: PriorityClass) -> list[Kernel]:
    """Seed kernels of one row, one per primary-resource column.

    When the class needs a second scarce kind (DSP plus BRAM), each kernel
    spans from its primary column to the nearest column of that kind,
    including everything between; a paired span that would touch reserved
    tiles shrinks back to the bare primary tile. Kernels whose primary tile
    is itself reserved are dropped.
    """
    pair_kind = cls.secondary if cls.secondary in (ResourceKind.BRAM, ResourceKind.DSP) else None
    sec_cols = fabric.columns_of(pair_kind) if pair_kind else ()
    price = fabric.resources_if_free
    kernels = []
    for c in fabric.columns_of(cls.primary):
        found = None
        if pair_kind is not None:
            near = _nearest_column(sec_cols, c)
            if near is None:
                continue
            col0, col1 = min(c, near), max(c, near)
            found = price(row, col0, row, col1)
        if found is None:
            col0 = col1 = c
            found = price(row, c, row, c)
        if found is not None:
            kernels.append(Kernel(Rect(row, col0, row, col1), found))
    return kernels


def merge_row_kernels(
    fabric: Fabric,
    kernels: list[Kernel],
    needed_primary: int,
    primary: ResourceKind,
) -> list[Kernel]:
    """Merge a row's kernels into wider spans when no single one suffices.

    If some kernel already holds ``needed_primary`` tiles the input comes
    back unchanged. Otherwise, for every start kernel the span grows to the
    right one kernel at a time (absorbing all tiles between) and the first
    span that suffices is kept; spans over reserved tiles are discarded.
    """
    if any(k.resources.of(primary) >= needed_primary for k in kernels):
        return list(kernels)
    price = fabric.resources_if_free
    k = primary.index
    merged = []
    for i, (rect, _) in enumerate(kernels):
        row, col0, _, col1 = rect
        for j in range(i + 1, len(kernels)):
            col1 = max(col1, kernels[j].rect.col1)
            res = price(row, col0, row, col1)
            if res is None:
                break
            if res[k] >= needed_primary:
                merged.append(Kernel(Rect(row, col0, row, col1), res))
                break
    return merged


def expand_vertical(
    fabric: Fabric, kernel: Kernel, needed: int, kind: ResourceKind
) -> Kernel | None:
    """Grow a kernel upward one clock region at a time until ``kind`` suffices.

    Returns None when the device top arrives first or growth would engulf a
    reserved tile.
    """
    rect, res = kernel
    while res.of(kind) < needed:
        top = rect.row1 + 1
        if top >= fabric.rows:
            return None
        if fabric.reserved_tiles_in(Rect(top, rect.col0, top, rect.col1)):
            return None
        rect = Rect(rect.row0, rect.col0, top, rect.col1)
        res = fabric.resources_in_rect(rect)
    return Kernel(rect, res)


def _columns_outward(
    fabric: Fabric,
    start: int,
    step: int,
    target: ResourceKind,
    blocked: ResourceKind | None,
) -> tuple[int, ...]:
    """Positions of target-kind columns walking outward from ``start``.

    The walk absorbs any column kind except ``blocked``, which ends it;
    engulfing another column of the seed resource would just recreate a
    wider kernel that exists on its own. Both column lists are sorted, so
    the walk is two bisections: find the nearest ``blocked`` column past
    ``start`` and take the target columns strictly between the two.
    """
    cols = fabric.columns_of(target)
    stops = fabric.columns_of(blocked) if blocked is not None else ()
    if step < 0:
        i = bisect_left(stops, start)
        lo = stops[i - 1] + 1 if i else 0
        return cols[bisect_left(cols, lo):bisect_left(cols, start)][::-1]
    i = bisect_right(stops, start)
    hi = stops[i] if i < len(stops) else fabric.cols
    return cols[bisect_right(cols, start):bisect_left(cols, hi)]


def expand_horizontal(
    fabric: Fabric,
    kernel: Kernel,
    needed: int,
    target: ResourceKind,
    blocked: ResourceKind | None,
) -> list[Kernel]:
    """Expand sideways for ``target`` tiles, emitting at every height.

    At the current height the kernel needs some number N of target columns
    (each contributes one tile per row it spans). Every left/right split
    l + r = N is tried: the rectangle stretches to the l-th target column
    on the left and the r-th on the right, absorbing all columns between.
    Splits that run off the device, engulf reserved tiles or cross a
    ``blocked`` column are dropped. After the enumeration the kernel grows
    one clock region upward and the process repeats, so taller and narrower
    variants of the same footprint are emitted too.
    """
    out = []
    (row0, col0, row1, col1), res = kernel
    # The columns stay fixed while the kernel grows upward, so the outward
    # walks are shared by every height; every split is in bounds.
    lefts = _columns_outward(fabric, col0, -1, target, blocked)
    rights = _columns_outward(fabric, col1, +1, target, blocked)
    price = fabric.resources_if_free
    k = target.index
    have = res[k]
    height = row1 - row0 + 1
    while True:
        n_cols = 0 if have >= needed else -((have - needed) // height)  # ceiling
        for l in range(max(0, n_cols - len(rights)), min(n_cols, len(lefts)) + 1):
            r = n_cols - l
            c0 = lefts[l - 1] if l else col0
            c1 = rights[r - 1] if r else col1
            found = price(row0, c0, row1, c1)
            if found is not None:
                out.append(Kernel(Rect(row0, c0, row1, c1), found))
        top = row1 + 1
        if top >= fabric.rows:
            break
        top_row = price(top, col0, top, col1)
        if top_row is None:
            break
        # every row of the kernel spans the same columns as the new top row
        row1 = top
        height += 1
        have = top_row[k] * height
    return out


def _expand_or_cross(
    fabric: Fabric,
    kernel: Kernel,
    needed: int,
    target: ResourceKind,
    blocked: ResourceKind | None,
) -> list[Kernel]:
    """Expansion that may cross scarce columns as a last resort.

    Staying clear of further scarce columns keeps them available for other
    modules, so that variant is tried first; when it finds nothing at any
    height the walk is repeated unblocked, since a rectangle hoarding a
    scarce column beats no rectangle at all.
    """
    out = expand_horizontal(fabric, kernel, needed, target, blocked)
    if not out and blocked is not None:
        out = expand_horizontal(fabric, kernel, needed, target, blocked=None)
    return out


def generate_module_placements(
    fabric: Fabric,
    module: ModuleSpec,
    cls: PriorityClass,
    ar_bounds: tuple[float, float] | None,
) -> list[PlacementCandidate]:
    """All candidate rectangles for one module, deduplicated, in a
    deterministic order."""
    req = module.req
    need_primary = req.of(cls.primary)

    kernels: list[Kernel] = []
    seen_kernels: set[Rect] = set()
    for row in range(fabric.rows):
        base = base_kernels_for_row(fabric, row, cls)
        for k in base + merge_row_kernels(fabric, base, need_primary, cls.primary):
            if k.rect not in seen_kernels:
                seen_kernels.add(k.rect)
                kernels.append(k)
    kernels.sort(key=lambda k: (k.rect.tile_count, k.rect.row0, k.rect.col0))

    accepted: list[PlacementCandidate] = []
    seen: set[Rect] = set()
    covering = 0
    seen_base: set[Rect] = set()
    seen_mid: set[Rect] = set()
    for kernel in kernels:
        if cls.secondary is None:
            # Single-kind modules: the sideways expansion serves the primary
            # resource itself and its upward loop covers the pure vertical
            # growth as the zero-column split.
            finals: Iterable[Kernel] = expand_horizontal(
                fabric, kernel, need_primary, cls.primary, blocked=None
            )
        else:
            # The minimal vertical satisfier comes first; recruiting further
            # primary columns sideways covers the layouts it cannot reach
            # (reserved ceilings, primary targets taller than the device).
            bases = []
            grown = expand_vertical(fabric, kernel, need_primary, cls.primary)
            if grown is not None:
                bases.append(grown)
            bases.extend(
                expand_horizontal(fabric, kernel, need_primary, cls.primary, blocked=None)
            )
            mids = []
            for base in bases:
                if base.rect in seen_base:
                    continue
                seen_base.add(base.rect)
                mids.extend(
                    _expand_or_cross(
                        fabric, base, req.of(cls.secondary), cls.secondary,
                        blocked=cls.primary,
                    )
                )
            if cls.tertiary is None:
                finals = mids
            else:
                finals = []
                for mid in mids:
                    if mid.rect in seen_mid:
                        continue
                    seen_mid.add(mid.rect)
                    finals.extend(
                        _expand_or_cross(
                            fabric, mid, req.of(cls.tertiary), cls.tertiary,
                            blocked=cls.primary,
                        )
                    )
        for cand in finals:
            if cand.rect in seen:
                continue
            seen.add(cand.rect)
            if not cand.resources.covers(req):
                continue
            covering += 1
            if ar_bounds is not None:
                ar = cand.rect.aspect_ratio
                if not ar_bounds[0] <= ar <= ar_bounds[1]:
                    continue
            accepted.append(
                PlacementCandidate(
                    module.id,
                    cand.rect,
                    cand.resources,
                    fabric.frames_of(cand.resources - req),
                    cand.rect.center,
                )
            )
    if not accepted:
        raise InfeasibleModuleError(
            module.id,
            "aspect-ratio bounds reject everything" if covering else "",
        )
    return accepted


def generate_placements(
    fabric: Fabric,
    design: Design,
    ar_bounds: tuple[float, float] | None = (0.2, 0.7),
) -> dict[str, list[PlacementCandidate]]:
    """Candidate lists for every module of a design.

    Modules are processed class by class (S1 through S4), each class in its
    scarcity-sorted order, so the output dict preserves that order. Raises
    InfeasibleModuleError for the first module without any candidate.
    """
    groups = classify_modules(design)
    out: dict[str, list[PlacementCandidate]] = {}
    for cls in PRIORITY_CLASSES:
        for module in groups[cls.tag]:
            out[module.id] = generate_module_placements(fabric, module, cls, ar_bounds)
    return out
