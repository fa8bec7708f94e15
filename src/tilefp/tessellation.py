"""Candidate placement generation by columnar kernel tessellation.

A module's resource kinds are taken scarcest first (``_kind_order``): DSP,
then BRAM, then CLB, each only if the module needs it. Placements are
grown from kernels: minimal rectangles seeded on the first kind. Kernels of
one row can merge into wider spans when a single column cannot provide
enough of it. Every kernel is then expanded once per kind in that order,
sideways (and upward) column by column until the kind's requirement is met.
Expansion enumerates every way of splitting the needed columns between the
left and the right side and emits a candidate at every reachable height,
which is what gives the aspect-ratio filter something to choose from.
Only rectangles pass from stage to stage; a rectangle is priced once, when
the last kind's expansion emits it and the aspect-ratio filter accepts it,
by the loop that also summarizes the list for later stages. A module's list
(``CandidateList``) is its accepted rects with their wastages alongside.
A rect holds its column span's per-row counts times its height, so it is
priced as the span's frames per row times its height, less the
requirement's frames. The loop computes each distinct column span once per
list, and each distinct row band once, in records keyed by one integer in
a dict: a table indexed by span would grow with the square of the device
width.

Each piece of work is done once. A module's candidates depend only on its
requirement, so ``generate_placements`` generates one list per distinct
requirement. Within a module, a rectangle that an expansion for some kind
has already emitted is skipped: reached again from another kernel, it would
be expanded (or judged) the same way. A later kind's kernels share column
spans at several heights, and a taller one walks a tail of a shorter one's
heights, so it is walked only when that walk could emit something new
(``_expand_or_cross``).

A module that does not pair DSP with BRAM (an unpaired module: one scarce
kind, or CLB alone) has a first stage in closed form (``_one_kind_rects``),
which gives the kernel walk's rects in the walk's order without walking.
With no pairing kind, for a need N the walk's kernels are the free tiles
of the first kind by (row, column) and, when N >= 2, the row spans over N
consecutive first-kind columns by (width, row, column): no bare tile holds
N, so the walk merges each span and drops those holding a reserved tile.
The first kind's walk is blocked by no kind, so it takes in every other
column on its way. A bare kernel's split reaching l >= 1 first-kind
columns to its left is the no-left split of the bare kernel on the l-th of
them, which comes earlier and has emitted it, so only the rightward split
counts: at height h it ends on first-kind column i + ceil(N/h) - 1 and is
dropped when that column does not exist or the rect holds a reserved
tile; the kernel grows until its own column meets a reserved tile or the
device top. A span holds N per row, so its one split is itself, which
grows while its columns stay free. Bare kernels differ in (row, column),
so their rects differ; a span's height-1 rect is the one the bare kernel
on its first column emitted, and a taller one ends on column i + N - 1,
right of the bare kernel's i + ceil(N/h) - 1. So no rect comes twice, and
no ``seen`` set is needed. The walk's per-kernel layers, joined end to
end, are this sequence, and each later kind's ``seen`` and ``grown``
state depends only on the sequence it reads, so the module's list is the
walk's. A CLB-only module is the case with no later kind.

A paired module keeps the kernel walk (``_paired_kernels`` seeds it),
both ways for every kernel: a bare DSP kernel (one whose pairing span
holds a reserved tile) may reach, on its left, a DSP column whose kernel
is paired rather than bare.

The module's public names are ``generate_placements``, the
``CandidateList`` it returns and ``InfeasibleModuleError``; every stage
above is internal to it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from .design import Design, ModuleSpec
from .fabric import Fabric, ResourceKind, ResourceVector

__all__ = ["CandidateList", "InfeasibleModuleError", "generate_placements"]

# A candidate (row0, col0, row1, col1), equal and hashing equal to its ``Rect``: a plain
# tuple, since CPython builds and unpacks only an exact tuple on its fast paths.
_Coords = tuple[int, int, int, int]

# (lo, hi, count, min_clb, min_bram, min_dsp): the ``count`` candidates of a list whose span
# along a cut axis is columns (or rows) lo..hi, and the least of each kind any of them holds.
_SpanGroup = tuple[int, int, int, int, int, int]


class InfeasibleModuleError(Exception):
    """A module has no valid placement anywhere on the fabric."""

    def __init__(self, module_id: str, reason: str = "") -> None:
        self.module_id = module_id
        msg = f"no valid placement for module {module_id!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class CandidateList(list):
    """A module's candidate rects, each a plain ``(row0, col0, row1, col1)``
    tuple that is equal, and hashes equal, to the ``Rect`` it names
    (``Rect._make`` gives the attributes back), with ``wastage``, a list of
    each rect's frames beyond the requirement, position by position, and
    the summaries made as the rects are priced: ``groups[axis]``, the
    ``_SpanGroup``s by column ("vertical") or row span ("horizontal") in
    first-appearance order; ``ties``, an array of positions by (wastage,
    row0, col0), equal keys in list order; ``max_waste``; and ``sums``, two
    ints above every col0 + col1 and every row0 + row1. A rect's wastage is
    its column span's frames per row times its height, less the
    requirement's frames, and each span and row band is computed once per
    list."""

    __slots__ = ("wastage", "groups", "ties", "max_waste", "sums")


def _kind_order(req: ResourceVector) -> tuple[ResourceKind, ...]:
    """The kinds a module's candidates are grown for, scarcest first.

    DSP if the module needs any, then BRAM if it needs any, then CLB always.
    """
    kinds = tuple(k for k in (ResourceKind.DSP, ResourceKind.BRAM) if req.of(k) > 0)
    return kinds + (ResourceKind.CLB,)


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


def _paired_kernels(fabric: Fabric, row: int) -> list[_Coords]:
    """Seed kernels of one row for a module that pairs DSP with BRAM, one
    per DSP column.

    Each kernel spans from its DSP column to the nearest BRAM column,
    including everything between; a span that would touch reserved tiles
    shrinks back to the bare DSP tile. Kernels whose own tile is reserved
    are dropped.
    """
    bram_cols = fabric.columns_of(ResourceKind.BRAM)
    kernels = []
    for c in fabric.columns_of(ResourceKind.DSP):
        near = _nearest_column(bram_cols, c)
        if near is None:
            continue
        paired = (row, min(c, near), row, max(c, near))
        if not fabric.reserved_tiles_in(paired):
            kernels.append(paired)
            continue
        bare = (row, c, row, c)
        if not fabric.reserved_tiles_in(bare):
            kernels.append(bare)
    return kernels


def _merge_row_kernels(
    fabric: Fabric,
    kernels: list[_Coords],
    needed: int,
    kind: ResourceKind,
) -> list[_Coords]:
    """Merge a row's kernels into wider spans when no single one suffices.

    If some kernel already holds ``needed`` tiles the input comes
    back unchanged. Otherwise, for every start kernel the span grows to the
    right one kernel at a time (absorbing all tiles between) and the first
    span that suffices is kept, unless it holds a reserved tile. Widening
    never lowers a span's kind count and never frees a reserved tile, so
    the first sufficient span is found from the kind prefix alone and is
    the only one checked for reserved tiles.
    """
    kind_prefix = fabric.prefix_tables[1][kind.index]
    if any(kind_prefix[c1 + 1] - kind_prefix[c0] >= needed for _, c0, _, c1 in kernels):
        return list(kernels)
    merged = []
    for i, (row, col0, _, col1) in enumerate(kernels):
        enough = kind_prefix[col0] + needed
        for j in range(i + 1, len(kernels)):
            col1 = max(col1, kernels[j][3])
            if kind_prefix[col1 + 1] >= enough:
                span = (row, col0, row, col1)
                if not fabric.reserved_tiles_in(span):
                    merged.append(span)
                break
    return merged


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


def _expand_horizontal(
    fabric: Fabric,
    kernel: _Coords,
    needed: int,
    target: ResourceKind,
    blocked: ResourceKind | None,
    seen: set[_Coords],
) -> tuple[list[_Coords], int]:
    """Expand sideways for ``target`` tiles, emitting at every height.

    At the current height the kernel needs some number N of target columns
    (each contributes one tile per row it spans). Every left/right split
    l + r = N is tried: the rectangle stretches to the l-th target column
    on the left and the r-th on the right, absorbing all columns between.
    Splits that run off the device, engulf reserved tiles or cross a
    ``blocked`` column are dropped. After the enumeration the kernel grows
    one clock region upward and the process repeats, so taller and narrower
    variants of the same footprint are emitted too.

    A split whose rect is already in ``seen`` is skipped; every emitted
    rect is added to ``seen``. The int returned with the rects is the
    highest ``row1`` at which some split was free of reserved tiles, seen
    ones included (``seen`` only ever holds emitted, hence free, rects), or
    -1 when no split at any height was free.
    """
    out = []
    free_row1 = -1
    row0, col0, row1, col1 = kernel
    # The columns stay fixed while the kernel grows upward, so the outward
    # walks are shared by every height; every split is in bounds.
    lefts = _columns_outward(fabric, col0, -1, target, blocked)
    rights = _columns_outward(fabric, col1, +1, target, blocked)
    reserved, kind_prefix = fabric.prefix_tables
    bottom = reserved[row0]
    k = target.index
    per_row = kind_prefix[k][col1 + 1] - kind_prefix[k][col0]  # same in every row
    height = row1 - row0 + 1
    while True:
        have = per_row * height
        n_cols = 0 if have >= needed else -((have - needed) // height)  # ceiling
        top = reserved[row1 + 1]
        for l in range(max(0, n_cols - len(rights)), min(n_cols, len(lefts)) + 1):
            r = n_cols - l
            c0 = lefts[l - 1] if l else col0
            c1 = rights[r - 1] if r else col1
            rect = (row0, c0, row1, c1)
            if rect in seen:
                free_row1 = row1
            elif not top[c1 + 1] - bottom[c1 + 1] - top[c0] + bottom[c0]:
                seen.add(rect)
                out.append(rect)
                free_row1 = row1
        if row1 + 1 >= fabric.rows:
            break
        above = reserved[row1 + 2]
        if above[col1 + 1] - top[col1 + 1] - above[col0] + top[col0]:
            break
        row1 += 1
        height += 1
    return out, free_row1


def _expand_or_cross(
    fabric: Fabric,
    layers: Iterable[list[_Coords]],
    needed: int,
    target: ResourceKind,
    blocked: ResourceKind,
) -> Iterator[list[_Coords]]:
    """A later kind's expansion of every rect in ``layers``, in order, one
    list per rect; it may cross scarce columns as a last resort.

    Staying clear of further scarce columns keeps them available for other
    modules, so that variant is tried first; when it finds no free split at
    any height the walk is repeated unblocked, since a rectangle hoarding a
    scarce column beats no rectangle at all. A blocked walk whose free
    splits were all seen before emits nothing and still needs no fallback.
    Nor does one whose first free split is taller, so it emits no one-row
    rect where the same kernel one row up, unable to grow, falls back and
    may: a kernel's one-row rects can therefore depend on its row.

    ``grown`` maps a column span ``(row0, col0, col1)`` to the tops a
    taller kernel over it may have and still emit nothing new: from the
    first kernel's ``row1`` up to its highest free ``row1``, or up to any
    height when it fell back. The taller kernel walks a tail of the first
    one's heights, with the same splits, all of them seen by now.
    """
    seen: set[_Coords] = set()
    grown: dict[tuple[int, int, int], tuple[int, int]] = {}
    for layer in layers:
        for kernel in layer:
            row0, col0, row1, col1 = kernel
            first = grown.get((row0, col0, col1))
            if first is not None and first[0] <= row1 <= first[1]:
                continue
            out, free_row1 = _expand_horizontal(fabric, kernel, needed, target, blocked, seen)
            if free_row1 < 0:
                out, _ = _expand_horizontal(fabric, kernel, needed, target, None, seen)
                free_row1 = fabric.rows
            if first is None:
                grown[row0, col0, col1] = (row1, free_row1)
            yield out


def _one_kind_rects(fabric: Fabric, kind: ResourceKind, need: int) -> list[_Coords]:
    """The rects the kernel walk emits for the first kind of an unpaired
    module, in its order: the bare kernels' rects, then the merged spans'
    taller ones (see the module docstring for why these are the walk's)."""
    cols = fabric.columns_of(kind)
    reserved = fabric.prefix_tables[0]
    rows = fabric.rows
    out: list[_Coords] = []
    append = out.append
    for row0 in range(rows):
        bottom = reserved[row0]
        for i, c in enumerate(cols):
            for row1 in range(row0, rows):
                top = reserved[row1 + 1]
                if top[c + 1] - bottom[c + 1] - top[c] + bottom[c]:
                    break
                j = i - (-need // (row1 - row0 + 1)) - 1
                if j < len(cols):
                    c1 = cols[j]
                    if not top[c1 + 1] - bottom[c1 + 1] - top[c] + bottom[c]:
                        append((row0, c, row1, c1))
    if need < 2:
        return out
    spans = sorted(
        (c1 - c0 + 1, row0, c0)
        for row0 in range(rows)
        for c0, c1 in zip(cols, cols[need - 1:])
    )
    for width, row0, c0 in spans:
        c1 = c0 + width - 1
        bottom = reserved[row0]
        for row1 in range(row0, rows):
            top = reserved[row1 + 1]
            if top[c1 + 1] - bottom[c1 + 1] - top[c0] + bottom[c0]:
                break
            if row1 > row0:
                append((row0, c0, row1, c1))
    return out


def _paired_rects(fabric: Fabric, need: int) -> Iterator[list[_Coords]]:
    """The first kind's (DSP) rects of a paired module's kernel walk, one
    list per kernel."""
    dsp = ResourceKind.DSP
    found: dict[_Coords, None] = {}
    for row in range(fabric.rows):
        base = _paired_kernels(fabric, row)
        found.update(dict.fromkeys(base + _merge_row_kernels(fabric, base, need, dsp)))
    # a rect reached again from another kernel is skipped
    seen: set[_Coords] = set()
    for kernel in sorted(found, key=lambda k: ((k[2] - k[0] + 1) * (k[3] - k[1] + 1), k[0], k[1])):
        # the first kind's own upward growth is the zero-column split
        yield _expand_horizontal(fabric, kernel, need, dsp, None, seen)[0]


def _generate_module_placements(
    fabric: Fabric,
    module: ModuleSpec,
    ar_bounds: tuple[float, float] | None,
) -> CandidateList:
    """All candidate rectangles for one module, deduplicated, in a
    deterministic order, with their wastages and the list's summaries.

    Each stage emits only rects that hold its kind's need, and later stages
    only widen or heighten a rect, so every rect of the last stage covers
    the requirement; it is priced and summarized only once the aspect-ratio
    window keeps it. The first stage of an unpaired module is
    ``_one_kind_rects``; only a module that pairs DSP with BRAM walks its
    first-kind kernels.
    """
    req = module.req
    req_frames = fabric.frames_of(req)
    first, *rest = kinds = _kind_order(req)
    layers: Iterable[list[_Coords]]
    if len(kinds) < 3:
        layers = [_one_kind_rects(fabric, first, req.of(first))]
    else:
        layers = _paired_rects(fabric, req.of(first))
    for kind in rest:
        layers = _expand_or_cross(fabric, layers, req.of(kind), kind, first)

    clb, bram, dsp = fabric.prefix_tables[1]
    w_clb, w_bram, w_dsp = (fabric.frames[kind] for kind in ResourceKind)
    rows, cols = fabric.rows, fabric.cols
    radix = max(rows, cols)  # above every row0 and col0
    accepted = CandidateList()
    wastages: list[int] = []
    ties: list[int] = []
    # col0 * cols + col1 -> [count, least height, clb, bram, dsp per row, frames per row]
    spans: dict[int, list[int]] = {}
    # row0 * rows + row1 -> [count, least clb, bram, dsp per row]
    bands: dict[int, list[int]] = {}
    covering = 0
    for layer in layers:
        covering += len(layer)
        for rect in layer:
            row0, col0, row1, col1 = rect
            height = row1 - row0 + 1
            if ar_bounds is not None:
                if not ar_bounds[0] <= (col1 - col0 + 1) / height <= ar_bounds[1]:
                    continue
            key = col0 * cols + col1
            s = spans.get(key)
            if s is None:
                c = clb[col1 + 1] - clb[col0]
                b = bram[col1 + 1] - bram[col0]
                d = dsp[col1 + 1] - dsp[col0]
                s = spans[key] = [1, height, c, b, d, c * w_clb + b * w_bram + d * w_dsp]
            else:
                s[0] += 1
                if height < s[1]:
                    s[1] = height
                c, b, d = s[2], s[3], s[4]
            wastage = s[5] * height - req_frames
            accepted.append(rect)
            wastages.append(wastage)
            ties.append((wastage * radix + row0) * radix + col0)
            key = row0 * rows + row1
            g = bands.get(key)
            if g is None:
                bands[key] = [1, c, b, d]
            else:
                g[0] += 1
                if c < g[1]:
                    g[1] = c
                if b < g[2]:
                    g[2] = b
                if d < g[3]:
                    g[3] = d
    if not accepted:
        reason = "aspect-ratio bounds reject everything" if covering else ""
        raise InfeasibleModuleError(module.id, reason)
    # a span's candidates hold its per-row counts times their height, which
    # is fixed within a band
    vertical = tuple(
        (*divmod(key, cols), n, c * h, b * h, d * h) for key, (n, h, c, b, d, _) in spans.items()
    )
    horizontal = []
    for key, (n, c, b, d) in bands.items():
        r0, r1 = divmod(key, rows)
        h = r1 - r0 + 1
        horizontal.append((r0, r1, n, c * h, b * h, d * h))
    accepted.groups = {"vertical": vertical, "horizontal": tuple(horizontal)}
    accepted.wastage = wastages
    accepted.ties = array("I", sorted(range(len(ties)), key=ties.__getitem__))
    accepted.max_waste = wastages[accepted.ties[-1]]
    accepted.sums = tuple(
        max(g[0] for g in groups) + max(g[1] for g in groups) + 1
        for groups in (vertical, horizontal)
    )
    return accepted


def generate_placements(
    fabric: Fabric,
    design: Design,
    ar_bounds: tuple[float, float] | None,
) -> dict[str, CandidateList]:
    """Candidate lists for every module of a design, in design order.

    A module's list depends only on its requirement, so it is generated
    once per distinct requirement and modules with equal ``req`` share one
    list object: treat every list as read-only. Raises
    InfeasibleModuleError for the first module, in design order, without
    any candidate.
    """
    by_req: dict[ResourceVector, CandidateList] = {}
    placements = {}
    for m in design.modules:
        if m.req not in by_req:
            by_req[m.req] = _generate_module_placements(fabric, m, ar_bounds)
        placements[m.id] = by_req[m.req]
    return placements

