"""Candidate scoring, module ordering and the trial-and-error placer.

Every candidate of a module is scored against the module's anchor point:
wastage in frames and Manhattan distance to the anchor are each normalized
to the module's own maxima and blended with the two objective weights.
Scoring only reorders the module's own tessellation candidates, best first.
The placer is one depth-first search, run with two module orders. Each
level places one module on its best-scored rectangle not colliding with
anything placed so far, and the search backs up a level whenever that
module runs out of rectangles. A module's free rectangles are a bitset over
its scored list, so forward checking rejects a placement that leaves an
unplaced module none with a few integer ANDs. The first run places modules
frame-hungriest first; when it spends its node budget, a second run starts
over and always places the module with the fewest free rectangles left
(fail-first). The first complete assignment wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, le
from typing import Callable, Mapping, Sequence

from .design import Design
from .fabric import Fabric, Rect
from .tessellation import PlacementCandidate

__all__ = [
    "FAIL_FIRST_NODES",
    "FORWARD_CHECK_NODES",
    "Floorplan",
    "PlacementInfeasibleError",
    "PlacementTimeoutError",
    "floorplan_wastage",
    "floorplan_wirelength",
    "normalize_candidates",
    "order_modules",
    "trial_and_error_place",
    "write_floorplan",
]

# Node budgets of the placer's two runs of one search: phase 1 in module
# order, phase 2 fail-first. A node is one tentative placement of one
# candidate. On fx70t designs with n=16 and occupancy 0.8/0.5/0.5, design
# seeds 0-5, phase 1 solves seeds 1, 2, 3 and 5 in at most 209 nodes,
# phase 2 solves seed 0 in 18 nodes, and seed 4 exhausts both.
FORWARD_CHECK_NODES = 1_000
FAIL_FIRST_NODES = 20_000


class PlacementInfeasibleError(Exception):
    """The search ran out of candidate combinations.

    ``module_id`` is the module left without a free candidate in the
    deepest search state, and ``placed`` the number of modules that state
    placed, counting the placement that left it none.
    """

    def __init__(self, module_id: str, placed: int) -> None:
        self.module_id = module_id
        self.placed = placed
        super().__init__(
            f"module {module_id!r} has no non-overlapping candidate left "
            f"(deepest search state placed {placed} modules)"
        )


class PlacementTimeoutError(Exception):
    """A search limit stopped the placer before a full floorplan was found.

    ``limit`` is ``"nodes"`` when the node budgets ran out and ``"time"``
    when the wall-clock budget did.
    """

    def __init__(self, placed: int, total: int, limit: str) -> None:
        self.placed = placed
        self.total = total
        self.limit = limit
        name = {"nodes": "search node", "time": "time"}[limit]
        super().__init__(
            f"{name} budget exhausted with {placed} of {total} modules placed"
        )


@dataclass(frozen=True)
class Floorplan:
    """Final rectangle per module plus the two quality metrics."""

    rects: dict[str, Rect]
    total_wastage_frames: int
    total_wirelength: float
    backtracks: int = 0


def normalize_candidates(
    candidates: Sequence[PlacementCandidate],
    anchor: tuple[float, float],
    alpha: float,
    beta: float,
) -> list[PlacementCandidate]:
    """One module's candidates scored against its anchor, best first.

    Wastage and the Manhattan distance from the rect's center to the anchor
    are divided by their maximum over the list (a zero maximum maps every
    value to zero) and blended as alpha * wastage + beta * distance.
    Sorting is ascending by that objective; ties fall back to raw wastage,
    then bottom-left position. The candidates come back as they are.
    """
    if not candidates:
        raise ValueError("cannot score an empty candidate list")
    ax, ay = anchor
    rects = [c.rect for c in candidates]
    wastes = [c.wastage_frames for c in candidates]
    # the float expressions of ``Rect.center``
    dists = [abs((c0 + c1 + 1) / 2 - ax) + abs((r0 + r1 + 1) / 2 - ay) for r0, c0, r1, c1 in rects]
    max_dist, max_waste = max(dists), max(wastes)
    scores = [
        alpha * (w / max_waste if max_waste else 0.0) + beta * (d / max_dist if max_dist else 0.0)
        for w, d in zip(wastes, dists)
    ]
    # (wastage, row0, col0) as one exact integer; tile coordinates are non-negative
    span = 1 + max(max(map(itemgetter(0), rects)), max(map(itemgetter(1), rects)))
    ties = [(w * span + r0) * span + c0 for (r0, c0, _, _), w in zip(rects, wastes)]
    # stable sorts: the order of (score, wastage, row0, col0), full ties in list order
    order = sorted(range(len(candidates)), key=ties.__getitem__)
    order.sort(key=scores.__getitem__)
    return [candidates[i] for i in order]


def order_modules(design: Design, fabric: Fabric) -> list[str]:
    """Module ids sorted hungriest first: frame count down, then id up."""
    ranked = sorted(design.modules, key=lambda m: (-fabric.frames_of(m.req), m.id))
    return [m.id for m in ranked]


def trial_and_error_place(
    fabric: Fabric,
    ordered_modules: Sequence[str],
    candidates: Mapping[str, Sequence[PlacementCandidate]],
    time_budget: float | None = 60.0,
) -> tuple[dict[str, Rect], int]:
    """First feasible floorplan by one search, run in two phases under node budgets.

    ``candidates`` maps each module to its candidates best first, as
    ``normalize_candidates`` returns them. The search is depth-first: each
    level places one module, trying its candidates in that order, with
    forward checking: a placement that leaves some unplaced module without a
    free candidate is rejected at once. That prunes only subtrees without a
    floorplan. The phases differ only in which module goes next. Phase 1
    takes module order, so it finds the first floorplan plain depth-first
    search finds. After ``FORWARD_CHECK_NODES`` nodes (tentative
    placements) without an answer, phase 2 searches afresh, always placing
    the module with the fewest free candidates left (ties go to module
    order), under ``FAIL_FIRST_NODES`` nodes.

    Returns the chosen rectangle per module, keyed in module order, and the
    number of times the search backed up a level in either phase. The node
    budgets decide the outcome, so it is the same on every machine;
    ``time_budget`` seconds is only an outer safety net. Raises
    PlacementInfeasibleError when a search proves that no floorplan exists
    and PlacementTimeoutError when a limit stops it first.
    """
    order = list(ordered_modules)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    search = _Search(fabric, order, [candidates[module_id] for module_id in order], deadline)
    # the unplaced modules are a suffix of module order, so ``min`` takes the next one
    rects = search.run(FORWARD_CHECK_NODES, min)
    if rects is None:
        rects = search.run(FAIL_FIRST_NODES, _fewest)
    if rects is None:
        raise PlacementTimeoutError(search.deepest, len(order), "nodes")
    return rects, search.backtracks


def _next(mask: int, i: int) -> int:
    """Index of the lowest set bit of ``mask`` above bit ``i``, else -1."""
    above = mask >> (i + 1) << (i + 1)
    return (above & -above).bit_length() - 1


def _bits(values: bytes, lo: int, hi: int) -> int:
    """Bitset of the positions whose byte is in ``lo..hi``, position -1 as bit 0."""
    hits = b"0" * lo + b"1" * (hi - lo + 1) + b"0" * (255 - hi)
    return int(values.translate(hits) or b"0", 2)


class _Bound(dict):
    """Bitset of the candidates whose coordinate is at most t, or at least t
    when ``at_least``, keyed by t and built on first use.

    Candidate j's coordinate is at position -1 - j of ``coords``: bytes
    when coordinates and t fit in a byte, so that ``_bits`` reads a bitset
    in one pass, else a list of ints compared one by one.
    """

    def __init__(self, coords: bytes | list[int], at_least: bool) -> None:
        self.coords, self.at_least = coords, at_least

    def __missing__(self, t: int) -> int:
        if isinstance(self.coords, bytes):
            mask = _bits(self.coords, t, 255) if self.at_least else _bits(self.coords, 0, t)
        else:
            compare = t.__le__ if self.at_least else t.__ge__
            mask = _bits(bytes(map(compare, self.coords)), 1, 1)
        self[t] = mask
        return mask


class _Overlaps:
    """Which candidates of one scored list overlap a rect, as a bitset.

    Bit j is candidate j. A candidate overlaps rect R exactly when its row
    span meets R's and its column span meets R's, so the answer is the AND
    of four bound bitsets: row0 <= R.row1, row1 >= R.row0, col0 <= R.col1
    and col1 >= R.col0. ``free`` holds the candidates inside the device and
    off reserved tiles.
    """

    def __init__(self, options: Sequence[PlacementCandidate], fabric: Fabric) -> None:
        rows, cols = fabric.rows, fabric.cols
        rects = [cand.rect for cand in options]
        flat = list(chain.from_iterable(rects))
        coords = [flat[k::4][::-1] for k in range(4)]  # row0, col0, row1, col1
        try:  # bytes, if all candidates lie inside a device of at most 256 rows and columns
            row0, col0, row1, col1 = packed = [bytes(c) for c in coords]
            inside = max(rows, cols) <= 256 and max(row1) < rows and max(col1) < cols
            inside = inside and all(map(le, row0, row1)) and all(map(le, col0, col1))
        except ValueError:  # a coordinate outside 0..255, or no candidates
            inside = False
        if inside:
            self.free, coords = (1 << len(rects)) - 1, packed
        else:
            fits = [0 <= r0 <= r1 < rows and 0 <= c0 <= c1 < cols for r0, c0, r1, c1 in rects]
            self.free = _bits(bytes(fits[::-1]), 1, 1)
        self.row0, self.col0 = _Bound(coords[0], False), _Bound(coords[1], False)
        self.row1, self.col1 = _Bound(coords[2], True), _Bound(coords[3], True)
        for rect in fabric.reserved_rects:
            self.free &= ~self(rect)

    def __call__(self, rect: Rect) -> int:
        r0, c0, r1, c1 = rect
        return self.row0[r1] & self.col0[c1] & self.row1[r0] & self.col1[c0]


class _Search:
    """The placer's search and the state its runs share: limits, counters, the dead end.

    A module's domain is a bitset over its scored candidate list, bit j set
    while candidate j is free. A placement clears the bits its rect
    overlaps, read from each module's ``_Overlaps`` index. A module without
    a free candidate at the start raises PlacementInfeasibleError at once.
    """

    def __init__(
        self, fabric: Fabric, order: list[str], options: list[Sequence[PlacementCandidate]],
        deadline: float | None,
    ) -> None:
        self.order, self.options, self.deadline = order, options, deadline
        self.overlaps = [_Overlaps(module_options, fabric) for module_options in options]
        for k, index in enumerate(self.overlaps):
            if not index.free:
                raise PlacementInfeasibleError(order[k], 0)
        self.backtracks = 0
        self.deepest = 0  # most modules placed at once, counting rejected placements
        # (blocked module, modules placed) of the deepest rejected placement
        self.dead_end = ("", 0)

    def reject(self, placed: int, blocked: int) -> None:
        """Note a placement rejected because it left module ``blocked`` no candidate."""
        if placed > self.dead_end[1]:
            self.dead_end = (self.order[blocked], placed)
        self.deepest = max(self.deepest, placed)

    def check_clock(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise PlacementTimeoutError(self.deepest, len(self.order), "time")

    def run(self, budget: int, choose: Callable[[dict[int, int]], int]) -> dict[str, Rect] | None:
        """One depth-first search from scratch; None when ``budget`` runs out.

        Raises PlacementInfeasibleError when the search proves that no
        floorplan exists.

        ``choose`` picks the next module from the domains of the unplaced
        ones, keyed by module index in module order. Each frame places that
        module; a candidate clears its overlaps from every other unplaced
        module's domain and is rejected if one empties, the first such
        module in module order being the blocked one.
        """
        order, options, overlaps = self.order, self.options, self.overlaps
        free = {k: index.free for k, index in enumerate(overlaps)}
        if not free:
            return {}
        # frames: [module, domains of the unplaced modules, last candidate tried]
        stack = [[choose(free), free, -1]]
        nodes = 0
        while stack:
            frame = stack[-1]
            k, domains, i = frame
            i = _next(domains[k], i)
            if i < 0:
                stack.pop()
                if stack:
                    self.backtracks += 1
                continue
            if nodes == budget:
                return None
            nodes += 1
            self.check_clock()
            frame[2] = i
            rect = options[k][i].rect
            rest = {}
            for j, live in domains.items():
                if j == k:
                    continue
                rest[j] = left = live & ~overlaps[j](rect)
                if not left:
                    self.reject(len(stack), j)
                    break
            else:
                self.deepest = max(self.deepest, len(stack))
                if not rest:
                    frames = sorted(stack, key=itemgetter(0))
                    return {order[m]: options[m][tried].rect for m, _, tried in frames}
                stack.append([choose(rest), rest, -1])
        raise PlacementInfeasibleError(*self.dead_end)


def _fewest(domains: dict[int, int]) -> int:
    """The module with the fewest free candidates; ties go to module order."""
    return min(domains, key=lambda k: (domains[k].bit_count(), k))


def floorplan_wastage(
    placements: Mapping[str, Rect], design: Design, fabric: Fabric
) -> int:
    """Frames inside the chosen rectangles beyond their requirements."""
    total = 0
    for module in design.modules:
        have = fabric.available_in_rect(placements[module.id])
        total += fabric.frames_of(have - module.req)
    return total


def floorplan_wirelength(placements: Mapping[str, Rect], design: Design) -> float:
    """Signal-weighted Manhattan distance between connected region centers."""
    total = 0.0
    for conn in design.connections:
        ax, ay = placements[conn.a].center
        bx, by = placements[conn.b].center
        total += conn.signals * (abs(ax - bx) + abs(ay - by))
    return total


def _number(x: float) -> str:
    """``x`` in ``:g`` form when that parses back to ``x``, else in full."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def write_floorplan(
    floorplan: Floorplan,
    design: Design,
    fabric: Fabric,
    alpha: float,
    beta: float,
    ar_bounds: tuple[float, float] | None,
) -> str:
    """Serialize a floorplan to its line-oriented document form.

    The first line records the run mode (weights and aspect-ratio window),
    one ``place`` line per module gives its rectangle, its requirement and
    its wastage so checkers need nothing but this document and the fabric,
    and the ``total`` line closes with the aggregate metrics.
    """
    ar = "off" if ar_bounds is None else f"{_number(ar_bounds[0])} {_number(ar_bounds[1])}"
    lines = [f"mode alpha {_number(alpha)} beta {_number(beta)} ar {ar}"]
    for module_id, rect in floorplan.rects.items():
        req = design.module(module_id).req
        waste = fabric.frames_of(fabric.available_in_rect(rect) - req)
        lines.append(
            f"place {module_id} {rect.row0} {rect.col0} {rect.row1} {rect.col1} "
            f"{req.clb} {req.bram} {req.dsp} {waste}"
        )
    lines.append(
        f"total wastage {floorplan.total_wastage_frames} "
        f"wirelength {round(floorplan.total_wirelength)} "
        f"backtracks {floorplan.backtracks}"
    )
    return "\n".join(lines) + "\n"
