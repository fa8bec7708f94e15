"""Candidate scoring, module ordering and the trial-and-error placer.

Every candidate of a module is scored against the module's anchor point:
wastage in frames and Manhattan distance to the anchor are each normalized
to the module's own maxima and blended with the two objective weights.
Scoring only reorders the module's own tessellation candidates, best first,
and the placer reads their rects from that list. Modules are placed
frame-hungriest first by a depth-first search that takes the best-scored
rectangle not colliding with anything placed so far and backs up a level
whenever a module runs out of rectangles. Forward checking rejects a
placement as soon as it leaves a later module no free rectangle, and a
fail-first search takes over when that search spends its node budget. The
first complete assignment wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Sequence

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

# Node budgets of the two placer phases; a node is one tentative placement
# of one candidate. On fx70t designs with n=16 and occupancy 0.8/0.5/0.5,
# design seeds 0-5, phase 1 solves seeds 1, 2, 3 and 5 in at most 209
# nodes, phase 2 solves seed 0 in 18 nodes, and seed 4 exhausts both.
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
    dists = [abs(x - ax) + abs(y - ay) for x, y in (c.rect.center for c in candidates)]
    max_dist = max(dists)
    max_waste = max(c.wastage_frames for c in candidates)

    def key(pair: tuple[PlacementCandidate, float]) -> tuple[float, int, int, int]:
        cand, dist = pair
        wastage = cand.wastage_frames / max_waste if max_waste else 0.0
        distance = dist / max_dist if max_dist else 0.0
        return (
            alpha * wastage + beta * distance,
            cand.wastage_frames,
            cand.rect.row0,
            cand.rect.col0,
        )

    return [cand for cand, _ in sorted(zip(candidates, dists), key=key)]


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
    """First feasible floorplan by a two-phase search under node budgets.

    ``candidates`` maps each module to its candidates best first, as
    ``normalize_candidates`` returns them. Phase 1 is a depth-first search
    in module order that tries each module's candidates in that order, with
    forward checking: a placement that leaves some later module without a
    free candidate is rejected at once. It prunes only subtrees that hold
    no floorplan, so it finds the same first floorplan as plain depth-first
    search. When it spends ``FORWARD_CHECK_NODES`` nodes (tentative
    placements) without an answer, phase 2 searches afresh, always placing
    the module with the fewest free candidates left (fail-first; ties go to
    module order), under ``FAIL_FIRST_NODES`` nodes.

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
    rects = search.forward_checking(FORWARD_CHECK_NODES)
    if rects is None:
        rects = search.fail_first(FAIL_FIRST_NODES)
    return rects, search.backtracks


def _columns(c0: int, c1: int) -> int:
    """Bitmask of the columns ``c0..c1``."""
    return (2 << c1) - (1 << c0)


class _Search:
    """State the two placer phases share: limits, counters, the dead end.

    Occupancy is one column bitmask per device row, seeded with the
    reserved tiles, so a freedom test costs one AND per row of the rect.
    """

    def __init__(
        self,
        fabric: Fabric,
        order: list[str],
        options: list[Sequence[PlacementCandidate]],
        deadline: float | None,
    ) -> None:
        self.order = order
        self.options = options
        self.deadline = deadline
        self.rows, self.cols = fabric.rows, fabric.cols
        self.reserved = [0] * fabric.rows
        for r0, c0, r1, c1 in fabric.reserved_rects:
            for r in range(r0, r1 + 1):
                self.reserved[r] |= _columns(c0, c1)
        self.backtracks = 0
        self.deepest = 0  # most modules placed at once, counting rejected placements
        # (blocked module, modules placed) of the deepest rejected placement
        self.dead_end = ("", 0)

    def free_candidates(
        self, occupied: list[int], options: Sequence[PlacementCandidate], start: int = 0
    ) -> Iterator[tuple[int, Rect]]:
        """``(index, rect)`` of every candidate from ``start`` that is in
        bounds and off the ``occupied`` rows, in list order."""
        rows, cols = self.rows, self.cols
        for j, cand in enumerate(islice(options, start, None), start):
            rect = cand.rect
            r0, c0, r1, c1 = rect
            if 0 <= r0 <= r1 < rows and 0 <= c0 <= c1 < cols:
                mask = (2 << c1) - (1 << c0)  # _columns(c0, c1), inlined
                for row in occupied[r0 : r1 + 1]:
                    if row & mask:
                        break
                else:
                    yield j, rect

    def reject(self, placed: int, blocked: int) -> None:
        """Note a placement rejected because it left module ``blocked`` no candidate."""
        if placed > self.dead_end[1]:
            self.dead_end = (self.order[blocked], placed)
        self.deepest = max(self.deepest, placed)

    def check_clock(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise PlacementTimeoutError(self.deepest, len(self.order), "time")

    def forward_checking(self, budget: int) -> dict[str, Rect] | None:
        """Phase 1: module order, forward checking; None when ``budget`` runs out.

        Every unplaced module keeps a witness, the index of its first free
        candidate. A placement makes only the modules whose witness it
        overlaps rescan forward; a rescan that runs off the end rejects the
        placement. A trail of old witnesses restores them on backtrack.
        """
        order, options, n = self.order, self.options, len(self.order)
        occupied = list(self.reserved)
        free_candidates = self.free_candidates

        def first_free(k: int, start: int) -> int:
            """Index of module k's first free candidate from ``start``, else the list length."""
            found = next(free_candidates(occupied, options[k], start), None)
            return len(options[k]) if found is None else found[0]

        witness = []
        for k in range(n):
            w = first_free(k, 0)
            if w == len(options[k]):
                raise PlacementInfeasibleError(order[k], 0)
            witness.append(w)
        picks: list[int] = []  # candidate index per placed module
        marks: list[int] = []  # trail length before each placement
        trail: list[tuple[int, int]] = []  # (module, witness before its rescan)

        def undo(rect: Rect, mark: int) -> None:
            mask = _columns(rect.col0, rect.col1)
            for r in range(rect.row0, rect.row1 + 1):
                occupied[r] ^= mask
            while len(trail) > mark:
                k, w = trail.pop()
                witness[k] = w

        nodes = 0
        i = witness[0] if n else 0
        while len(picks) < n:
            depth = len(picks)
            if i == len(options[depth]):
                # no candidate left at this depth: back up a level
                if not picks:
                    raise PlacementInfeasibleError(*self.dead_end)
                self.backtracks += 1
                i = picks.pop()
                undo(options[depth - 1][i].rect, marks.pop())
                i = first_free(depth - 1, i + 1)
                continue
            if nodes == budget:
                return None
            nodes += 1
            self.check_clock()
            rect = options[depth][i].rect
            r0, c0, r1, c1 = rect
            mask = _columns(c0, c1)
            for r in range(r0, r1 + 1):
                occupied[r] |= mask
            mark = len(trail)
            blocked = None
            for k in range(depth + 1, n):
                w = witness[k]
                wr0, wc0, wr1, wc1 = options[k][w].rect
                if wc1 < c0 or wc0 > c1 or wr1 < r0 or wr0 > r1:
                    continue
                trail.append((k, w))
                witness[k] = w = first_free(k, w + 1)
                if w == len(options[k]):
                    blocked = k
                    break
            if blocked is None:
                picks.append(i)
                marks.append(mark)
                self.deepest = max(self.deepest, depth + 1)
                if depth + 1 < n:
                    i = witness[depth + 1]
            else:
                self.reject(depth + 1, blocked)
                undo(rect, mark)
                i = first_free(depth, i + 1)
        return {order[d]: options[d][i].rect for d, i in enumerate(picks)}

    def fail_first(self, budget: int) -> dict[str, Rect]:
        """Phase 2: fewest-candidates-first search, starting over, under ``budget``.

        Each frame places one module; placing a candidate filters every
        other unplaced module's list down to the rects it does not overlap,
        and a list that empties rejects the candidate.
        """
        order = self.order
        free = {
            k: [rect for _, rect in self.free_candidates(self.reserved, module_options)]
            for k, module_options in enumerate(self.options)
        }

        def fewest(domains: dict[int, list[Rect]]) -> int:
            return min(domains, key=lambda k: (len(domains[k]), k))

        # frames: [module, candidate lists of the unplaced modules, next index]
        stack = [[fewest(free), free, 0]]
        nodes = 0
        while stack:
            frame = stack[-1]
            k, domains, i = frame
            if i == len(domains[k]):
                stack.pop()
                if stack:
                    self.backtracks += 1
                continue
            if nodes == budget:
                raise PlacementTimeoutError(self.deepest, len(order), "nodes")
            nodes += 1
            self.check_clock()
            frame[2] = i + 1
            r0, c0, r1, c1 = domains[k][i]
            rest = {}
            for j, rects in domains.items():
                if j == k:
                    continue
                kept = [r for r in rects if r[3] < c0 or r[1] > c1 or r[2] < r0 or r[0] > r1]
                if not kept:
                    self.reject(len(stack), j)
                    break
                rest[j] = kept
            else:
                self.deepest = max(self.deepest, len(stack))
                if not rest:
                    chosen = {m: lists[m][tried - 1] for m, lists, tried in stack}
                    return {order[m]: chosen[m] for m in sorted(chosen)}
                stack.append([fewest(rest), rest, 0])
        raise PlacementInfeasibleError(*self.dead_end)


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
    ar = "off" if ar_bounds is None else f"{ar_bounds[0]:g} {ar_bounds[1]:g}"
    lines = [f"mode alpha {alpha:g} beta {beta:g} ar {ar}"]
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
