"""The pipeline's entry point, candidate scoring, module ordering and the placer.

Every candidate of a module is scored against the module's anchor point:
wastage in frames and Manhattan distance to the anchor are each normalized
to the module's own maxima and blended with the two objective weights.
Scoring only reorders the module's own tessellation candidates, best first.
A candidate list is its rects, as plain tuples, and a parallel wastage
column; the placer makes a ``Rect`` only of each module's chosen one.
Scoring prepares nothing per list, since it reads the column and
tessellation's summaries of the list, and each module computes only its
distances, scores and sort.
The placer is one depth-first search, run with two module orders. Each
level places one module on its best-scored rectangle not colliding with
anything placed so far, and the search backs up a level whenever that
module runs out of rectangles. A module's free rectangles are a bitset in
its list's order, walked in the module's score order, so forward checking
rejects a placement that leaves an unplaced module none with a few integer
ANDs, and modules sharing a list share one overlap index. The first run
places modules frame-hungriest first; when it spends its node budget, a
second run starts over and always places the module with the fewest free
rectangles left (fail-first). The first complete assignment wins.

``run_floorplan`` is the one place the pipeline's stages are wired:
tessellation, anchors, scoring and ordering, then the placer.
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, le
from typing import IO, Callable, Iterator, Mapping, Sequence

from .bipartition import compute_anchors
from .design import Design
from .fabric import Fabric, Rect
from .tessellation import CandidateList, generate_placements

__all__ = [
    "FAIL_FIRST_NODES",
    "FORWARD_CHECK_NODES",
    "Floorplan",
    "PlacementInfeasibleError",
    "PlacementTimeoutError",
    "TIME_BUDGET",
    "floorplan_wastage",
    "floorplan_wirelength",
    "normalize_candidates",
    "order_modules",
    "run_floorplan",
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

# Seconds of wall clock after which the placer gives up: only a safety net,
# since the node budgets decide how the search ends.
TIME_BUDGET = 60.0

# A placer domain with at most 1/_SPARSE of its list's bits set is read bit
# by bit and sorted into score order; a fuller one is walked in score order,
# one bit test per position.
_SPARSE = 16


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


def run_floorplan(
    fabric: Fabric,
    design: Design,
    ar_bounds: tuple[float, float] | None,
    time_budget: float | None = TIME_BUDGET,
    log: IO[str] | None = None,
) -> Floorplan:
    """Floorplan ``design`` on ``fabric`` through every stage, in order.

    Tessellation keeps the rects whose width/height lies in ``ar_bounds``
    (None keeps all), ``compute_anchors`` writes one JSON line per halving
    solve to ``log``, candidates are scored with the design's weights, and
    the placer runs with ``time_budget`` seconds as its safety net. Each
    stage's failure propagates: InfeasibleModuleError,
    InfeasibleModelError, PlacementInfeasibleError or PlacementTimeoutError.
    The cyclic garbage collector is paused for the run and left as it was
    found, however the run ends. When a stage fails, the finished frames
    in the traceback are cleared first (their code and line numbers stay),
    so the collector does not resume over every candidate list.
    """
    # reference counting frees a run's acyclic tuples; the cyclic GC only rewalks them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _stages(fabric, design, ar_bounds, time_budget, log)
    except BaseException as exc:
        tb = exc.__traceback__.tb_next
        while tb is not None:
            tb.tb_frame.clear()
            tb = tb.tb_next
        raise
    finally:
        if collecting:
            gc.enable()


def _stages(
    fabric: Fabric,
    design: Design,
    ar_bounds: tuple[float, float] | None,
    time_budget: float | None,
    log: IO[str] | None,
) -> Floorplan:
    """The body of ``run_floorplan``: its frame holds every stage's data."""
    candidates = generate_placements(fabric, design, ar_bounds)
    anchors = compute_anchors(fabric, design, candidates, log=log)
    ranked = _rank(candidates, anchors, design.alpha, design.beta)
    order = order_modules(design, fabric)
    rects, backtracks = _place(fabric, order, candidates, ranked, time_budget)
    return Floorplan(
        rects,
        floorplan_wastage(rects, design, fabric),
        floorplan_wirelength(rects, design),
        backtracks,
    )


def _rank(
    candidates: Mapping[str, CandidateList],
    anchors: Mapping[str, tuple[float, float]],
    alpha: float,
    beta: float,
) -> dict[str, array]:
    """Each module's score order: its list's positions, best first."""
    return {m: _score_order(options, anchors[m], alpha, beta) for m, options in candidates.items()}


def _score_order(
    candidates: CandidateList, anchor: tuple[float, float], alpha: float, beta: float
) -> array:
    """The list's positions best first against ``anchor``, as a compact
    array, from the list's wastage column and tessellation's summaries."""
    if not candidates:
        raise ValueError("cannot score an empty candidate list")
    ax, ay = anchor
    # the float expressions of ``Rect.center``: dx[c0 + c1] is |(c0 + c1 + 1) / 2 - ax|
    cols, rows = candidates.sums
    dx = [abs((s + 1) / 2 - ax) for s in range(cols)]
    dy = [abs((s + 1) / 2 - ay) for s in range(rows)]
    dists = [dx[c0 + c1] + dy[r0 + r1] for r0, c0, r1, c1 in candidates]
    max_dist, max_waste = max(dists), candidates.max_waste
    scores = [
        alpha * (w / max_waste if max_waste else 0.0) + beta * (d / max_dist if max_dist else 0.0)
        for w, d in zip(candidates.wastage, dists)
    ]
    # a stable sort of the tie order: (score, wastage, row0, col0), full ties in list order
    return array("I", sorted(candidates.ties, key=scores.__getitem__))


def normalize_candidates(
    candidates: CandidateList,
    anchor: tuple[float, float],
    alpha: float,
    beta: float,
) -> list[Rect]:
    """One module's candidate rects scored against its anchor, best first.

    Wastage and the Manhattan distance from the rect's center to the anchor
    are divided by their maximum over the list (a zero maximum maps every
    value to zero) and blended as alpha * wastage + beta * distance.
    Sorting is ascending by that objective; ties fall back to raw wastage,
    then bottom-left position. The list's own rects come back in that order.
    ``candidates`` must carry tessellation's summaries (a ``CandidateList``),
    so the rects come back as its plain ``(row0, col0, row1, col1)`` tuples,
    equal to the ``Rect``s they name. ``run_floorplan`` scores every module
    the same way and keeps each module's order as list positions.
    """
    return [candidates[i] for i in _score_order(candidates, anchor, alpha, beta)]


def order_modules(design: Design, fabric: Fabric) -> list[str]:
    """Module ids sorted hungriest first: frame count down, then id up."""
    ranked = sorted(design.modules, key=lambda m: (-fabric.frames_of(m.req), m.id))
    return [m.id for m in ranked]


def trial_and_error_place(
    fabric: Fabric,
    ordered_modules: Sequence[str],
    candidates: Mapping[str, Sequence[Rect]],
    time_budget: float | None = TIME_BUDGET,
) -> tuple[dict[str, Rect], int]:
    """First feasible floorplan by one search, run in two phases under node budgets.

    ``candidates`` maps each module to its candidate rects best first, as
    ``normalize_candidates`` returns them; any sequences of ``Rect``s or of
    plain ``(row0, col0, row1, col1)`` tuples do.
    Each level of the depth-first search places one module, trying its
    candidates in that order; forward checking prunes only subtrees
    without a floorplan. Phase 1 takes module order, so it finds the first
    floorplan plain depth-first search finds, under ``FORWARD_CHECK_NODES``
    nodes (tentative placements). Phase 2 then searches afresh fail-first,
    ties going to module order, under ``FAIL_FIRST_NODES`` nodes.

    Returns the chosen rectangle per module as a ``Rect``, keyed in module
    order, and the number of times the search backed up a level in either
    phase. The node budgets decide the outcome, so it is the same on every
    machine; ``time_budget`` seconds is only an outer safety net. Raises
    PlacementInfeasibleError when a search proves that no floorplan exists
    and PlacementTimeoutError when a limit stops it first.
    """
    ranked = {module_id: range(len(options)) for module_id, options in candidates.items()}
    return _place(fabric, ordered_modules, candidates, ranked, time_budget)


def _place(
    fabric: Fabric,
    ordered_modules: Sequence[str],
    candidates: Mapping[str, Sequence[Rect]],
    ranked: Mapping[str, Sequence[int]],
    time_budget: float | None,
) -> tuple[dict[str, Rect], int]:
    """``trial_and_error_place`` with each module trying its list's
    positions in the order ``ranked`` gives."""
    order = list(ordered_modules)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    search = _Search(fabric, order, candidates, ranked, deadline)
    # the unplaced modules are a suffix of module order, so ``min`` takes the next one
    rects = search.run(FORWARD_CHECK_NODES, min)
    if rects is None:
        rects = search.run(FAIL_FIRST_NODES, _fewest)
    if rects is None:
        raise PlacementTimeoutError(search.deepest, len(order), "nodes")
    return rects, search.backtracks


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
    """Which candidates of one candidate list overlap a rect, as a bitset.

    Bit j is candidate j in list order, whatever order a module tries them
    in, so the modules that share a list share its index. A candidate
    overlaps rect R exactly when its row span meets R's and its column span
    meets R's, so the answer is the AND of four bound bitsets: row0 <=
    R.row1, row1 >= R.row0, col0 <= R.col1 and col1 >= R.col0. ``free``
    holds the candidates inside the device and off reserved tiles.
    """

    def __init__(self, rects: Sequence[Rect], fabric: Fabric) -> None:
        rows, cols = fabric.rows, fabric.cols
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

    A module's domain is a bitset over its candidate list, bit j set while
    candidate j is free; the module tries its free candidates in its score
    order, a permutation of the list's positions. Modules that share one
    list share one ``_Overlaps`` index. A placement clears the bits its
    rect overlaps from every unplaced module's domain. A module without a
    free candidate at the start raises PlacementInfeasibleError at once.
    """

    def __init__(
        self, fabric: Fabric, order: list[str],
        candidates: Mapping[str, Sequence[Rect]],
        ranked: Mapping[str, Sequence[int]], deadline: float | None,
    ) -> None:
        self.order, self.deadline = order, deadline
        self.options = [candidates[module_id] for module_id in order]
        self.ranked = [ranked[module_id] for module_id in order]
        self.positions: dict[int, list[int]] = {}
        indexes: dict[int, _Overlaps] = {}  # by list identity: modules sharing a list share it
        for options in self.options:
            if id(options) not in indexes:
                indexes[id(options)] = _Overlaps(options, fabric)
        self.overlaps = [indexes[id(options)] for options in self.options]
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

    def tries(self, k: int, live: int) -> Iterator[int]:
        """The set bits of module ``k``'s domain ``live``, in its score order.

        A domain with few bits left is read bit by bit and sorted by score
        position; a fuller one walks the score order and tests each bit.
        """
        ranked = self.ranked[k]
        if live.bit_count() * _SPARSE > len(ranked):
            return (j for j in ranked if live >> j & 1)
        bits = []
        while live:
            low = live & -live
            bits.append(low.bit_length() - 1)
            live ^= low
        if len(bits) > 1:
            bits.sort(key=self.position(k).__getitem__)
        return iter(bits)

    def position(self, k: int) -> list[int]:
        """Where each candidate of module ``k``'s list comes in its score
        order: the inverse of ``ranked[k]``, made on first use."""
        if k not in self.positions:
            position = self.positions[k] = [0] * len(self.ranked[k])
            for p, j in enumerate(self.ranked[k]):
                position[j] = p
        return self.positions[k]

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
        # frames: [module, domains of the unplaced modules, candidate tried, candidates left]
        k = choose(free)
        stack = [[k, free, -1, self.tries(k, free[k])]]
        nodes = 0
        while stack:
            frame = stack[-1]
            k, domains, _, walk = frame
            i = next(walk, -1)
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
            rect = options[k][i]
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
                    return {order[m]: Rect._make(options[m][tried]) for m, _, tried, _ in frames}
                k = choose(rest)
                stack.append([k, rest, -1, self.tries(k, rest[k])])
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
