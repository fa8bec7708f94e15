"""Shared brute-force oracles for the test suite.

These enumerate exhaustively and independently of the production code, so
tests can compare algorithm output against ground truth on small inputs.
Each rule they share with the pipeline (the kind order, the base kernels,
a halving's objective and capacity rows, a rect's tile counts) is
transcribed here from the paper and the module docstrings; from tilefp they
import only data types, parsers, exceptions and the placer's node budgets,
which ``test_public_api`` checks.
"""

import math
import time
from array import array
from itertools import combinations, islice, product
from typing import NamedTuple

from tilefp import place
from tilefp.bipartition import _BqpModel, _SideData
from tilefp.fabric import Fabric, FabricError, Rect, ResourceKind, ResourceVector
from tilefp.place import PlacementInfeasibleError, PlacementTimeoutError
from tilefp.tessellation import CandidateList, InfeasibleModuleError


class Candidate(NamedTuple):
    """The oracles' record of one admissible rect: its tile counts and its
    wastage. The pipeline keeps only the rect and the wastage, in a
    ``CandidateList`` and its ``wastage`` column."""

    rect: Rect
    resources: ResourceVector
    wastage_frames: int


def candidate_records(fabric, candidates):
    """A ``CandidateList``'s rects and wastages as oracle records, each rect
    a ``Rect`` and its tile counts recounted by ``resources_in_rect``."""
    return [
        Candidate(Rect._make(rect), resources_in_rect(fabric, rect), wastage)
        for rect, wastage in zip(candidates, candidates.wastage, strict=True)
    ]


def as_columns(records):
    """Oracle records as a ``CandidateList``'s two columns: the rects and
    their wastages."""
    return [c.rect for c in records], [c.wastage_frames for c in records]


def resources_in_rect(fabric, rect):
    """Tile counts by kind inside ``rect``, reserved tiles included: each
    column's kind times the rect's height. FabricError when ``rect`` leaves
    the fabric. ``rect`` may be a ``Rect`` or a plain 4-tuple."""
    rect = Rect._make(rect)
    if not fabric.in_bounds(rect):
        raise FabricError(f"rect out of bounds: {rect}")
    kinds = [fabric.kind_of(c) for c in range(rect.col0, rect.col1 + 1)]
    return ResourceVector(*(kinds.count(kind) * rect.height for kind in ResourceKind))


def is_free_rect(fabric, rect, occupied=()):
    """True when ``rect`` is in bounds, off reserved tiles and off
    ``occupied``; each rect may be a ``Rect`` or a plain 4-tuple."""
    rect = Rect._make(rect)
    return (
        fabric.in_bounds(rect)
        and not fabric.reserved_tiles_in(rect)
        and not any(rect.overlaps(Rect._make(other)) for other in occupied)
    )


def aspect_ratio(rect):
    """Width over height of a ``Rect`` or a plain 4-tuple."""
    rect = Rect._make(rect)
    return rect.width / rect.height


def brute_force_rects(fabric, req, ar_bounds):
    """Every rect that covers ``req``, avoids reserved tiles and fits the
    aspect-ratio bounds. Returns a dict rect -> wastage frames."""
    out = {}
    for r0 in range(fabric.rows):
        for r1 in range(r0, fabric.rows):
            for c0 in range(fabric.cols):
                for c1 in range(c0, fabric.cols):
                    rect = Rect(r0, c0, r1, c1)
                    if fabric.reserved_tiles_in(rect):
                        continue
                    res = resources_in_rect(fabric, rect)
                    if not res.covers(req):
                        continue
                    if ar_bounds is not None:
                        ar = rect.width / rect.height
                        if not ar_bounds[0] <= ar <= ar_bounds[1]:
                            continue
                    out[rect] = fabric.frames_of(res - req)
    return out


def columns_outward_walk(fabric, start, step, target, blocked):
    """Target-kind columns met walking outward from ``start`` one column at
    a time; a ``blocked`` column ends the walk."""
    out = []
    c = start + step
    while 0 <= c < fabric.cols:
        kind = fabric.kind_of(c)
        if blocked is not None and kind is blocked:
            break
        if kind is target:
            out.append(c)
        c += step
    return out


def expand_horizontal_walk(fabric, rect, needed, target, blocked):
    """Reference sideways expansion: redo both column walks and recount the
    rect at every height, then try every left/right split in order."""
    out = []
    while True:
        have = resources_in_rect(fabric, rect).of(target)
        n_cols = 0 if have >= needed else math.ceil((needed - have) / rect.height)
        lefts = columns_outward_walk(fabric, rect.col0, -1, target, blocked)
        rights = columns_outward_walk(fabric, rect.col1, +1, target, blocked)
        for l in range(n_cols + 1):
            r = n_cols - l
            if l > len(lefts) or r > len(rights):
                continue
            col0 = lefts[l - 1] if l else rect.col0
            col1 = rights[r - 1] if r else rect.col1
            grown = Rect(rect.row0, col0, rect.row1, col1)
            if fabric.reserved_tiles_in(grown):
                continue
            out.append(grown)
        top = rect.row1 + 1
        if top >= fabric.rows:
            break
        if fabric.reserved_tiles_in(Rect(top, rect.col0, top, rect.col1)):
            break
        rect = Rect(rect.row0, rect.col0, top, rect.col1)
    return out


def kind_order_walk(req):
    """The kinds a module's candidates grow through, scarcest first: DSP if
    the module needs any, then BRAM if it needs any, then CLB, even at a
    need of zero."""
    scarce = [kind for kind in (ResourceKind.DSP, ResourceKind.BRAM) if req.of(kind)]
    return (*scarce, ResourceKind.CLB)


def base_kernels_walk(fabric, row, kinds):
    """Reference seed kernels of one row, one per column of the first kind
    ``kinds[0]``, left to right. A module that pairs DSP with BRAM seeds
    each DSP tile with the span from it to the nearest BRAM column, ties to
    the left; when that span holds a reserved tile the kernel is the bare
    DSP tile. Any other module seeds the bare tiles of its first kind. A
    kernel on a reserved tile, or a paired one with no BRAM column at all,
    is dropped."""
    paired = ResourceKind.DSP in kinds and ResourceKind.BRAM in kinds
    brams = [c for c in range(fabric.cols) if fabric.kind_of(c) is ResourceKind.BRAM]
    kernels = []
    for c in range(fabric.cols):
        if fabric.kind_of(c) is not kinds[0]:
            continue
        bare = Rect(row, c, row, c)
        if paired:
            if not brams:
                continue
            near = min(brams, key=lambda b: (abs(b - c), b))
            span = Rect(row, min(c, near), row, max(c, near))
            if not fabric.reserved_tiles_in(span):
                kernels.append(span)
                continue
        if not fabric.reserved_tiles_in(bare):
            kernels.append(bare)
    return kernels


def merge_row_kernels_walk(fabric, kernels, needed, kind):
    """Reference row merge: when no kernel holds ``needed`` tiles, every
    start kernel widens to the right one kernel at a time, each span priced
    in full, up to the first span that suffices or holds a reserved tile."""
    if any(resources_in_rect(fabric, k).of(kind) >= needed for k in kernels):
        return list(kernels)
    merged = []
    for i, (row, col0, _, col1) in enumerate(kernels):
        for j in range(i + 1, len(kernels)):
            col1 = max(col1, kernels[j].col1)
            span = Rect(row, col0, row, col1)
            if fabric.reserved_tiles_in(span):
                break
            if resources_in_rect(fabric, span).of(kind) >= needed:
                merged.append(span)
                break
    return merged


def module_placements_walk(fabric, module, ar_bounds):
    """Reference module tessellation on ``expand_horizontal_walk``: every
    expansion is priced in full and duplicates are dropped only afterwards,
    per kind. A blocked expansion that emits nothing is redone unblocked.
    Every final rect is priced and kept only if it covers the requirement."""
    req = module.req
    first, *rest = kinds = kind_order_walk(req)
    kernels = []
    for row in range(fabric.rows):
        base = base_kernels_walk(fabric, row, kinds)
        kernels += base + merge_row_kernels_walk(fabric, base, req.of(first), first)
    kernels = sorted(dict.fromkeys(kernels), key=lambda k: (k.tile_count, k.row0, k.col0))

    accepted = []
    seen = set()
    covering = 0
    seen_stage = [set() for _ in rest]
    for kernel in kernels:
        layer = expand_horizontal_walk(fabric, kernel, req.of(first), first, None)
        for kind, seen_here in zip(rest, seen_stage):
            grown = []
            for k in layer:
                if k in seen_here:
                    continue
                seen_here.add(k)
                out = expand_horizontal_walk(fabric, k, req.of(kind), kind, first)
                if not out:
                    out = expand_horizontal_walk(fabric, k, req.of(kind), kind, None)
                grown.extend(out)
            layer = grown
        for rect in layer:
            if rect in seen:
                continue
            seen.add(rect)
            res = resources_in_rect(fabric, rect)
            if not res.covers(req):
                continue
            covering += 1
            if ar_bounds is not None and not (
                ar_bounds[0] <= rect.width / rect.height <= ar_bounds[1]
            ):
                continue
            accepted.append(Candidate(rect, res, fabric.frames_of(res - req)))
    if not accepted:
        raise InfeasibleModuleError(
            module.id, "aspect-ratio bounds reject everything" if covering else ""
        )
    return accepted


def normalize_candidates_walk(candidates, anchor, alpha, beta):
    """Reference scorer: sort the candidates by the tuple key (objective,
    wastage, row0, col0), the distance measured from ``Rect.center``."""
    if not candidates:
        raise ValueError("cannot score an empty candidate list")
    ax, ay = anchor
    dists = [abs(x - ax) + abs(y - ay) for x, y in (c.rect.center for c in candidates)]
    max_dist = max(dists)
    max_waste = max(c.wastage_frames for c in candidates)

    def key(pair):
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


def span_groups_walk(candidates, axis):
    """Reference span groups: one ``(lo, hi, count, min_clb, min_bram,
    min_dsp)`` per distinct column span (vertical) or row span
    (horizontal), in the order the spans first appear, with the least of
    each resource kind over the candidates' own ``resources``."""
    groups = {}
    for cand in candidates:
        r0, c0, r1, c1 = cand.rect
        key = (c0, c1) if axis == "vertical" else (r0, r1)
        count, least = groups.get(key, (0, tuple(cand.resources)))
        groups[key] = (count + 1, tuple(map(min, least, cand.resources)))
    return tuple((lo, hi, count, *least) for (lo, hi), (count, least) in groups.items())


def tie_order_walk(candidates):
    """List positions sorted by the tuple (wastage, row0, col0); a stable
    sort, so equal keys keep list order."""
    def key(j):
        return candidates[j].wastage_frames, candidates[j].rect.row0, candidates[j].rect.col0

    return sorted(range(len(candidates)), key=key)


def coordinate_sums_walk(candidates):
    """``(max col0 + max col1 + 1, max row0 + max row1 + 1)`` over the list."""
    rects = [c.rect for c in candidates]
    col = max(r.col0 for r in rects) + max(r.col1 for r in rects) + 1
    row = max(r.row0 for r in rects) + max(r.row1 for r in rects) + 1
    return col, row


def summarized(candidates, cls=CandidateList):
    """The ``Candidate`` records ``candidates`` as a ``cls``
    (``CandidateList`` or a subclass): their rects, their wastage column
    and the summaries tessellation would attach, computed by the walks
    above from the records, so that a hand-built list can enter anchors
    and scoring. An empty list gets empty summaries."""
    out = cls(c.rect for c in candidates)
    out.wastage = [c.wastage_frames for c in candidates]
    out.groups = {axis: span_groups_walk(candidates, axis) for axis in ("vertical", "horizontal")}
    out.ties = array("I", tie_order_walk(candidates))
    out.max_waste = max(out.wastage, default=0)
    out.sums = coordinate_sums_walk(candidates) if candidates else (0, 0)
    return out


def dfs_place_walk(fabric, ordered_modules, candidates, time_budget=60.0):
    """Reference placer: plain depth-first search in module order that
    takes each module's first candidate rect in list order that is free of
    reserved tiles and of every rect placed so far, and backs up a level
    when a module runs out. Returns ``(rects, backtracks)``."""
    order = list(ordered_modules)
    for module_id in order:
        if not candidates[module_id]:
            raise PlacementInfeasibleError(module_id, 0)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    chosen = {}
    next_try = [0] * len(order)
    backtracks = 0
    deepest = 0
    depth = 0
    while 0 <= depth < len(order):
        if deadline is not None and time.monotonic() >= deadline:
            raise PlacementTimeoutError(deepest, len(order), "time")
        module_id = order[depth]
        options = candidates[module_id]
        placed = None
        i = next_try[depth]
        while i < len(options):
            rect = options[i]
            if is_free_rect(fabric, rect, chosen.values()):
                placed = rect
                break
            i += 1
        if placed is None:
            next_try[depth] = 0
            depth -= 1
            if depth >= 0:
                del chosen[order[depth]]
                backtracks += 1
        else:
            chosen[module_id] = placed
            next_try[depth] = i + 1
            depth += 1
            deepest = max(deepest, depth)
    if depth < 0:
        raise PlacementInfeasibleError(order[deepest], deepest)
    return chosen, backtracks


def two_phase_place_walk(fabric, ordered_modules, candidates, time_budget=60.0):
    """Reference two-phase placer: the same search as
    ``place.trial_and_error_place`` over occupancy masks instead of
    candidate bitsets. Phase 1 is depth-first search in module order with
    forward checking by witness rescans, phase 2 a fail-first search over
    filtered rect lists; the node budgets are read from ``place`` at call
    time, so tests may patch them. Returns ``(rects, backtracks)`` and
    raises the placer's exceptions with the same fields."""
    order = list(ordered_modules)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    search = _WitnessSearch(fabric, order, [candidates[m] for m in order], deadline)
    rects = search.forward_checking(place.FORWARD_CHECK_NODES)
    if rects is None:
        rects = search.fail_first(place.FAIL_FIRST_NODES)
    return rects, search.backtracks


def _column_mask(c0, c1):
    """Bitmask of the columns ``c0..c1``."""
    return (2 << c1) - (1 << c0)


class _WitnessSearch:
    """The two placer phases over per-row column bitmasks of occupancy.

    Phase 1 keeps a witness per unplaced module (its first free candidate)
    and rescans a module's list only when a placement covers its witness;
    phase 2 filters every unplaced module's rect list after each placement.
    """

    def __init__(self, fabric, order, options, deadline):
        self.order = order
        self.options = options
        self.deadline = deadline
        self.rows, self.cols = fabric.rows, fabric.cols
        self.reserved = [0] * fabric.rows
        for r0, c0, r1, c1 in fabric.reserved_rects:
            for r in range(r0, r1 + 1):
                self.reserved[r] |= _column_mask(c0, c1)
        self.backtracks = 0
        self.deepest = 0  # most modules placed at once, counting rejected placements
        # (blocked module, modules placed) of the deepest rejected placement
        self.dead_end = ("", 0)

    def free_candidates(self, occupied, options, start=0):
        """``(index, rect)`` of every candidate from ``start`` that is in
        bounds and off the ``occupied`` rows, in list order."""
        rows, cols = self.rows, self.cols
        for j, rect in enumerate(islice(options, start, None), start):
            r0, c0, r1, c1 = rect
            if 0 <= r0 <= r1 < rows and 0 <= c0 <= c1 < cols:
                mask = (2 << c1) - (1 << c0)  # _column_mask(c0, c1), inlined
                for row in occupied[r0 : r1 + 1]:
                    if row & mask:
                        break
                else:
                    yield j, rect

    def reject(self, placed, blocked):
        """Note a placement rejected because it left module ``blocked`` no candidate."""
        if placed > self.dead_end[1]:
            self.dead_end = (self.order[blocked], placed)
        self.deepest = max(self.deepest, placed)

    def check_clock(self):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise PlacementTimeoutError(self.deepest, len(self.order), "time")

    def forward_checking(self, budget):
        """Phase 1: module order, forward checking; None when ``budget`` runs out.

        Every unplaced module keeps a witness, the index of its first free
        candidate. A placement makes only the modules whose witness it
        overlaps rescan forward; a rescan that runs off the end rejects the
        placement. A trail of old witnesses restores them on backtrack.
        """
        order, options, n = self.order, self.options, len(self.order)
        occupied = list(self.reserved)
        free_candidates = self.free_candidates

        def first_free(k, start):
            """Index of module k's first free candidate from ``start``, else the list length."""
            found = next(free_candidates(occupied, options[k], start), None)
            return len(options[k]) if found is None else found[0]

        witness = []
        for k in range(n):
            w = first_free(k, 0)
            if w == len(options[k]):
                raise PlacementInfeasibleError(order[k], 0)
            witness.append(w)
        picks = []  # candidate index per placed module
        marks = []  # trail length before each placement
        trail = []  # (module, witness before its rescan)

        def undo(rect, mark):
            mask = _column_mask(rect.col0, rect.col1)
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
                undo(options[depth - 1][i], marks.pop())
                i = first_free(depth - 1, i + 1)
                continue
            if nodes == budget:
                return None
            nodes += 1
            self.check_clock()
            rect = options[depth][i]
            r0, c0, r1, c1 = rect
            mask = _column_mask(c0, c1)
            for r in range(r0, r1 + 1):
                occupied[r] |= mask
            mark = len(trail)
            blocked = None
            for k in range(depth + 1, n):
                w = witness[k]
                wr0, wc0, wr1, wc1 = options[k][w]
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
        return {order[d]: options[d][i] for d, i in enumerate(picks)}

    def fail_first(self, budget):
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

        def fewest(domains):
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


def first_feasible_assignment(fabric, candidate_lists):
    """First non-overlapping pick across ordered candidate rect lists, scanning
    index tuples in lexicographic order. Exponential; keep inputs tiny."""
    for combo in product(*(range(len(lst)) for lst in candidate_lists)):
        rects = [lst[i] for lst, i in zip(candidate_lists, combo)]
        ok = True
        for i in range(len(rects)):
            if fabric.reserved_tiles_in(rects[i]):
                ok = False
                break
            for j in range(i + 1, len(rects)):
                if rects[i].overlaps(rects[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return combo
    return None


def random_fabric(rng, max_rows=4, max_cols=20, reserve_chance=0.3):
    """Small random fabric with mixed columns and sometimes a reserved block."""
    rows = rng.randrange(2, max_rows + 1)
    cols = rng.randrange(6, max_cols + 1)
    kinds = "".join(rng.choice("CCCCCBD") for _ in range(cols))
    if "C" not in kinds:
        kinds = "C" + kinds[1:]
    reserved = []
    if rng.random() < reserve_chance:
        r0 = rng.randrange(rows)
        c0 = rng.randrange(cols)
        r1 = min(rows - 1, r0 + rng.randrange(2))
        c1 = min(cols - 1, c0 + rng.randrange(3))
        reserved.append(Rect(r0, c0, r1, c1))
    return Fabric(rows, kinds, reserved)


def random_requirement(rng, fabric):
    """Requirement that the fabric can in principle satisfy somewhere."""
    avail = fabric.available_in_rect(fabric.bounds)
    clb = rng.randrange(1, max(2, avail.clb // 2 + 1))
    bram = rng.randrange(0, max(1, avail.bram // 2) + 1) if rng.random() < 0.5 else 0
    dsp = rng.randrange(0, max(1, avail.dsp // 2) + 1) if rng.random() < 0.5 else 0
    return ResourceVector(clb, bram, dsp)


def pair_cut_cost(n_ij, m_i, m_j, w_i0, w_i1, w_j0, w_j1):
    """Cost of a connection between two free variables at sides ``m_i`` and
    ``m_j``, as the expanded quadratic form of the cut rule."""
    if m_i == m_j:
        # the quadratic term cancels the linear ones exactly; evaluating
        # the full expression would leave rounding residue below zero
        return 0.0
    both = w_i0 + w_i1 + w_j0 + w_j1
    return n_ij * (m_i * (w_i1 + w_j0) + m_j * (w_i0 + w_j1) - m_i * m_j * both)


def external_cut_cost(n_ie, m_i, w_i0, w_i1, external_side, w_e):
    """Cost of a connection from a free variable at side ``m_i`` to a module
    settled at ``external_side`` with extent ``w_e``."""
    if external_side == 0:
        return n_ie * m_i * (w_i1 + w_e)
    return n_ie * (1 - m_i) * (w_i0 + w_e)


def cut_cost_walk(data, connections, anchors, extents, child1, axis):
    """The linear costs, pair corners and constant of ``_build_bqp``, summed
    connection by connection: ``pair_cut_cost`` between two free
    variables, ``external_cut_cost`` from a free variable to a settled
    module, and the signal count times both extents between two settled
    modules on opposite sides. A fixed member is settled at its forced
    side; any other module at the side of ``child1``'s near edge its anchor
    falls on (the edge itself counts as side 0), with its entry in
    ``extents`` or 0."""
    by_id = {d.module_id: d for d in data}
    free = [d for d in data if not d.parent_only and d.forced_side is None]
    index = {d.module_id: i for i, d in enumerate(free)}
    edge, coord = (child1.col0, 0) if axis == "vertical" else (child1.row0, 1)

    def settled(module_id):
        d = by_id.get(module_id)
        if d is not None and d.forced_side is not None:
            return d.forced_side, (d.w0, d.w1)[d.forced_side]
        return int(anchors[module_id][coord] > edge), extents.get(module_id, 0.0)

    linear = [[0.0, 0.0] for _ in free]
    pairs = {}
    const = 0.0
    for conn in connections:
        a, b, n = conn.a, conn.b, conn.signals
        if a not in by_id and b not in by_id:
            continue
        if a in index and b in index:
            i, j = sorted((index[a], index[b]))
            wi, wj = (free[i].w0, free[i].w1), (free[j].w0, free[j].w1)
            old = pairs.get((i, j), ((0.0, 0.0), (0.0, 0.0)))
            pairs[(i, j)] = tuple(
                tuple(old[vi][vj] + pair_cut_cost(n, vi, vj, *wi, *wj) for vj in (0, 1))
                for vi in (0, 1)
            )
        elif a in index or b in index:
            if b in index:
                a, b = b, a
            side, w_e = settled(b)
            for v in (0, 1):
                linear[index[a]][v] += external_cut_cost(n, v, by_id[a].w0, by_id[a].w1, side, w_e)
        else:
            (side_a, w_a), (side_b, w_b) = settled(a), settled(b)
            if side_a != side_b:
                const += n * (w_a + w_b)
    return [tuple(costs) for costs in linear], pairs, const


def random_bqp_model(rng, n_vars):
    """Side-assignment model with random costs and mild capacity pressure."""
    linear = []
    occ0, occ1 = [], []
    for _ in range(n_vars):
        linear.append((float(rng.randint(0, 8)), float(rng.randint(0, 8))))
        occ0.append((rng.randint(0, 3), rng.randint(0, 2), 0))
        occ1.append((rng.randint(0, 3), rng.randint(0, 2), 0))
    pairs = {}
    for i, j in combinations(range(n_vars), 2):
        if rng.random() < 0.4:
            w = [rng.randint(0, 4) for _ in range(4)]
            n = rng.randint(1, 8)
            pairs[(i, j)] = (
                (0.0, float(n * (w[0] + w[3]))),
                (float(n * (w[1] + w[2])), 0.0),
            )
    cap = max(2, (3 * n_vars) // 2)
    return _BqpModel(
        variables=[f"m{i}" for i in range(n_vars)],
        linear=linear,
        pairs=pairs,
        const=float(rng.randint(0, 5)),
        occ0=occ0,
        occ1=occ1,
        avail0=(float(cap), float(cap), 1.0),
        avail1=(float(cap), float(cap), 1.0),
    )


def objective_walk(model, assignment):
    """A side assignment's cost: the constant, then each variable's linear
    cost for its side, then each pair's corner for the pair's two sides."""
    cost = model.const
    for i, v in enumerate(assignment):
        cost += model.linear[i][v]
    for (i, j), corners in model.pairs.items():
        cost += corners[assignment[i]][assignment[j]]
    return cost


def capacity_holds_walk(model, assignment):
    """Whether the six capacity rows hold: on each side, for each kind, the
    footprints of the variables on that side sum to at most what the side
    has available."""
    loads = [[0.0] * 3, [0.0] * 3]
    for i, v in enumerate(assignment):
        occ = model.occ0[i] if v == 0 else model.occ1[i]
        for k in range(3):
            loads[v][k] += occ[k]
    avail = (model.avail0, model.avail1)
    return all(loads[v][k] <= avail[v][k] for v in (0, 1) for k in range(3))


def bqp_enumeration_min(model):
    """Brute-force reference: scan every assignment the slow way."""
    best = None
    for bits in product((0, 1), repeat=len(model.variables)):
        if not capacity_holds_walk(model, bits):
            continue
        cost = objective_walk(model, bits)
        if best is None or cost < best[1]:
            best = (bits, cost)
    return best


def branch_and_bound_walk(model, seed, node_budget):
    """The side-assignment search that bounds the unset variables by their
    cheapest linear costs only. Returns the best assignment found (or
    ``seed``, or None) and the number of search nodes spent."""
    n = len(model.variables)
    best = seed
    best_obj = math.inf if seed is None else objective_walk(model, seed)

    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(model.linear[i])
    pairs_by_high = [[] for _ in range(n)]
    for (i, j), corners in model.pairs.items():
        pairs_by_high[j].append((i, corners))

    prefix = [0] * n
    nodes = 0

    def descend(depth, cost, load0, load1):
        nonlocal best, best_obj, nodes
        if depth == n:
            if cost < best_obj:
                best, best_obj = prefix.copy(), cost
            return
        for v in (0, 1):
            if nodes >= node_budget:
                return
            nodes += 1
            step = cost + model.linear[depth][v]
            for i, corners in pairs_by_high[depth]:
                step += corners[prefix[i]][v]
            if step + suffix_min[depth + 1] >= best_obj:
                continue
            occ = model.occ0[depth] if v == 0 else model.occ1[depth]
            load = load0 if v == 0 else load1
            avail = model.avail0 if v == 0 else model.avail1
            if any(load[k] + occ[k] > avail[k] for k in range(3)):
                continue
            prefix[depth] = v
            for k in range(3):
                load[k] += occ[k]
            descend(depth + 1, step, load0, load1)
            for k in range(3):
                load[k] -= occ[k]
    descend(0, model.const, [0.0] * 3, [0.0] * 3)
    return best, nodes


def local_search_walk(model, assignment):
    """Improvement sweeps that sum the whole objective for every single
    flip and every opposite-side swap they try."""
    n = len(assignment)
    best_obj = objective_walk(model, assignment)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            assignment[i] ^= 1
            obj = objective_walk(model, assignment)
            if obj < best_obj and capacity_holds_walk(model, assignment):
                best_obj = obj
                improved = True
            else:
                assignment[i] ^= 1
        for i, j in combinations(range(n), 2):
            if assignment[i] == assignment[j]:
                continue
            assignment[i] ^= 1
            assignment[j] ^= 1
            obj = objective_walk(model, assignment)
            if obj < best_obj and capacity_holds_walk(model, assignment):
                best_obj = obj
                improved = True
            else:
                assignment[i] ^= 1
                assignment[j] ^= 1
    return assignment


def overlap_side(rect, child0, child1):
    """Child index (0 or 1) holding at least 75% of ``rect``'s area, else
    None, from plain overlap areas."""
    for side, child in enumerate((child0, child1)):
        rows = min(rect.row1, child.row1) - max(rect.row0, child.row0) + 1
        cols = min(rect.col1, child.col1) - max(rect.col0, child.col0) + 1
        if max(rows, 0) * max(cols, 0) >= 0.75 * rect.tile_count:
            return side
    return None


def side_data_walk(module_id, candidates, child0, child1, axis):
    """Side data from the candidates themselves: each candidate goes to the
    first child holding at least 75% of its area, and each side gets the
    mean extent along the cut axis and the componentwise-minimum resources
    of its candidates. ``placements0``/``placements1`` hold candidates."""
    sides = ([], [])
    for cand in candidates:
        r0, c0, r1, c1 = cand.rect
        area3 = (r1 - r0 + 1) * (c1 - c0 + 1) * 3
        for side, child in enumerate((child0, child1)):
            rows = min(r1, child.row1) - max(r0, child.row0) + 1
            cols = min(c1, child.col1) - max(c0, child.col0) + 1
            if rows > 0 and cols > 0 and rows * cols * 4 >= area3:
                sides[side].append(cand)
                break

    def summary(cands):
        if not cands:
            return None, None
        if axis == "vertical":
            spans = sum(c.rect.col1 - c.rect.col0 for c in cands)
        else:
            spans = sum(c.rect.row1 - c.rect.row0 for c in cands)
        occ = ResourceVector(*map(min, zip(*(c.resources for c in cands))))
        return (spans + len(cands)) / len(cands), occ

    (w0, occ0), (w1, occ1) = summary(sides[0]), summary(sides[1])
    return _SideData(module_id, tuple(sides[0]), tuple(sides[1]), w0, w1, occ0, occ1)
