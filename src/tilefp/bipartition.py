"""Recursive pseudo-bipartitioning that assigns every module an anchor point.

The device is halved again and again along one axis. At each halving a
binary quadratic model decides which side every member module goes to: the
objective charges each connection by the signal count times the sum of the
two endpoints' mean extents whenever they end up on opposite sides (or on
the far side of an already-anchored external module), and knapsack rows per
resource kind keep each half within its capacity, using the most optimistic
footprint a module could take on that side. A candidate goes to a half
that holds at least 75% of its area; modules with no candidate on either
side stay behind at the parent's center and each kind of their requirement
is charged to both halves in proportion to the tiles of that kind each
holds. Two independent passes, one with vertical cuts and one with
horizontal cuts, fix the x and the y coordinate of each anchor.

A pass starts from the whole device and cuts only along its own axis, so
every partition spans the device across the cut and the 75% rule reduces
to three quarters of a candidate's span along the cut axis. Candidates are
therefore handled as span groups: one per distinct column span (vertical
pass) or row span (horizontal pass) of a candidate list, holding the
count and the componentwise-minimum resources of its candidates, which
tessellation groups as it prices the list (``CandidateList.groups``). The
rule, the mean extents and the minimum footprints are computed per group,
in one pass over a module's groups.
Modules with equal requirements share one candidate list and so one tuple
of groups; a halving splits each shared tuple once, and the split hands its
members the same tuples again, so the sharing carries down the halvings.

A halving fails when forced members overflow a half (``_build_bqp``
returns None), when the members' smaller footprints overflow both halves
together, or when the search finds no feasible leaf (``_solve_bqp``
returns None). Its members then all keep the partition's center and
nothing inside it is halved; at the device root, every anchor of the
pass stays at the device center. Anchors only steer scoring, so a failed
halving never ends a run: ``compute_anchors`` raises no error.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import IO, Literal, Mapping, Sequence

from .design import Connection, Design
from .fabric import Fabric, Rect, ResourceVector
from .tessellation import CandidateList, _SpanGroup

__all__ = ["InfeasibleModelError", "compute_anchors"]

_Axis = Literal["vertical", "horizontal"]
Point = tuple[float, float]

# Per axis: the rect fields a cut splits (col0, col1 or row0, row1) and the
# anchor coordinate the pass fixes (x or y).
_CUT = {"vertical": (1, 3, 0), "horizontal": (0, 2, 1)}

EXACT_LIMIT = 16
# Search nodes of one halving solve beyond EXACT_LIMIT variables.
NODE_BUDGET = 100_000
# Relative error allowed for a cost that is summed in another order than the
# objective's own: far above float rounding, far below any real cost gap.
_SLACK = 1e-9


class InfeasibleModelError(Exception):
    """Kept for importers that catch it around ``compute_anchors``; nothing
    in tilefp raises it, since a failed halving never ends a run."""


@dataclass(frozen=True)
class _SideData:
    """How one module relates to the two halves of a partition.

    ``placements0``/``placements1`` are the span groups landing on each
    side, which the module's side of the cut hands on to the next halving.
    ``w0``/``w1`` are the mean extents along the cut axis of the candidates
    landing on each side; ``occ0``/``occ1`` are the componentwise-minimum
    resource footprints, the least any placement on that side would consume.
    A side with no candidates is forbidden outright.
    """

    module_id: str
    placements0: tuple[_SpanGroup, ...]
    placements1: tuple[_SpanGroup, ...]
    w0: float | None
    w1: float | None
    occ0: ResourceVector | None
    occ1: ResourceVector | None

    @property
    def parent_only(self) -> bool:
        return not self.placements0 and not self.placements1

    @property
    def forced_side(self) -> int | None:
        """0 or 1 when only that side is possible, else None."""
        if self.placements0 and not self.placements1:
            return 0
        if self.placements1 and not self.placements0:
            return 1
        return None


@dataclass
class _BqpModel:
    """Binary side-assignment model in tabular form.

    Every variable i carries a cost pair ``linear[i][v]`` for taking value
    v, every connected variable pair (i, j), i < j, a 2x2 corner table
    indexed by their values, and ``const`` collects the cost of everything
    already decided. All entries are nonnegative, so the cost of the
    variables set so far plus each unset variable's cheapest settled cost,
    its linear cost plus its pair costs to the variables set, is an
    admissible bound during search. ``fixed`` holds members whose side was
    forced before solving; ``parent_only`` the members not assignable at
    all.
    """

    variables: list[str]
    linear: list[tuple[float, float]]
    pairs: dict[tuple[int, int], tuple[tuple[float, float], tuple[float, float]]]
    const: float
    occ0: list[tuple[int, int, int]]
    occ1: list[tuple[int, int, int]]
    avail0: tuple[float, float, float]
    avail1: tuple[float, float, float]
    fixed: dict[str, int] = field(default_factory=dict)
    parent_only: list[str] = field(default_factory=list)


def _split_partition(rect: Rect, axis: _Axis) -> tuple[Rect, Rect]:
    """Halve a rect; the left (or bottom) child gets the floor half."""
    lo, hi, _ = _CUT[axis]
    span = rect[hi] - rect[lo] + 1
    if span < 2:
        raise ValueError(f"partition {rect} too thin for a {axis} cut")
    mid = rect[lo] + span // 2
    return rect._replace(**{Rect._fields[hi]: mid - 1}), rect._replace(**{Rect._fields[lo]: mid})


def _mean_extent(groups: Sequence[_SpanGroup]) -> float:
    """Mean extent along the cut axis of the candidates of nonempty groups."""
    extent = sum(n * (hi - lo + 1) for lo, hi, n, _, _, _ in groups)
    return extent / sum(g[2] for g in groups)


def _side_data(
    module_id: str, groups: Sequence[_SpanGroup], child0: Rect, child1: Rect, axis: _Axis
) -> _SideData:
    """Split a module's span groups between two halves and summarize them.

    A group lands on the first half that holds at least 75% of its span
    along the cut axis, and on neither when no half does. That is the 75%
    area rule for partitions that, like every partition of a pass, span the
    whole device across the cut. The same loop sums each half's extents
    and candidate counts and keeps its per-kind minima.
    """
    i, j, _ = _CUT[axis]
    lo0, hi0, lo1, hi1 = child0[i], child0[j], child1[i], child1[j]
    p0: list[_SpanGroup] = []
    p1: list[_SpanGroup] = []
    extent0 = count0 = extent1 = count1 = 0
    clb0 = bram0 = dsp0 = clb1 = bram1 = dsp1 = math.inf
    for g in groups:
        lo, hi, n, clb, bram, dsp = g
        span = hi - lo + 1
        if ((hi if hi < hi0 else hi0) - (lo if lo > lo0 else lo0) + 1) * 4 >= span * 3:
            p0.append(g)
            extent0 += n * span
            count0 += n
            if clb < clb0:
                clb0 = clb
            if bram < bram0:
                bram0 = bram
            if dsp < dsp0:
                dsp0 = dsp
        elif ((hi if hi < hi1 else hi1) - (lo if lo > lo1 else lo1) + 1) * 4 >= span * 3:
            p1.append(g)
            extent1 += n * span
            count1 += n
            if clb < clb1:
                clb1 = clb
            if bram < bram1:
                bram1 = bram
            if dsp < dsp1:
                dsp1 = dsp
    return _SideData(
        module_id,
        tuple(p0),
        tuple(p1),
        extent0 / count0 if p0 else None,
        extent1 / count1 if p1 else None,
        ResourceVector(clb0, bram0, dsp0) if p0 else None,  # type: ignore[arg-type]
        ResourceVector(clb1, bram1, dsp1) if p1 else None,  # type: ignore[arg-type]
    )


def _build_bqp(
    fabric: Fabric,
    children: tuple[Rect, Rect],
    data: Sequence[_SideData],
    connections: Sequence[Connection],
    anchors: Mapping[str, Point],
    axis: _Axis,
    extents: Mapping[str, float],
    requirements: Mapping[str, ResourceVector],
) -> _BqpModel | None:
    """Assemble the side-assignment model for one halving into ``children``,
    or None when the members fixed to a half overflow it.

    Every connection with an endpoint among the members is priced by one
    rule: for each pair of sides its endpoints can take that differ, it
    costs its signal count times the sum of the endpoints' extents on those
    sides. A free variable can take either side, with that side's mean
    extent. A fixed member takes its forced side only. Any other module, a
    parent-only member or one outside the partition, takes the side of the
    cut its anchor in ``anchors`` falls on (the line itself counts as side
    0), with its extent in ``extents``: the mean over its full candidate
    list, 0 when it has none. The cost goes to the pair's corner table when
    both endpoints are free, to the free endpoint's linear cost when one
    is, and to ``const`` when neither is, so repeated connections add up.
    Each half's capacity is what ``fabric`` has available in it, less the
    footprints of the members fixed to it and a share of the tile needs
    in ``requirements`` of the parent-only members: of each kind, the share
    of that kind's available tiles the half holds, so a half with none of
    a kind owes none. A kind neither half holds is shared by area.
    """
    child0, child1 = children
    by_id = {d.module_id: d for d in data}
    _, hi, coord = _CUT[axis]
    cut = child0[hi] + 1
    # each endpoint as (variable index or None, the (side, extent) pairs it can take)
    ends = {
        m: (None, ((0 if p[coord] <= cut else 1, extents.get(m, 0.0)),))
        for m, p in anchors.items()
    }

    variables: list[str] = []
    fixed: dict[str, int] = {}
    parent_only: list[str] = []
    for d in data:
        sides = ((0, d.w0), (1, d.w1))
        if d.parent_only:
            parent_only.append(d.module_id)
        elif d.forced_side is not None:
            fixed[d.module_id] = d.forced_side
            ends[d.module_id] = (None, (sides[d.forced_side],))
        else:
            ends[d.module_id] = (len(variables), sides)
            variables.append(d.module_id)

    avail0 = list(map(float, fabric.available_in_rect(child0)))
    avail1 = list(map(float, fabric.available_in_rect(child1)))
    area0 = child0.tile_count / (child0.tile_count + child1.tile_count)
    shares = [a / (a + b) if a + b else area0 for a, b in zip(avail0, avail1)]
    for m in parent_only:
        for k, amount in enumerate(requirements[m]):
            avail0[k] -= amount * shares[k]
            avail1[k] -= amount * (1 - shares[k])
    for m, side in fixed.items():
        occ = by_id[m].occ0 if side == 0 else by_id[m].occ1
        target = avail0 if side == 0 else avail1
        for k, amount in enumerate(occ):  # type: ignore[union-attr]
            target[k] -= amount
    if min(avail0) < 0 or min(avail1) < 0:
        return None

    linear = [[0.0, 0.0] for _ in variables]
    corners: dict[tuple[int, int], list[list[float]]] = {}
    const = 0.0
    for conn in connections:
        if conn.a not in by_id and conn.b not in by_id:
            continue
        (i, sides_i), (j, sides_j) = ends[conn.a], ends[conn.b]
        # a free endpoint first, and of two free ones the lower variable
        if j is not None and (i is None or j < i):
            (i, sides_i), (j, sides_j) = (j, sides_j), (i, sides_i)
        if j is not None:
            table = corners.setdefault((i, j), [[0.0, 0.0], [0.0, 0.0]])
        for si, wi in sides_i:
            for sj, wj in sides_j:
                if si != sj:
                    cost = conn.signals * (wi + wj)
                    if j is not None:
                        table[si][sj] += cost
                    elif i is not None:
                        linear[i][si] += cost
                    else:
                        const += cost

    return _BqpModel(
        variables=variables,
        linear=[tuple(row) for row in linear],  # type: ignore[misc]
        pairs={key: (tuple(t[0]), tuple(t[1])) for key, t in corners.items()},  # type: ignore[misc]
        const=const,
        occ0=[tuple(by_id[m].occ0) for m in variables],  # type: ignore[arg-type]
        occ1=[tuple(by_id[m].occ1) for m in variables],  # type: ignore[arg-type]
        avail0=tuple(avail0),  # type: ignore[arg-type]
        avail1=tuple(avail1),  # type: ignore[arg-type]
        fixed=fixed,
        parent_only=parent_only,
    )


def _objective_of(model: _BqpModel, assignment: Sequence[int]) -> float:
    """Objective value of a full 0/1 assignment."""
    total = model.const
    for i, v in enumerate(assignment):
        total += model.linear[i][v]
    for (i, j), corners in model.pairs.items():
        total += corners[assignment[i]][assignment[j]]
    return total


def _overflow(model: _BqpModel, assignment: Sequence[int]) -> float:
    """Summed excess of the side loads over the six capacity rows."""
    clb0 = bram0 = dsp0 = clb1 = bram1 = dsp1 = 0
    for v, occ0, occ1 in zip(assignment, model.occ0, model.occ1):
        if v:
            clb1 += occ1[0]
            bram1 += occ1[1]
            dsp1 += occ1[2]
        else:
            clb0 += occ0[0]
            bram0 += occ0[1]
            dsp0 += occ0[2]
    avail0, avail1 = model.avail0, model.avail1
    return (
        (max(clb0 - avail0[0], 0.0) + max(clb1 - avail1[0], 0.0))
        + (max(bram0 - avail0[1], 0.0) + max(bram1 - avail1[1], 0.0))
        + (max(dsp0 - avail0[2], 0.0) + max(dsp1 - avail1[2], 0.0))
    )


def _assignment_feasible(model: _BqpModel, assignment: Sequence[int]) -> bool:
    """Whether an assignment satisfies all six capacity rows."""
    return _overflow(model, assignment) == 0


def _pair_lists(model: _BqpModel) -> tuple[list[list], list[list]]:
    """Each variable's pairs, in ``model.pairs`` order.

    ``by_low[i]`` holds ``(j, corners)`` for every pair (i, j) and
    ``by_high[j]`` holds ``(i, corners)`` for every pair (i, j); pairs are
    keyed lower variable first.
    """
    n = len(model.variables)
    by_low: list[list] = [[] for _ in range(n)]
    by_high: list[list] = [[] for _ in range(n)]
    for (i, j), corners in model.pairs.items():
        by_low[i].append((j, corners))
        by_high[j].append((i, corners))
    return by_low, by_high


def _greedy_assignment(model: _BqpModel) -> list[int]:
    """Sequential seed: each variable takes the locally cheaper side.

    Capacity is tracked and a side that would overflow is avoided when the
    other still fits; ties go to side 0.
    """
    _, by_high = _pair_lists(model)
    avail0, avail1 = model.avail0, model.avail1
    out: list[int] = []
    load0 = [0.0, 0.0, 0.0]
    load1 = [0.0, 0.0, 0.0]
    for i, pairs in enumerate(by_high):
        cost0, cost1 = model.linear[i]
        for a, corners in pairs:
            cost0 += corners[out[a]][0]
            cost1 += corners[out[a]][1]
        occ0, occ1 = model.occ0[i], model.occ1[i]
        fits0 = (
            load0[0] + occ0[0] <= avail0[0]
            and load0[1] + occ0[1] <= avail0[1]
            and load0[2] + occ0[2] <= avail0[2]
        )
        fits1 = (
            load1[0] + occ1[0] <= avail1[0]
            and load1[1] + occ1[1] <= avail1[1]
            and load1[2] + occ1[2] <= avail1[2]
        )
        if fits0 != fits1:
            pick = 0 if fits0 else 1
        else:
            pick = 0 if cost0 <= cost1 else 1
        out.append(pick)
        load, occ = (load0, occ0) if pick == 0 else (load1, occ1)
        load[0] += occ[0]
        load[1] += occ[1]
        load[2] += occ[2]
    return out


def _packed_assignment(model: _BqpModel) -> list[int] | None:
    """Assignment that keeps each set of variables ``model.pairs`` joins on one side.

    The sets go largest summed smaller CLB footprint first, each to the side
    with the lower summed linear cost that still fits all three kinds; ties
    go to the side with more CLB room left, then to side 0. Returns None
    when a set fits neither side.
    """
    n = len(model.variables)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in model.pairs:
        parent[find(i)] = find(j)
    sets: dict[int, list[int]] = {}
    for i in range(n):
        sets.setdefault(find(i), []).append(i)
    occs = (model.occ0, model.occ1)
    avails = (model.avail0, model.avail1)
    loads = ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    out = [0] * n
    for members in sorted(
        sets.values(), key=lambda s: -sum(min(occs[0][i][0], occs[1][i][0]) for i in s)
    ):
        best = None
        for side in (0, 1):
            load, avail = loads[side], avails[side]
            need = [sum(occs[side][i][k] for i in members) for k in range(3)]
            if all(load[k] + need[k] <= avail[k] for k in range(3)):
                key = (sum(model.linear[i][side] for i in members), load[0] - avail[0])
                if best is None or key < best[0]:
                    best = (key, side, need)
        if best is None:
            return None
        _, side, need = best
        for k in range(3):
            loads[side][k] += need[k]
        for i in members:
            out[i] = side
    return out


def _repair(model: _BqpModel, assignment: list[int]) -> list[int] | None:
    """Flip variables until capacity holds, greedily by overflow reduction."""
    current = _overflow(model, assignment)
    for _ in range(2 * len(assignment) + 1):
        if current == 0:
            return assignment
        best = None
        for i in range(len(assignment)):
            flipped = assignment.copy()
            flipped[i] ^= 1
            over = _overflow(model, flipped)
            if over < current:
                key = (over, _objective_of(model, flipped), i)
                if best is None or key < best[0]:
                    best = (key, flipped)
        if best is None:
            return None
        assignment = best[1]
        current = best[0][0]
    return assignment if current == 0 else None


def _local_search(model: _BqpModel, assignment: list[int]) -> list[int]:
    """Deterministic improvement sweeps: single flips, then opposite swaps.

    A move is first priced by its change in cost, from the moved variables'
    linear and pair terms. Only a move whose change is not clearly positive
    is summed in full and checked for capacity, so every accept or reject
    compares the same full objective sums as trying each move outright.
    Every cost is nonnegative, so the sweeps stop once the objective is 0.
    """
    n = len(assignment)
    linear = model.linear
    by_low, by_high = _pair_lists(model)

    def flip_change(i: int) -> float:
        v = assignment[i]
        u = v ^ 1
        change = linear[i][u] - linear[i][v]
        for j, corners in by_low[i]:
            w = assignment[j]
            change += corners[u][w] - corners[v][w]
        for j, corners in by_high[i]:
            w = assignment[j]
            change += corners[w][u] - corners[w][v]
        return change

    def move(*moved: int) -> bool:
        """Flip ``moved`` and keep the result if cheaper and feasible."""
        nonlocal best_obj
        for i in moved:
            assignment[i] ^= 1
        obj = _objective_of(model, assignment)
        if obj < best_obj and _assignment_feasible(model, assignment):
            best_obj = obj
            return True
        for i in moved:
            assignment[i] ^= 1
        return False

    best_obj = _objective_of(model, assignment)
    improved = best_obj > 0
    while improved:
        improved = False
        for i in range(n):
            if flip_change(i) <= best_obj * _SLACK and move(i):
                if not best_obj:
                    return assignment
                improved = True
        changes = [flip_change(i) for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            x, y = assignment[i], assignment[j]
            if x == y:
                continue
            change = changes[i] + changes[j]
            corners = model.pairs.get((i, j))
            if corners is not None:
                # both flips priced the pair with the other end unmoved
                change += (
                    corners[x ^ 1][y ^ 1] - corners[x ^ 1][y] - corners[x][y ^ 1] + corners[x][y]
                )
            if change <= best_obj * _SLACK and move(i, j):
                if not best_obj:
                    return assignment
                improved = True
                changes = [flip_change(k) for k in range(n)]
    return assignment


def _solve_branch_and_bound(
    model: _BqpModel,
    seed: list[int] | None,
    node_budget: float,
    upper: Sequence[int] | None = None,
) -> tuple[list[int] | None, int]:
    """Depth-first search from ``seed`` with two admissible bounds and a node cap.

    Side 0 is tried before side 1 and only a strictly cheaper leaf replaces
    the incumbent, so without a seed and without a cap the result is the
    lexicographically first optimum. A branch is cut when its cost plus
    each unset variable's cheapest linear cost reaches the incumbent. It is
    also cut when its cost plus each unset variable's cheapest settled
    cost, its linear cost plus its pair costs to the variables already
    set, exceeds the incumbent by more than a ``_SLACK`` share. Pairs of
    two unset variables only add to that, since every corner is
    nonnegative, and the slack keeps a different float summation order
    from cutting off a strictly cheaper leaf. So the search visits a subset
    of the nodes the linear bound alone visits, finding the same
    incumbents in the same order. Returns the best assignment found (or
    ``seed``, or None) and the number of search nodes spent.

    ``upper``, a feasible assignment of objective u, bounds the search
    when T, the next double above u plus its ``_SLACK`` share, is below the
    seed's objective: the search then starts with no incumbent and T as
    the value to beat, and never returns ``upper`` itself. The cheapest
    objective is at most u, below T and the seed's, so the unbounded
    search ends on the first cheapest leaf in search order. Until the
    bounded search holds a leaf below T it cuts only where the unbounded
    one's incumbent is T or more, and from their first shared incumbent on
    both make the same cuts. So a bounded search that finishes returns the
    unbounded one's assignment within a subset of its nodes; one that
    spends ``node_budget`` is followed by the unbounded search with
    ``node_budget`` nodes of its own, whose result is returned with the
    nodes of both.

    A search that starts with a value to beat, from ``seed`` or under
    ``upper``, also fixes variables by reduced cost (Nemhauser & Wolsey,
    1988). Past the settled bound, let ``gap`` be what the branch may still
    add before it exceeds the incumbent by more than the slack. An unset
    variable whose settled cost on one side exceeds the other's by more
    than ``gap`` takes the cheaper side in every leaf that could replace
    the incumbent, so that side's footprint joins its load, and the branch
    is cut when a forced load overflows. A leaf it removes either holds a
    variable on its dearer side, and so costs more than the settled bound
    already allows, or holds every forced footprint and so overflows. The
    search thus finds the same incumbents in the same order, within a
    subset of its nodes. An unseeded search without ``upper`` fixes
    nothing, and neither does the unseeded rerun after a spent bound, so
    that rerun is the search a call without ``upper`` makes.
    """
    n = len(model.variables)
    linear = model.linear
    best = seed
    best_obj = start = math.inf if seed is None else _objective_of(model, seed)

    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(linear[i])
    by_low, by_high = _pair_lists(model)
    # settled<v>[i]: linear[i][v] plus corners[prefix[j]][v] of each pair
    # (j, i) whose lower variable j is set
    settled0 = [c[0] for c in linear]
    settled1 = [c[1] for c in linear]

    occ0, occ1 = model.occ0, model.occ1
    avail0, avail1 = model.avail0, model.avail1
    load0 = [0.0, 0.0, 0.0]
    load1 = [0.0, 0.0, 0.0]
    prefix = [0] * n
    nodes = 0
    spent = False

    # spread[j] bounds |settled0[j] - settled1[j]|, reach[d] is its largest
    # value from variable d on, and ``order`` walks the variables by
    # decreasing spread; a reach of 0 throughout fixes nothing
    reach = unfixed = [0.0] * (n + 1)
    if seed is not None or upper is not None:
        spread = [abs(c[0] - c[1]) for c in linear]
        for (_, j), ((c00, c01), (c10, c11)) in model.pairs.items():
            spread[j] += max(abs(c00 - c01), abs(c10 - c11))
        reach = list(itertools.accumulate(reversed(spread), max, initial=0.0))[::-1]
        order = sorted(range(n), key=lambda j: -spread[j])

    def forced_fit(depth: int, gap: float) -> bool:
        """Whether the loads still fit once every unset variable whose
        settled costs differ by more than ``gap`` takes its cheaper side."""
        f0, f1 = load0.copy(), load1.copy()
        for j in order:
            if spread[j] <= gap:
                break
            if j > depth:
                diff = settled0[j] - settled1[j]
                if diff > gap:
                    f, occ = f1, occ1[j]
                elif -diff > gap:
                    f, occ = f0, occ0[j]
                else:
                    continue
                f[0] += occ[0]
                f[1] += occ[1]
                f[2] += occ[2]
        return (
            f0[0] <= avail0[0] and f0[1] <= avail0[1] and f0[2] <= avail0[2]
            and f1[0] <= avail1[0] and f1[1] <= avail1[1] and f1[2] <= avail1[2]
        )

    def descend(depth: int, cost: float, rest: float) -> None:
        """Branch on variable ``depth``; ``rest`` sums the cheapest settled
        cost of every variable from ``depth`` on."""
        nonlocal best, best_obj, nodes, spent
        if depth == n:
            if cost < best_obj:
                best, best_obj = prefix.copy(), cost
            return
        s0, s1 = settled0[depth], settled1[depth]
        later = rest - (s0 if s0 < s1 else s1)
        costs, highs, lows = linear[depth], by_high[depth], by_low[depth]
        floor = suffix_min[depth + 1]
        side0, side1 = occ0[depth], occ1[depth]
        for v in (0, 1):
            if nodes >= node_budget:
                spent = True
                return
            nodes += 1
            step = cost + costs[v]
            for i, corners in highs:
                step += corners[prefix[i]][v]
            if step + floor >= best_obj:
                continue
            if v:
                load, occ, avail = load1, side1, avail1
            else:
                load, occ, avail = load0, side0, avail0
            if (
                load[0] + occ[0] > avail[0]
                or load[1] + occ[1] > avail[1]
                or load[2] + occ[2] > avail[2]
            ):
                continue
            bound = later
            if lows:
                undo = []
                for j, corners in lows:
                    a0, a1 = settled0[j], settled1[j]
                    b0 = a0 + corners[v][0]
                    b1 = a1 + corners[v][1]
                    settled0[j] = b0
                    settled1[j] = b1
                    bound += (b0 if b0 < b1 else b1) - (a0 if a0 < a1 else a1)
                    undo.append((j, a0, a1))
            gap = best_obj + best_obj * _SLACK - (step + bound)
            if gap >= 0:
                prefix[depth] = v
                load[0] += occ[0]
                load[1] += occ[1]
                load[2] += occ[2]
                if gap >= reach[depth + 1] or forced_fit(depth, gap):
                    descend(depth + 1, step, bound)
                load[0] -= occ[0]
                load[1] -= occ[1]
                load[2] -= occ[2]
            if lows:
                for j, a0, a1 in undo:
                    settled0[j] = a0
                    settled1[j] = a1
    if upper is not None:
        u = _objective_of(model, upper)
        ceiling = math.nextafter(u + u * _SLACK, math.inf)
        if ceiling < start:
            best, best_obj = None, ceiling
            descend(0, model.const, suffix_min[0])
            if not spent:
                return best, nodes
            # the ceiling may have cut what the unbounded search keeps
            best, best_obj, node_budget = seed, start, nodes + node_budget
            if seed is None:
                reach = unfixed
    descend(0, model.const, suffix_min[0])
    return best, nodes


def _solve_bqp(model: _BqpModel) -> dict[str, int] | None:
    """Best side assignment found for the model's free variables.

    One branch-and-bound search serves every size. Up to ``EXACT_LIMIT``
    variables it runs unseeded and uncapped, so it is exact; ties go to the
    lexicographically first assignment. Beyond that it starts from a greedy
    seed, repaired to fit and improved by local search, and stops after
    ``NODE_BUDGET`` search nodes (read at call time), so results are
    reproducible. There the search is also bounded by
    ``_packed_assignment``, when that fits, and, having a value to beat
    from the start, fixes variables by reduced cost; both leave its result
    as it is and spare it nodes the seed's objective alone cannot cut.
    The exact searches start with nothing to beat and fix nothing.
    Returns None when no feasible assignment exists (or none was found
    within budget), and returns it before any search when the variables'
    smaller footprints alone overflow both sides together in some
    resource kind.
    """
    if not model.variables:
        return {}
    for k in range(3):
        least = sum(min(a[k], b[k]) for a, b in zip(model.occ0, model.occ1))
        if least > model.avail0[k] + model.avail1[k]:
            return None
    if len(model.variables) <= EXACT_LIMIT:
        bits, _ = _solve_branch_and_bound(model, None, math.inf)
    else:
        seed = _repair(model, _greedy_assignment(model))
        if seed is not None:
            seed = _local_search(model, seed)
        bits, _ = _solve_branch_and_bound(model, seed, NODE_BUDGET, _packed_assignment(model))
    if bits is None:
        return None
    return dict(zip(model.variables, bits))


def _recursive_bipartition(
    fabric: Fabric,
    design: Design,
    candidates: Mapping[str, CandidateList],
    axis: _Axis,
    log: IO[str] | None = None,
) -> dict[str, Point]:
    """Anchor every module by recursive halving along one axis.

    Each halving solves the side-assignment model and moves the assigned
    modules' anchors to their half's center; parent-only members, and
    every member of a failed halving, keep the partition's center. A solve
    may only read the anchors that existed when its parent's solve
    finished, so sibling subtrees cannot influence each other and the
    recursion is order-independent.
    """
    bounds = fabric.bounds
    anchors: dict[str, Point] = {m.id: bounds.center for m in design.modules}
    requirements = {m.id: m.req for m in design.modules}
    root_lists = {m: options.groups[axis] for m, options in candidates.items()}
    lo, hi, _ = _CUT[axis]
    # per groups object: one mean for every module whose list it is
    shared = {id(g): g for g in root_lists.values() if g}
    means = {key: _mean_extent(g) for key, g in shared.items()}
    extents = {m: means[id(g)] for m, g in root_lists.items() if g}

    # (rect, each member's span groups, the anchors its solve may read)
    stack = [(bounds, {m: root_lists[m] for m in anchors}, dict(anchors))]
    while stack:
        rect, groups, snapshot = stack.pop()
        if len(groups) < 2 or rect[hi] <= rect[lo]:
            continue
        children = _split_partition(rect, axis)
        # per groups object, every one alive in ``groups``: one split for
        # all the members that share it
        splits: dict[int, _SideData] = {}
        data = []
        for m, g in groups.items():
            split = splits.get(id(g))
            if split is None:
                split = splits[id(g)] = _side_data(m, g, *children, axis)
            else:
                split = replace(split, module_id=m)
            data.append(split)
        started = time.perf_counter()
        model = _build_bqp(
            fabric, children, data, design.connections, snapshot, axis,
            extents, requirements,
        )
        assignment = None if model is None else _solve_bqp(model)
        if assignment is None:
            # members keep the partition's center, the root's included;
            # placement may still succeed
            continue
        if log is not None:
            record = {
                "axis": axis,
                "rect": list(rect),
                "variables": len(model.variables),
                "objective": _objective_of(
                    model, [assignment[m] for m in model.variables]
                ),
                "solve_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }
            log.write(json.dumps(record) + "\n")

        sides = {**assignment, **model.fixed}
        halves: tuple[dict, dict] = ({}, {})
        # read-only once routed, so both halves share it
        child_snapshot = dict(snapshot)
        for d in data:
            side = sides.get(d.module_id)
            if side is None:
                continue
            anchors[d.module_id] = child_snapshot[d.module_id] = children[side].center
            halves[side][d.module_id] = d.placements1 if side else d.placements0
        stack.append((children[0], halves[0], child_snapshot))
        stack.append((children[1], halves[1], child_snapshot))
    return anchors


def compute_anchors(
    fabric: Fabric,
    design: Design,
    candidates: Mapping[str, CandidateList],
    log: IO[str] | None = None,
) -> dict[str, Point]:
    """Final anchors: x from the vertical-cut pass, y from the horizontal."""
    vertical = _recursive_bipartition(fabric, design, candidates, "vertical", log)
    horizontal = _recursive_bipartition(fabric, design, candidates, "horizontal", log)
    return {m: (vertical[m][0], horizontal[m][1]) for m in vertical}
