"""Recursive pseudo-bipartitioning that assigns every module an anchor point.

The device is halved again and again along one axis. At each halving a
binary quadratic model decides which side every member module goes to: the
objective charges each connection by the signal count times the average
extents of the two endpoints whenever they end up on opposite sides (or on
the far side of an already-anchored external module), and knapsack rows per
resource kind keep each half within its capacity, using the most optimistic
footprint a module could take on that side. A candidate goes to a half
that holds at least 75% of its area; modules with no candidate on either
side stay behind at the parent's center and their requirement is charged to
both halves in proportion to area. Two independent passes, one with
vertical cuts and one with horizontal cuts, fix the x and the y coordinate
of each anchor.

A pass starts from the whole device and cuts only along its own axis, so
every partition spans the device across the cut and the 75% rule reduces
to three quarters of a candidate's span along the cut axis. Candidates are
therefore handled as span groups: one per distinct column span (vertical
pass) or row span (horizontal pass) of a candidate list, holding the
count and the componentwise-minimum resources of its candidates. The
rule, the mean extents and the minimum footprints are all computed per
group.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import IO, Literal, Mapping, Sequence

from .design import Connection, Design, ModuleSpec
from .fabric import Fabric, Rect, ResourceVector
from .tessellation import PlacementCandidate

__all__ = [
    "Axis",
    "BqpModel",
    "InfeasibleModelError",
    "Partition",
    "SideData",
    "SpanGroup",
    "assignment_feasible",
    "build_bqp",
    "compute_anchors",
    "external_cut_cost",
    "objective_of",
    "pair_cut_cost",
    "recursive_bipartition",
    "side_data",
    "solve_bqp",
    "span_groups",
    "split_partition",
]

Axis = Literal["vertical", "horizontal"]
Point = tuple[float, float]
# (lo, hi, count, min_clb, min_bram, min_dsp): the ``count`` candidates of
# one list whose span along the cut axis is columns (or rows) lo..hi, and
# the least of each resource kind any of them holds.
SpanGroup = tuple[int, int, int, int, int, int]

EXACT_LIMIT = 16
DEFAULT_NODE_BUDGET = 100_000
# Relative error allowed for a cost that is summed in another order than the
# objective's own: far above float rounding, far below any real cost gap.
_SLACK = 1e-9


class InfeasibleModelError(Exception):
    """No side assignment can satisfy the capacity constraints."""


@dataclass(frozen=True)
class Partition:
    """A rectangular slice of the device and the modules routed into it."""

    rect: Rect
    members: tuple[str, ...]
    available: ResourceVector

    @property
    def center(self) -> Point:
        return self.rect.center


@dataclass(frozen=True)
class SideData:
    """How one module relates to the two halves of a partition.

    ``placements0``/``placements1`` are the span groups landing on each
    side, which the module's side of the cut hands on to the next halving.
    ``w0``/``w1`` are the mean extents along the cut axis of the candidates
    landing on each side; ``occ0``/``occ1`` are the componentwise-minimum
    resource footprints, the least any placement on that side would consume.
    A side with no candidates is forbidden outright.
    """

    module_id: str
    placements0: tuple[SpanGroup, ...]
    placements1: tuple[SpanGroup, ...]
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
class BqpModel:
    """Binary side-assignment model in tabular form.

    Every variable i carries a cost pair ``linear[i][v]`` for taking value
    v, every variable pair a 2x2 corner table, and ``const`` collects the
    cost of everything already decided. All entries are nonnegative, so the
    cost of the variables set so far plus each unset variable's cheapest
    settled cost, its linear cost plus its pair costs to the variables set,
    is an admissible bound during search. ``fixed`` holds members whose
    side was forced before solving; ``parent_only`` the members not
    assignable at all.
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


def split_partition(parent: Partition, axis: Axis, fabric: Fabric) -> tuple[Partition, Partition]:
    """Halve a partition; the left (or bottom) child gets the floor half."""
    rect = parent.rect
    if axis == "vertical":
        if rect.width < 2:
            raise ValueError(f"partition {rect} too thin for a vertical cut")
        mid = rect.col0 + rect.width // 2
        r0 = Rect(rect.row0, rect.col0, rect.row1, mid - 1)
        r1 = Rect(rect.row0, mid, rect.row1, rect.col1)
    else:
        if rect.height < 2:
            raise ValueError(f"partition {rect} too thin for a horizontal cut")
        mid = rect.row0 + rect.height // 2
        r0 = Rect(rect.row0, rect.col0, mid - 1, rect.col1)
        r1 = Rect(mid, rect.col0, rect.row1, rect.col1)
    return (
        Partition(r0, (), fabric.available_in_rect(r0)),
        Partition(r1, (), fabric.available_in_rect(r1)),
    )


def _cut_coordinate(child0: Partition, axis: Axis) -> float:
    """Position of the cut line in center coordinates."""
    if axis == "vertical":
        return float(child0.rect.col1 + 1)
    return float(child0.rect.row1 + 1)


def _anchor_side(anchor: Point, cut: float, axis: Axis) -> int:
    """Side of the cut an anchored point falls on; on the line counts as 0."""
    coord = anchor[0] if axis == "vertical" else anchor[1]
    return 0 if coord <= cut else 1


def span_groups(candidates: Sequence[PlacementCandidate], axis: Axis) -> tuple[SpanGroup, ...]:
    """Group a candidate list by its span along the cut axis.

    Columns for vertical cuts, rows for horizontal cuts; groups come in the
    order their spans first appear in the list.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    vertical = axis == "vertical"
    for (r0, c0, r1, c1), (clb, bram, dsp), _ in candidates:
        key = (c0, c1) if vertical else (r0, r1)
        g = groups.get(key)
        if g is None:
            groups[key] = [1, clb, bram, dsp]
            continue
        g[0] += 1
        if clb < g[1]:
            g[1] = clb
        if bram < g[2]:
            g[2] = bram
        if dsp < g[3]:
            g[3] = dsp
    return tuple((lo, hi, *g) for (lo, hi), g in groups.items())


def _side_summary(groups: Sequence[SpanGroup]) -> tuple[float, ResourceVector]:
    """Mean extent and componentwise-minimum footprint of nonempty groups."""
    _, _, counts, clb, bram, dsp = zip(*groups)
    extent = sum(n * (hi - lo + 1) for lo, hi, n, _, _, _ in groups)
    return extent / sum(counts), ResourceVector(min(clb), min(bram), min(dsp))


def side_data(
    module: ModuleSpec,
    groups: Sequence[SpanGroup],
    child0: Partition,
    child1: Partition,
    axis: Axis,
) -> SideData:
    """Split a module's span groups between two halves and summarize them.

    A group lands on the first half that holds at least 75% of its span
    along the cut axis, and on neither when no half does. That is the 75%
    area rule for partitions that, like every partition of a pass, span the
    whole device across the cut.
    """
    i, j = (1, 3) if axis == "vertical" else (0, 2)  # col0, col1 or row0, row1
    lo0, hi0, lo1, hi1 = child0.rect[i], child0.rect[j], child1.rect[i], child1.rect[j]
    p0: list[SpanGroup] = []
    p1: list[SpanGroup] = []
    for g in groups:
        lo, hi = g[0], g[1]
        span3 = (hi - lo + 1) * 3
        if ((hi if hi < hi0 else hi0) - (lo if lo > lo0 else lo0) + 1) * 4 >= span3:
            p0.append(g)
        elif ((hi if hi < hi1 else hi1) - (lo if lo > lo1 else lo1) + 1) * 4 >= span3:
            p1.append(g)
    w0, occ0 = _side_summary(p0) if p0 else (None, None)
    w1, occ1 = _side_summary(p1) if p1 else (None, None)
    return SideData(module.id, tuple(p0), tuple(p1), w0, w1, occ0, occ1)


def pair_cut_cost(
    n_ij: float,
    m_i: int,
    m_j: int,
    w_i0: float,
    w_i1: float,
    w_j0: float,
    w_j1: float,
) -> float:
    """Cost of a connection whose endpoints may land on opposite sides."""
    if m_i == m_j:
        # the quadratic term cancels the linear ones exactly; evaluating
        # the full expression would leave rounding residue below zero
        return 0.0
    both = w_i0 + w_i1 + w_j0 + w_j1
    return n_ij * (m_i * (w_i1 + w_j0) + m_j * (w_i0 + w_j1) - m_i * m_j * both)


def external_cut_cost(
    n_ie: float, m_i: int, w_i0: float, w_i1: float, external_side: int, w_e: float
) -> float:
    """Cost of a connection to a module already anchored outside the cut."""
    if external_side == 0:
        return n_ie * m_i * (w_i1 + w_e)
    return n_ie * (1 - m_i) * (w_i0 + w_e)


def build_bqp(
    parent: Partition,
    data: Sequence[SideData],
    connections: Sequence[Connection],
    anchors: Mapping[str, Point],
    axis: Axis,
    extents: Mapping[str, float],
    children: tuple[Partition, Partition],
    requirements: Mapping[str, ResourceVector],
) -> BqpModel:
    """Assemble the side-assignment model for one halving.

    ``extents`` gives each module's mean extent over its full candidate
    list (the estimate used for connection endpoints outside this
    partition) and ``requirements`` the tile needs of the parent-only
    members, charged to both halves pro rata by area.
    """
    child0, child1 = children
    cut = _cut_coordinate(child0, axis)
    by_id = {d.module_id: d for d in data}

    variables: list[str] = []
    fixed: dict[str, int] = {}
    parent_only: list[str] = []
    for d in data:
        if d.parent_only:
            parent_only.append(d.module_id)
        elif d.forced_side is not None:
            fixed[d.module_id] = d.forced_side
        else:
            variables.append(d.module_id)
    index = {m: i for i, m in enumerate(variables)}

    avail0 = list(map(float, children[0].available))
    avail1 = list(map(float, children[1].available))
    share0 = child0.rect.tile_count / parent.rect.tile_count
    for m in parent_only:
        for k, amount in enumerate(requirements[m]):
            avail0[k] -= amount * share0
            avail1[k] -= amount * (1 - share0)
    for m, side in fixed.items():
        occ = by_id[m].occ0 if side == 0 else by_id[m].occ1
        target = avail0 if side == 0 else avail1
        for k, amount in enumerate(occ):  # type: ignore[union-attr]
            target[k] -= amount
    if min(avail0) < 0 or min(avail1) < 0:
        raise InfeasibleModelError(
            f"forced assignments exceed capacity in partition {parent.rect}"
        )

    linear = [[0.0, 0.0] for _ in variables]
    pairs: dict[tuple[int, int], tuple[tuple[float, float], tuple[float, float]]] = {}
    const = 0.0

    def settled_side(module_id: str) -> int:
        """Side of an endpoint that is not a free variable of this solve."""
        if module_id in fixed:
            return fixed[module_id]
        return _anchor_side(anchors[module_id], cut, axis)

    def settled_extent(module_id: str, side: int) -> float:
        """Mean extent of a settled endpoint, as seen from this cut."""
        if module_id in fixed:
            d = by_id[module_id]
            w = d.w0 if side == 0 else d.w1
            assert w is not None
            return w
        return extents.get(module_id, 0.0)

    for conn in connections:
        a, b, n = conn.a, conn.b, conn.signals
        if a not in by_id and b not in by_id:
            continue
        a_free, b_free = a in index, b in index
        if a_free and b_free:
            da, db = by_id[a], by_id[b]
            i, j = index[a], index[b]
            if j < i:
                i, j = j, i
                da, db = db, da
            add = tuple(
                tuple(
                    pair_cut_cost(n, vi, vj, da.w0, da.w1, db.w0, db.w1)
                    for vj in (0, 1)
                )
                for vi in (0, 1)
            )
            old = pairs.get((i, j))
            if old is not None:
                add = tuple(
                    tuple(old[vi][vj] + add[vi][vj] for vj in (0, 1))
                    for vi in (0, 1)
                )
            pairs[(i, j)] = add  # type: ignore[assignment]
        elif a_free or b_free:
            # A settled endpoint costs exactly like a fixed substitution
            # into the pair formula, with its settled side's mean extent.
            if b_free:
                a, b = b, a
            d = by_id[a]
            i = index[a]
            side = settled_side(b)
            w_b = settled_extent(b, side)
            for v in (0, 1):
                linear[i][v] += external_cut_cost(n, v, d.w0, d.w1, side, w_b)
        else:
            sa, sb = settled_side(a), settled_side(b)
            if sa != sb:
                const += n * (settled_extent(a, sa) + settled_extent(b, sb))

    return BqpModel(
        variables=variables,
        linear=[tuple(row) for row in linear],  # type: ignore[misc]
        pairs=pairs,
        const=const,
        occ0=[tuple(by_id[m].occ0) for m in variables],  # type: ignore[arg-type]
        occ1=[tuple(by_id[m].occ1) for m in variables],  # type: ignore[arg-type]
        avail0=tuple(avail0),  # type: ignore[arg-type]
        avail1=tuple(avail1),  # type: ignore[arg-type]
        fixed=fixed,
        parent_only=parent_only,
    )


def objective_of(model: BqpModel, assignment: Sequence[int]) -> float:
    """Objective value of a full 0/1 assignment."""
    total = model.const
    for i, v in enumerate(assignment):
        total += model.linear[i][v]
    for (i, j), corners in model.pairs.items():
        total += corners[assignment[i]][assignment[j]]
    return total


def _overflow(model: BqpModel, assignment: Sequence[int]) -> float:
    """Summed excess of the side loads over the six capacity rows."""
    total = 0.0
    for k in range(3):
        load0 = sum(model.occ0[i][k] for i, v in enumerate(assignment) if v == 0)
        load1 = sum(model.occ1[i][k] for i, v in enumerate(assignment) if v == 1)
        total += max(load0 - model.avail0[k], 0.0) + max(load1 - model.avail1[k], 0.0)
    return total


def assignment_feasible(model: BqpModel, assignment: Sequence[int]) -> bool:
    """Whether an assignment satisfies all six capacity rows."""
    return _overflow(model, assignment) == 0


def _pair_lists(model: BqpModel) -> tuple[list[list], list[list]]:
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


def _greedy_assignment(model: BqpModel) -> list[int]:
    """Sequential seed: each variable takes the locally cheaper side.

    Capacity is tracked and a side that would overflow is avoided when the
    other still fits; ties go to side 0.
    """
    _, by_high = _pair_lists(model)
    out: list[int] = []
    load0 = [0.0, 0.0, 0.0]
    load1 = [0.0, 0.0, 0.0]
    for i, pairs in enumerate(by_high):
        costs = [model.linear[i][0], model.linear[i][1]]
        for a, corners in pairs:
            costs[0] += corners[out[a]][0]
            costs[1] += corners[out[a]][1]
        fits0 = all(load0[k] + model.occ0[i][k] <= model.avail0[k] for k in range(3))
        fits1 = all(load1[k] + model.occ1[i][k] <= model.avail1[k] for k in range(3))
        if fits0 != fits1:
            pick = 0 if fits0 else 1
        else:
            pick = 0 if costs[0] <= costs[1] else 1
        out.append(pick)
        target = load0 if pick == 0 else load1
        occ = model.occ0[i] if pick == 0 else model.occ1[i]
        for k in range(3):
            target[k] += occ[k]
    return out


def _repair(model: BqpModel, assignment: list[int]) -> list[int] | None:
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
                key = (over, objective_of(model, flipped), i)
                if best is None or key < best[0]:
                    best = (key, flipped)
        if best is None:
            return None
        assignment = best[1]
        current = best[0][0]
    return assignment if current == 0 else None


def _local_search(model: BqpModel, assignment: list[int]) -> list[int]:
    """Deterministic improvement sweeps: single flips, then opposite swaps.

    A move is first priced by its change in cost, from the moved variables'
    linear and pair terms. Only a move whose change is not clearly positive
    is summed in full and checked for capacity, so every accept or reject
    compares the same full objective sums as trying each move outright.
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

    best_obj = objective_of(model, assignment)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            if flip_change(i) > best_obj * _SLACK:
                continue
            assignment[i] ^= 1
            obj = objective_of(model, assignment)
            if obj < best_obj and assignment_feasible(model, assignment):
                best_obj = obj
                improved = True
            else:
                assignment[i] ^= 1
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
            if change > best_obj * _SLACK:
                continue
            assignment[i] ^= 1
            assignment[j] ^= 1
            obj = objective_of(model, assignment)
            if obj < best_obj and assignment_feasible(model, assignment):
                best_obj = obj
                improved = True
                changes = [flip_change(k) for k in range(n)]
            else:
                assignment[i] ^= 1
                assignment[j] ^= 1
    return assignment


def _solve_branch_and_bound(
    model: BqpModel, seed: list[int] | None, node_budget: float
) -> list[int] | None:
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
    incumbents in the same order.
    """
    n = len(model.variables)
    linear = model.linear
    best = seed
    best_obj = math.inf if seed is None else objective_of(model, seed)

    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(linear[i])
    by_low, by_high = _pair_lists(model)
    # settled<v>[i]: linear[i][v] plus corners[prefix[j]][v] of each pair
    # (j, i) whose lower variable j is set
    settled0 = [c[0] for c in linear]
    settled1 = [c[1] for c in linear]

    prefix = [0] * n
    nodes = 0

    def descend(
        depth: int, cost: float, rest: float, load0: list[float], load1: list[float]
    ) -> None:
        """Branch on variable ``depth``; ``rest`` sums the cheapest settled
        cost of every variable from ``depth`` on."""
        nonlocal best, best_obj, nodes
        if depth == n:
            if cost < best_obj:
                best, best_obj = prefix.copy(), cost
            return
        s0, s1 = settled0[depth], settled1[depth]
        later = rest - (s0 if s0 < s1 else s1)
        for v in (0, 1):
            if nodes >= node_budget:
                return
            nodes += 1
            step = cost + linear[depth][v]
            for i, corners in by_high[depth]:
                step += corners[prefix[i]][v]
            if step + suffix_min[depth + 1] >= best_obj:
                continue
            occ = model.occ0[depth] if v == 0 else model.occ1[depth]
            load = load0 if v == 0 else load1
            avail = model.avail0 if v == 0 else model.avail1
            if any(load[k] + occ[k] > avail[k] for k in range(3)):
                continue
            bound = later
            undo = []
            for j, corners in by_low[depth]:
                a0, a1 = settled0[j], settled1[j]
                b0 = a0 + corners[v][0]
                b1 = a1 + corners[v][1]
                settled0[j] = b0
                settled1[j] = b1
                bound += (b0 if b0 < b1 else b1) - (a0 if a0 < a1 else a1)
                undo.append((j, a0, a1))
            if step + bound <= best_obj + best_obj * _SLACK:
                prefix[depth] = v
                for k in range(3):
                    load[k] += occ[k]
                descend(depth + 1, step, bound, load0, load1)
                for k in range(3):
                    load[k] -= occ[k]
            for j, a0, a1 in undo:
                settled0[j] = a0
                settled1[j] = a1
    descend(0, model.const, suffix_min[0], [0.0] * 3, [0.0] * 3)
    return best


def solve_bqp(model: BqpModel, node_budget: int = DEFAULT_NODE_BUDGET) -> dict[str, int] | None:
    """Best side assignment found for the model's free variables.

    One branch-and-bound search serves every size. Up to 16 variables it
    runs unseeded and uncapped, so it is exact and ``node_budget`` is
    ignored; ties go to the lexicographically first assignment. Beyond
    that it starts from a greedy seed, repaired to fit and improved by
    local search, and stops after ``node_budget`` search nodes, so results
    are reproducible. Returns None when no feasible assignment exists (or
    none was found within budget).
    """
    if not model.variables:
        return {}
    if len(model.variables) <= EXACT_LIMIT:
        bits = _solve_branch_and_bound(model, None, math.inf)
    else:
        seed = _repair(model, _greedy_assignment(model))
        if seed is not None:
            seed = _local_search(model, seed)
        bits = _solve_branch_and_bound(model, seed, node_budget)
    if bits is None:
        return None
    return dict(zip(model.variables, bits))


def recursive_bipartition(
    fabric: Fabric,
    design: Design,
    candidates: Mapping[str, Sequence[PlacementCandidate]],
    axis: Axis,
    log: IO[str] | None = None,
) -> dict[str, Point]:
    """Anchor every module by recursive halving along one axis.

    Each halving solves the side-assignment model and moves the assigned
    modules' anchors to their half's center; modules stuck at a partition
    keep its center. A solve may only read the anchors that existed when
    its parent's solve finished, so sibling subtrees cannot influence each
    other and the recursion is order-independent.
    """
    bounds = fabric.bounds
    module_ids = [m.id for m in design.modules]
    anchors: dict[str, Point] = {m: bounds.center for m in module_ids}
    requirements = {m.id: m.req for m in design.modules}
    # equal requirements share one candidate list; group each list once
    by_list: dict[int, tuple[SpanGroup, ...]] = {}
    for m in module_ids:
        if id(candidates[m]) not in by_list:
            by_list[id(candidates[m])] = span_groups(candidates[m], axis)
    root_lists = {m: by_list[id(candidates[m])] for m in module_ids}
    extents = {m: _side_summary(g)[0] for m, g in root_lists.items() if g}

    root = Partition(bounds, tuple(module_ids), fabric.available_in_rect(bounds))
    stack = [(root, root_lists, dict(anchors), True)]
    while stack:
        partition, group_lists, snapshot, is_root = stack.pop()
        span = partition.rect.width if axis == "vertical" else partition.rect.height
        if len(partition.members) < 2 or span < 2:
            continue
        child0, child1 = split_partition(partition, axis, fabric)
        data = [
            side_data(design.module(m), group_lists[m], child0, child1, axis)
            for m in partition.members
        ]
        started = time.perf_counter()
        try:
            model = build_bqp(
                partition, data, design.connections, snapshot, axis,
                extents, (child0, child1), requirements,
            )
            assignment = solve_bqp(model)
        except InfeasibleModelError:
            model, assignment = None, None
        if assignment is None or model is None:
            if is_root:
                raise InfeasibleModelError(
                    f"no feasible side assignment at the device root ({axis} pass)"
                )
            # members keep the parent's anchor; placement may still succeed
            continue
        if log is not None:
            record = {
                "axis": axis,
                "rect": list(partition.rect),
                "variables": len(model.variables),
                "objective": objective_of(
                    model, [assignment[m] for m in model.variables]
                ),
                "solve_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }
            log.write(json.dumps(record) + "\n")

        sides = dict(assignment)
        sides.update(model.fixed)
        updates: dict[str, Point] = {}
        members: tuple[list[str], list[str]] = ([], [])
        lists: tuple[dict, dict] = ({}, {})
        for d in data:
            if d.module_id not in sides:
                continue
            side = sides[d.module_id]
            child = child0 if side == 0 else child1
            updates[d.module_id] = child.center
            anchors[d.module_id] = child.center
            members[side].append(d.module_id)
            lists[side][d.module_id] = d.placements0 if side == 0 else d.placements1
        # read-only from here on, so both children share it
        child_snapshot = {**snapshot, **updates}
        for side, child in ((0, child0), (1, child1)):
            stack.append((
                Partition(child.rect, tuple(members[side]), child.available),
                lists[side],
                child_snapshot,
                False,
            ))
    return anchors


def compute_anchors(
    fabric: Fabric,
    design: Design,
    candidates: Mapping[str, Sequence[PlacementCandidate]],
    log: IO[str] | None = None,
) -> dict[str, Point]:
    """Final anchors: x from the vertical-cut pass, y from the horizontal."""
    vertical = recursive_bipartition(fabric, design, candidates, "vertical", log)
    horizontal = recursive_bipartition(fabric, design, candidates, "horizontal", log)
    return {m: (vertical[m][0], horizontal[m][1]) for m in vertical}
