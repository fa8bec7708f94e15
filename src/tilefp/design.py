"""Design model: reconfigurable modules, interconnect and objective weights.

Modules carry tile requirements by resource kind; connections are weighted
buses between two modules. Designs are read and written as line documents
and can be generated pseudo-randomly against a fabric.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .fabric import Fabric, ResourceKind, ResourceVector, _read_directives

__all__ = [
    "Connection",
    "Design",
    "DesignError",
    "GenerationError",
    "ModuleSpec",
    "generate_random_design",
    "parse_design",
    "write_design",
]

CONNECTION_SIGNALS = 64  # bus width used by the random generator


class DesignError(ValueError):
    """Malformed design document or inconsistent design data."""


class GenerationError(ValueError):
    """Random design generation cannot meet the requested occupancy."""


def _check_weights(alpha: float, beta: float) -> None:
    """Reject objective weights that are not finite, non-negative and not both zero."""
    if not all(math.isfinite(w) and w >= 0 for w in (alpha, beta)) or alpha + beta <= 0:
        raise DesignError("objective weights must be finite, non-negative, not both zero")


def _bad_id_char(ch: str) -> bool:
    """``#``, whitespace, or a character XML 1.0 cannot carry (so neither can
    an SVG label): a C0 or C1 control, a surrogate, U+FFFE or U+FFFF."""
    code = ord(ch)
    return (
        ch == "#" or ch.isspace() or code < 0x20 or 0x7F <= code <= 0x9F
        or 0xD800 <= code <= 0xDFFF or code in (0xFFFE, 0xFFFF)
    )


@dataclass(frozen=True)
class ModuleSpec:
    """One reconfigurable module and its tile requirement."""

    id: str
    req: ResourceVector

    def __post_init__(self) -> None:
        if not self.id or any(map(_bad_id_char, self.id)):
            raise DesignError(f"bad module id {self.id!r}")
        if any(v < 0 for v in self.req):
            raise DesignError(f"module {self.id}: negative requirement")
        if self.req.total == 0:
            raise DesignError(f"module {self.id}: requirement is all zero")


@dataclass(frozen=True)
class Connection:
    """Undirected bus between two modules, weighted by signal count."""

    a: str
    b: str
    signals: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise DesignError(f"connection from {self.a} to itself")
        if self.signals < 1:
            raise DesignError(
                f"connection {self.a}-{self.b}: signal count must be positive"
            )


@dataclass
class Design:
    """A set of modules plus interconnect and objective weights."""

    modules: list[ModuleSpec]
    connections: list[Connection] = field(default_factory=list)
    alpha: float = 0.5
    beta: float = 0.5
    _by_id: dict[str, ModuleSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {m.id: m for m in self.modules}
        if len(self._by_id) != len(self.modules):
            raise DesignError("duplicate module ids")
        seen_pairs = set()
        for conn in self.connections:
            if conn.a not in self._by_id or conn.b not in self._by_id:
                raise DesignError(
                    f"connection {conn.a}-{conn.b} references an unknown module"
                )
            pair = frozenset((conn.a, conn.b))
            if pair in seen_pairs:
                raise DesignError(f"duplicate connection {conn.a}-{conn.b}")
            seen_pairs.add(pair)
        _check_weights(self.alpha, self.beta)

    def module(self, module_id: str) -> ModuleSpec:
        return self._by_id[module_id]


_DESIGN_LAYOUTS = (
    "module <id> <clb:int> <bram:int> <dsp:int>",
    "connect <idA> <idB> <signals:int>",
    "weights <alpha:float> <beta:float>",
)


def parse_design(text: str) -> Design:
    """Parse a design document.

    Lines: ``module <id> <clb> <bram> <dsp>``, ``connect <idA> <idB>
    <signals>`` and an optional ``weights <alpha> <beta>``; a repeated
    ``weights`` line must match the first one. Connections for the same
    unordered pair are merged by summing signals. ``#`` starts a comment.
    """
    modules: dict[str, ModuleSpec] = {}
    # unordered pair -> (fail of its first connect line, summed signals)
    pairs: dict[frozenset[str], tuple] = {}
    weights: tuple[float, float] | None = None

    for fail, directive, values in _read_directives(text, DesignError, _DESIGN_LAYOUTS):
        try:
            if directive == "module":
                mid, *req = values
                if mid in modules:
                    raise DesignError(f"duplicate module id {mid!r}")
                modules[mid] = ModuleSpec(mid, ResourceVector(*req))
            elif directive == "connect":
                conn = Connection(*values)
                pair = frozenset((conn.a, conn.b))
                first, signals = pairs.get(pair, (fail, 0))
                pairs[pair] = (first, signals + conn.signals)
            elif weights is None:
                _check_weights(*values)
                weights = tuple(values)
            elif weights != tuple(values):
                raise DesignError("'weights' line differs from the first one")
        except DesignError as exc:
            fail(str(exc))

    if not modules:
        raise DesignError("design has no modules")
    connections = []
    for pair, (fail, signals) in pairs.items():
        a, b = sorted(pair)
        for end in (a, b):
            if end not in modules:
                fail(f"connection {a}-{b} references unknown module {end!r}")
        connections.append(Connection(a, b, signals))
    return Design(list(modules.values()), connections, *(weights or (Design.alpha, Design.beta)))


def write_design(design: Design) -> str:
    """Serialize a design so that it parses back to the same content."""
    lines = []
    for m in design.modules:
        lines.append(f"module {m.id} {m.req.clb} {m.req.bram} {m.req.dsp}")
    for c in design.connections:
        lines.append(f"connect {c.a} {c.b} {c.signals}")
    # repr is the shortest text that parses back to the same float
    lines.append(f"weights {design.alpha!r} {design.beta!r}")
    return "\n".join(lines) + "\n"


def _weighted_split(rng: random.Random, amount: int, shares: int) -> list[int]:
    """Split ``amount`` into ``shares >= 1`` parts by normalized random weights.

    Weights are uniform in [1, 2]. Fractional parts are floored and the
    remainder goes to the lowest-index parts, so the parts always sum to
    ``amount`` exactly.
    """
    weights = [1.0 + rng.random() for _ in range(shares)]
    total_weight = sum(weights)
    parts = [math.floor(amount * w / total_weight) for w in weights]
    remainder = amount - sum(parts)
    for i in range(remainder):
        parts[i] += 1
    return parts


def generate_random_design(
    n: int,
    fabric: Fabric,
    occupancy: tuple[float, float, float],
    seed: int,
) -> Design:
    """Generate a pseudo-random design sized against a fabric.

    Per-kind tile targets are ``floor(occupancy * available tiles)``. The
    CLB target is split over all modules with one tile reserved for each up
    front, so no module ends up empty; BRAM and DSP targets go to random
    subsets (each module flagged with probability one half, at least one
    flagged when the target is positive). Any two modules are connected
    with probability ``1/n`` by a 64-signal bus.

    The generator draws from Python's seeded Mersenne Twister in a fixed
    documented order, so one seed always yields the same design.
    """
    if n < 2:
        raise GenerationError("need at least two modules")
    for frac in occupancy:
        if not 0 < frac <= 1:
            raise GenerationError(f"occupancy {frac} outside (0, 1]")

    rng = random.Random(seed)
    avail = fabric.available_in_rect(fabric.bounds)
    targets = [math.floor(frac * avail[i]) for i, frac in enumerate(occupancy)]

    clb_target = targets[ResourceKind.CLB.index]
    if clb_target < n:
        raise GenerationError(
            f"CLB target {clb_target} cannot give each of {n} modules a tile"
        )
    clb_parts = _weighted_split(rng, clb_target - n, n)
    reqs = [[1 + part, 0, 0] for part in clb_parts]

    for kind in (ResourceKind.BRAM, ResourceKind.DSP):
        target = targets[kind.index]
        if target == 0:
            continue
        flags = [rng.random() < 0.5 for _ in range(n)]
        if not any(flags):
            flags[int(rng.random() * n)] = True
        flagged = [i for i, f in enumerate(flags) if f]
        for i, part in zip(flagged, _weighted_split(rng, target, len(flagged))):
            reqs[i][kind.index] = part

    width = len(str(n - 1))
    modules = [
        ModuleSpec(f"m{i:0{width}d}", ResourceVector(*req))
        for i, req in enumerate(reqs)
    ]
    connections = []
    p = 1.0 / n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                connections.append(
                    Connection(modules[i].id, modules[j].id, CONNECTION_SIGNALS)
                )
    return Design(modules, connections)
