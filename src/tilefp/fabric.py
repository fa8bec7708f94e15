"""Tile-grid model of a partially reconfigurable FPGA device.

The device is a matrix of tiles. Rows are clock regions, counted bottom to
top; columns are resource columns, counted left to right. Every column
carries a single resource kind over the full device height, so layout
heterogeneity is purely column-wise. Rectangles are inclusive on both ends.
"""

from __future__ import annotations

import enum
import sys
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn

__all__ = [
    "DEFAULT_FRAMES",
    "Fabric",
    "FabricError",
    "Rect",
    "ResourceKind",
    "ResourceVector",
    "parse_fabric",
]


class FabricError(ValueError):
    """Malformed fabric document or invalid fabric query."""


class ResourceKind(enum.Enum):
    """Resource kind a column can carry."""

    CLB = "C"
    BRAM = "B"
    DSP = "D"

    @classmethod
    def from_char(cls, ch: str) -> "ResourceKind":
        try:
            return cls(ch)
        except ValueError:
            raise FabricError(f"unknown resource kind {ch!r}") from None

    @property
    def index(self) -> int:
        return _KIND_INDEX[self]


_KIND_INDEX = {ResourceKind.CLB: 0, ResourceKind.BRAM: 1, ResourceKind.DSP: 2}

# Reconfiguration frames per tile, by kind.
DEFAULT_FRAMES: Mapping[ResourceKind, int] = {
    ResourceKind.CLB: 36,
    ResourceKind.BRAM: 30,
    ResourceKind.DSP: 28,
}


class ResourceVector(NamedTuple):
    """Tile counts by kind, combined and compared componentwise."""

    clb: int = 0
    bram: int = 0
    dsp: int = 0

    def covers(self, other: "ResourceVector") -> bool:
        return (
            self.clb >= other.clb
            and self.bram >= other.bram
            and self.dsp >= other.dsp
        )

    def of(self, kind: ResourceKind) -> int:
        return self[kind.index]

    @property
    def total(self) -> int:
        return self.clb + self.bram + self.dsp

    def __add__(self, other):  # type: ignore[override]
        return ResourceVector(
            self.clb + other.clb, self.bram + other.bram, self.dsp + other.dsp
        )

    # Subtraction is only defined when it stays non-negative; a surplus
    # computation that would go negative is always a caller bug.
    def __sub__(self, other):
        if not self.covers(other):
            raise ValueError(f"subtraction would go negative: {self} - {other}")
        return ResourceVector(
            self.clb - other.clb, self.bram - other.bram, self.dsp - other.dsp
        )


class Rect(NamedTuple):
    """Inclusive tile rectangle, rows bottom to top and columns left to right."""

    row0: int
    col0: int
    row1: int
    col1: int

    @property
    def width(self) -> int:
        return self.col1 - self.col0 + 1

    @property
    def height(self) -> int:
        return self.row1 - self.row0 + 1

    @property
    def tile_count(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Geometric center in tile units, x along columns and y along rows."""
        return (self.col0 + self.col1 + 1) / 2, (self.row0 + self.row1 + 1) / 2

    def overlaps(self, other: "Rect") -> bool:
        return not (
            self.col1 < other.col0
            or other.col1 < self.col0
            or self.row1 < other.row0
            or other.row1 < self.row0
        )


class Fabric:
    """Immutable device grid with O(1) rectangle resource queries.

    ``column_kinds`` is a string of C/B/D characters, one per column.
    Reserved rectangles mark tiles (typically static logic) no
    reconfigurable region may use. The rect queries also take a plain
    ``(row0, col0, row1, col1)`` tuple, such as a tessellation candidate.
    """

    def __init__(
        self,
        rows: int,
        column_kinds: str,
        reserved: Iterable[Rect] = (),
        frames: Mapping[ResourceKind, int] | None = None,
    ) -> None:
        if rows < 1:
            raise FabricError("device needs at least one clock-region row")
        kinds = tuple(ResourceKind.from_char(ch) for ch in column_kinds)
        if not kinds:
            raise FabricError("device needs at least one resource column")
        self._rows = rows
        self._kinds = kinds
        self._frames = dict(DEFAULT_FRAMES)
        if frames:
            self._frames.update(frames)
        for kind, per_tile in self._frames.items():
            if per_tile < 1:
                raise FabricError(f"frames per {kind.name} tile must be positive")
        self._frame_weights = tuple(self._frames[kind] for kind in ResourceKind)

        cols = len(kinds)
        # Per-kind column prefix counts: _kind_prefix[k][c] counts columns of
        # kind k in [0, c).
        self._kind_prefix = [[0] * (cols + 1) for _ in range(3)]
        for c, kind in enumerate(kinds):
            for k in range(3):
                self._kind_prefix[k][c + 1] = self._kind_prefix[k][c]
            self._kind_prefix[kind.index][c + 1] += 1
        self._columns_by_kind = {
            kind: tuple(c for c, k in enumerate(kinds) if k is kind)
            for kind in ResourceKind
        }

        reserved = tuple(reserved)
        for rect in reserved:
            if not (
                0 <= rect.row0 <= rect.row1 < rows
                and 0 <= rect.col0 <= rect.col1 < cols
            ):
                raise FabricError(f"reserved rect out of bounds: {rect}")
        self._reserved_rects = reserved
        # 2D prefix sum of the reserved cell mask, for O(1) rect queries.
        pref = [[0] * (cols + 1) for _ in range(rows + 1)]
        if reserved:
            mask = [[False] * cols for _ in range(rows)]
            for rect in reserved:
                for r in range(rect.row0, rect.row1 + 1):
                    row = mask[r]
                    for c in range(rect.col0, rect.col1 + 1):
                        row[c] = True
            for r in range(rows):
                row_pref = pref[r + 1]
                prev = pref[r]
                acc = 0
                for c in range(cols):
                    acc += mask[r][c]
                    row_pref[c + 1] = prev[c + 1] + acc
        self._reserved_prefix = pref

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return len(self._kinds)

    @property
    def frames(self) -> Mapping[ResourceKind, int]:
        return dict(self._frames)

    @property
    def reserved_rects(self) -> tuple[Rect, ...]:
        return self._reserved_rects

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self._rows - 1, self.cols - 1)

    def kind_of(self, col: int) -> ResourceKind:
        if not 0 <= col < self.cols:
            raise FabricError(f"column {col} out of range")
        return self._kinds[col]

    def columns_of(self, kind: ResourceKind) -> tuple[int, ...]:
        return self._columns_by_kind[kind]

    def in_bounds(self, rect: Rect) -> bool:
        row0, col0, row1, col1 = rect
        return 0 <= row0 <= row1 < self._rows and 0 <= col0 <= col1 < self.cols

    def _check_rect(self, rect: Rect) -> None:
        if not self.in_bounds(rect):
            raise FabricError(f"rect out of bounds: {Rect._make(rect)}")

    @property
    def prefix_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """The reserved and per-kind prefix tables, for hot loops: read-only."""
        return self._reserved_prefix, self._kind_prefix

    def reserved_tiles_in(self, rect: Rect) -> int:
        self._check_rect(rect)
        row0, col0, row1, col1 = rect
        bottom, top = self._reserved_prefix[row0], self._reserved_prefix[row1 + 1]
        return top[col1 + 1] - bottom[col1 + 1] - top[col0] + bottom[col0]

    def is_reserved(self, row: int, col: int) -> bool:
        return self.reserved_tiles_in(Rect(row, col, row, col)) > 0

    def frames_of(self, vec: ResourceVector) -> int:
        """Reconfiguration frame count of a tile bundle."""
        clb, bram, dsp = self._frame_weights
        return vec.clb * clb + vec.bram * bram + vec.dsp * dsp

    def available_in_rect(self, rect: Rect) -> ResourceVector:
        """Tile counts by kind inside ``rect`` but outside reserved areas."""
        self._check_rect(rect)
        row0, col0, row1, col1 = rect
        bottom, top = self._reserved_prefix[row0], self._reserved_prefix[row1 + 1]
        counts = [0, 0, 0]
        for c in range(col0, col1 + 1):
            reserved = top[c + 1] - bottom[c + 1] - top[c] + bottom[c]
            counts[self._kinds[c].index] += row1 - row0 + 1 - reserved
        return ResourceVector(*counts)


def _fit(matchers: list, words: list[str]) -> list:
    """The converted placeholder values of a line; ValueError when it does not fit."""
    if len(matchers) != len(words):
        raise ValueError("wrong number of words")
    values = []
    for matcher, word in zip(matchers, words):
        if not isinstance(matcher, str):
            values.append(matcher(word))
        elif matcher != word:
            raise ValueError(f"expected {matcher!r}, got {word!r}")
    return values


def _read_directives(
    text: str, error: type[Exception], layouts: Iterable[str]
) -> Iterator[tuple[Callable[[str], NoReturn], str, list]]:
    """Read a line document, one directive per line, against usage layouts.

    A layout is a usage line such as ``rows <count:int>``: the directive,
    then bare words that must appear as written and ``<name>`` placeholders
    that take one word each, converted by an ``:int`` or ``:float`` suffix.
    A directive may have several layouts. ``#`` starts a comment. Yields
    ``(fail, directive, values)`` per directive line, where ``fail(msg)``
    raises ``error`` prefixed with ``line N:``; an unknown directive, or a
    line that fits none of its layouts, fails the same way.
    """
    # per directive: (layout, matchers), a matcher being a bare word or the
    # converter of a placeholder
    usages: dict[str, list[tuple[str, list]]] = {}
    for layout in layouts:
        directive, *fields = layout.split()
        matchers = [
            {"": str, "int": int, "float": float}[field[1:-1].partition(":")[2]]
            if field[0] == "<"
            else field
            for field in fields
        ]
        usages.setdefault(directive, []).append((layout, matchers))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.partition("#")[0].split()
        if not words:
            continue

        def fail(msg: str, lineno: int = lineno) -> NoReturn:
            raise error(f"line {lineno}: {msg}")

        if words[0] not in usages:
            fail(f"unknown directive {words[0]!r}")
        for _, matchers in usages[words[0]]:
            try:
                values = _fit(matchers, words[1:])
                break
            except ValueError:
                continue
        else:
            fail("expected: " + " or ".join(layout for layout, _ in usages[words[0]]))
        yield fail, words[0], values


_FABRIC_LAYOUTS = (
    "rows <count:int>",
    "columns <kinds>",
    "reserved <row0:int> <col0:int> <row1:int> <col1:int>",
    "frames <clb:int> <bram:int> <dsp:int>",
)


def parse_fabric(text: str) -> Fabric:
    """Parse a fabric document.

    Directives, one per line: ``rows N``, ``columns <C/B/D string>``,
    ``reserved row0 col0 row1 col1`` (repeatable) and an optional
    ``frames clb bram dsp`` override. ``#`` starts a comment. A repeated
    ``rows``, ``columns`` or ``frames`` line must match the first one;
    column kinds, for one, are uniform over the column height. A frame
    count times the device's tile count must stay below 10 to the power of
    Python's limit on the digits of a printed int: every wastage is below
    that product, so every document and summary line can print it.
    """
    # the values of the first rows, columns and frames line
    first: dict[str, list] = {}
    reserved = []
    frames_fail = None

    for fail, directive, values in _read_directives(text, FabricError, _FABRIC_LAYOUTS):
        if directive == "reserved":
            reserved.append((fail, Rect(*values)))
        elif first.setdefault(directive, values) != values:
            fail(f"{directive!r} line differs from the first one")
        elif directive == "rows":
            if values[0] < 1:
                fail(f"row count must be positive, got {values[0]}")
        elif directive == "columns":
            for ch in values[0]:
                if ch not in "CBD":
                    fail(f"unknown resource kind {ch!r}")
        elif any(v < 1 for v in values):
            fail("frame counts must be positive")
        else:
            frames_fail = fail

    if "rows" not in first:
        raise FabricError("missing 'rows' directive")
    if "columns" not in first:
        raise FabricError("missing 'columns' directive")
    (rows,), (columns,) = first["rows"], first["columns"]
    frames = dict(zip(ResourceKind, first["frames"])) if "frames" in first else None
    # 0 when ints print at any length; absent before Python 3.10.7, which had no limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if frames_fail and digits and max(frames.values()) * rows * len(columns) >= 10**digits:
        frames_fail(f"a frame count times the {rows * len(columns)} tiles reaches 10**{digits}")
    for fail, (r0, c0, r1, c1) in reserved:
        if not (0 <= r0 <= r1 < rows and 0 <= c0 <= c1 < len(columns)):
            fail("reserved rect out of bounds")
    return Fabric(rows, columns, (rect for _, rect in reserved), frames)
