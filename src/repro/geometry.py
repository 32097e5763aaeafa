"""Small geometric primitives used throughout the router.

The global router works on an integer grid of *columns* (one wiring pitch
per column) and integer *rows* / *channels*.  The two workhorse types here
are :class:`Interval` — a closed integer range of columns, used for trunk
edges and channel-density bookkeeping — and :class:`Rect`, used for net
bounding boxes and the half-perimeter (HPWL) lower bound of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

_set = object.__setattr__  # how a frozen dataclass sets its fields


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` of grid columns.

    A single column is represented as ``Interval(x, x)``; its ``span`` is 0
    but it still *covers* one column.  Intervals are ordered
    lexicographically by ``(lo, hi)``.
    """

    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        # Written out rather than generated: the frozen dataclass
        # ``__init__`` plus a ``__post_init__`` check costs about a
        # quarter more, and routing-graph construction makes one per
        # trunk.
        if lo > hi:
            raise ValueError(f"Interval lo={lo} > hi={hi}")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @staticmethod
    def spanning(columns: Iterable[int]) -> "Interval":
        """The smallest interval covering every column in ``columns``."""
        cols = list(columns)
        if not cols:
            raise ValueError("Interval.spanning() needs at least one column")
        return Interval(min(cols), max(cols))

    @property
    def span(self) -> int:
        """Distance ``hi - lo`` (0 for a single column)."""
        return self.hi - self.lo

    @property
    def width(self) -> int:
        """Number of columns covered (``span + 1``)."""
        return self.hi - self.lo + 1

    def contains(self, x: int) -> bool:
        """Whether column ``x`` lies in the interval."""
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the closed intervals share at least one column."""
        return self.lo <= other.hi and other.lo <= self.hi

    def touches_or_overlaps(self, other: "Interval") -> bool:
        """Overlap, or adjacency with no gap (``[1,3]`` and ``[4,6]``)."""
        return self.lo <= other.hi + 1 and other.lo <= self.hi + 1

    def intersection(self, other: "Interval") -> "Interval":
        """The common sub-interval; raises ``ValueError`` if disjoint."""
        if not self.overlaps(other):
            raise ValueError(f"{self} and {other} are disjoint")
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def columns(self) -> Iterator[int]:
        """Iterate the covered columns."""
        return iter(range(self.lo, self.hi + 1))

    def clamp(self, lo: int, hi: int) -> "Interval":
        """Clip the interval into ``[lo, hi]``; raises if fully outside."""
        nlo, nhi = max(self.lo, lo), min(self.hi, hi)
        if nlo > nhi:
            raise ValueError(f"{self} lies outside [{lo}, {hi}]")
        return Interval(nlo, nhi)

    def __iter__(self) -> Iterator[int]:
        return iter((self.lo, self.hi))


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle on the (column, row) grid, closed on all
    sides.  ``y`` coordinates count rows (or channels) — any consistent
    integer vertical unit works."""

    x_lo: int
    y_lo: int
    x_hi: int
    y_hi: int

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"degenerate Rect {self}")

    @staticmethod
    def bounding(points: Iterable[Tuple[int, int]]) -> "Rect":
        """Bounding box of ``(x, y)`` points; raises on an empty iterable."""
        pts = list(points)
        if not pts:
            raise ValueError("Rect.bounding() needs at least one point")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def half_perimeter(self) -> int:
        """Half the perimeter — the classic HPWL net-length lower bound used
        for the paper's Table 3."""
        return self.width + self.height

    def contains(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi


def hpwl(points: Sequence[Tuple[int, int]]) -> int:
    """Half-perimeter wire length of a point set (0 for a single point)."""
    if not points:
        raise ValueError("hpwl() needs at least one point")
    return Rect.bounding(points).half_perimeter


def manhattan(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """Manhattan distance between two ``(x, y)`` points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])
