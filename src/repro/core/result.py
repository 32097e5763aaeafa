"""Global-routing results: per-net wiring plus the data downstream stages
(channel routing, sign-off timing, reporting) consume."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..geometry import Interval
from ..layout.floorplan import Floorplan
from ..routegraph.graph import EdgeKind, RouteEdge, RouteVertex, VertexKind
from ..timing.delay_model import WireSegment
from ..timing.sta import WireCaps

_TRUNK = EdgeKind.TRUNK
_bounds = attrgetter("lo", "hi")  # the order Interval compares in


class AttachSide(enum.Enum):
    """Which channel boundary a vertical attachment enters from."""

    BOTTOM = "bottom"
    TOP = "top"


class ChannelAttachment(NamedTuple):
    """A point where a net enters a channel: a terminal stub, external
    pin, or feedthrough end (an immutable value, compared by fields)."""

    channel: int
    column: int
    side: AttachSide


class RoutedEdge(NamedTuple):
    """An immutable snapshot of one final-wiring edge (compared by
    fields).  ``build_result`` makes one per tree edge of every net, so
    it is a tuple: about half the construction cost of a frozen
    dataclass."""

    kind: EdgeKind
    channel: int
    interval: Interval
    length_um: float


class ConvergedTree(NamedTuple):
    """A net's converged routing tree, as :class:`NetRoute` keeps it to
    build the Elmore segments on read: the routing graph's vertices,
    its alive edges in ascending index order, and the driver vertex."""

    vertices: Sequence[RouteVertex]
    edges: Sequence[RouteEdge]
    driver: int


@dataclass
class NetRoute:
    """Final global route of one net.

    ``elmore_segments`` encode the routed tree as driver-rooted wire
    segments (the :class:`~repro.timing.delay_model.ElmoreDelayModel`
    input); ``sink_pin_names[i]`` names the net pin hanging at the
    segment whose ``sink_index == i``.  Only the RC analyses read them,
    so both are built from ``tree`` on first read (by
    :func:`elmore_tree`) and kept; a route never read builds neither,
    and a route without a ``tree`` has neither.
    """

    net_name: str
    width_pitches: int
    edges: List[RoutedEdge]
    attachments: List[ChannelAttachment]
    total_length_um: float
    wire_cap_pf: float
    tree: Optional[ConvergedTree] = field(
        default=None, repr=False, compare=False
    )
    _elmore: Optional[Tuple[List[WireSegment], List[str]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def elmore_segments(self) -> List[WireSegment]:
        return self._elmore_tree()[0]

    @property
    def sink_pin_names(self) -> List[str]:
        return self._elmore_tree()[1]

    def _elmore_tree(self) -> Tuple[List[WireSegment], List[str]]:
        if self._elmore is None:
            self._elmore = (
                ([], []) if self.tree is None
                else elmore_tree(self.tree, self.width_pitches)
            )
        return self._elmore

    def trunk_intervals(self) -> Dict[int, List[Interval]]:
        """Per channel, the net's merged horizontal spans."""
        by_channel: Dict[int, List[Interval]] = {}
        for kind, channel, interval, _ in self.edges:
            if kind is _TRUNK:
                by_channel.setdefault(channel, []).append(interval)
        return {
            channel: merge_intervals(spans)
            for channel, spans in by_channel.items()
        }


def elmore_tree(
    tree: ConvergedTree, width_pitches: int
) -> Tuple[List[WireSegment], List[str]]:
    """Driver-rooted wire segments of a converged net, for the RC model.

    Returns ``(segments, sink_pin_names)`` where segments follow the
    :class:`~repro.timing.delay_model.WireSegment` convention: each tree
    edge becomes one segment whose parent is the segment through which
    the driver reaches it; a segment ending on a (non-driver) terminal
    vertex records that pin's sink index.  A breadth-first walk from the
    driver over an index-based queue, visiting each vertex's edges in
    ascending edge index — the routing graph's CSR neighbour order.
    """
    neighbours: Dict[int, List[RouteEdge]] = {}
    for edge in tree.edges:
        neighbours.setdefault(edge.u, []).append(edge)
        neighbours.setdefault(edge.v, []).append(edge)
    vertices = tree.vertices
    driver = tree.driver
    segments: List[WireSegment] = []
    sink_names: List[str] = []
    segment_of_vertex = {driver: -1}
    queue = [driver]
    head = 0
    while head < len(queue):
        vertex = queue[head]
        head += 1
        parent_segment = segment_of_vertex[vertex]
        for edge in neighbours.get(vertex, ()):
            other = edge.v if edge.u == vertex else edge.u
            if other in segment_of_vertex:
                continue
            other_vertex = vertices[other]
            sink_index = -1
            if other_vertex.kind is VertexKind.TERMINAL and other != driver:
                sink_index = len(sink_names)
                sink_names.append(other_vertex.pin.full_name)
            segment_of_vertex[other] = len(segments)
            segments.append(
                WireSegment(
                    parent_segment, edge.length_um, width_pitches, sink_index
                )
            )
            queue.append(other)
    return segments, sink_names


def merge_intervals(spans: List[Interval]) -> List[Interval]:
    """Merge overlapping / endpoint-sharing intervals into maximal runs.

    Trunk intervals are continuous vertex-coordinate spans: two trunks
    of one net abut only when they share an endpoint vertex (``[3,19]``
    + ``[19,24]`` → ``[3,24]``).  ``[3,19]`` and ``[20,24]`` are two
    physically separate wires with a gap over column 19 — the
    gap-of-one "adjacency" that :meth:`Interval.touches_or_overlaps`
    merges (slot-run semantics) must NOT be bridged here, or the
    channel router lays extra wire and the verifier's recomputed
    density over-counts columns no trunk covers.
    """
    if len(spans) < 2:
        return list(spans)
    merged: List[Interval] = []
    for span in sorted(spans, key=_bounds):
        if merged and merged[-1].hi >= span.lo:
            merged[-1] = merged[-1].union_hull(span)
        else:
            merged.append(span)
    return merged


@dataclass
class GlobalRoutingResult:
    """Everything the global router produced."""

    circuit_name: str
    routes: Dict[str, NetRoute]
    wire_caps: WireCaps
    constraint_margins: Dict[str, float]
    critical_delay_ps: float
    channel_peak_density: Dict[int, int]
    estimated_floorplan: Floorplan
    total_length_um: float
    cpu_seconds: float
    deletions: int
    reroutes: int
    feed_cells_inserted: int = 0
    chip_widened_columns: int = 0

    @property
    def total_length_mm(self) -> float:
        return self.total_length_um / 1000.0

    @property
    def violations(self) -> List[str]:
        """Names of constraints still violated."""
        return [
            name
            for name, margin in self.constraint_margins.items()
            if margin < 0.0
        ]

    @property
    def worst_margin_ps(self) -> float:
        if not self.constraint_margins:
            return float("inf")
        return min(self.constraint_margins.values())

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"circuit {self.circuit_name}:",
            f"  critical delay  {self.critical_delay_ps:9.1f} ps",
            f"  est. area       {self.estimated_floorplan.area_mm2:9.4f} mm^2",
            f"  wire length     {self.total_length_mm:9.3f} mm",
            f"  cpu             {self.cpu_seconds:9.2f} s",
            f"  deletions       {self.deletions:9d}",
            f"  reroutes        {self.reroutes:9d}",
        ]
        if self.constraint_margins:
            lines.append(
                f"  worst margin    {self.worst_margin_ps:9.1f} ps "
                f"({len(self.violations)} violations)"
            )
        return "\n".join(lines)
