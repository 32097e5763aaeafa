"""Global-routing results: per-net wiring plus the data downstream stages
(channel routing, sign-off timing, reporting) consume.

Every final wire and channel attachment of a result lives in one
chip-wide :class:`RouteTable` of numpy columns; a route's ``edges`` and
``attachments`` are read-only views over its rows that build
:class:`RoutedEdge`/:class:`ChannelAttachment` values only when read.
Channel routing and the verifier read the table itself
(:func:`route_table`).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import and_, attrgetter, is_
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..geometry import Interval
from ..layout.floorplan import Floorplan
from ..netlist.circuit import NetPin, Terminal
from ..routegraph.graph import EdgeKind, RoutingGraph, VertexKind
from ..timing.delay_model import WireSegment
from ..timing.sta import WireCaps

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
    fields), built on read from a :class:`RouteTable` row."""

    kind: EdgeKind
    channel: int
    interval: Interval
    length_um: float


class ConvergedTree(NamedTuple):
    """A net's converged routing tree, as :class:`NetRoute` keeps it to
    build the Elmore segments on read: the routing graph's vertex kind
    and pin columns and its edge endpoint and length columns (shared,
    not copied), the tree's edge ids in ascending order, and the driver
    vertex."""

    vertex_kind: Sequence[VertexKind]
    vertex_pin: Sequence[Optional[NetPin]]
    edge_u: Sequence[int]
    edge_v: Sequence[int]
    edge_length: Sequence[float]
    edge_ids: Sequence[int]
    driver: int


#: A table's ``wire_kind`` codes index this tuple, its ``attach_side``
#: codes :data:`SIDES`.
KINDS: Tuple[EdgeKind, ...] = tuple(EdgeKind)
SIDES: Tuple[AttachSide, ...] = (AttachSide.BOTTOM, AttachSide.TOP)
CORRESPONDENCE, TRUNK, BRANCH = (
    KINDS.index(kind)
    for kind in (EdgeKind.CORRESPONDENCE, EdgeKind.TRUNK, EdgeKind.BRANCH)
)
BOTTOM, TOP = 0, 1
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_SIDE_CODE = {side: code for code, side in enumerate(SIDES)}
#: Attachments per wire, by kind code: a correspondence edge enters one
#: channel, a branch both channels beside its row, a trunk none.
_ATTACHMENTS_PER_WIRE = np.zeros(len(KINDS), dtype=np.int64)
_ATTACHMENTS_PER_WIRE[[CORRESPONDENCE, BRANCH]] = 1, 2


class RouteTable:
    """Every final wire and channel attachment of a routing result, as
    chip-wide numpy columns, nets in sorted-name order (``names``).

    Net ``i``'s wires are rows ``wire_start[i]:wire_start[i + 1]`` of
    ``wire_net``, ``wire_kind`` (a code into :data:`KINDS`),
    ``wire_channel``, ``wire_lo``, ``wire_hi`` and ``wire_length``, in
    its ``route.edges`` order (ascending alive edge id for a routed
    net); its attachments are rows ``attach_start[i]:attach_start[i +
    1]`` of ``attach_net``, ``attach_channel``, ``attach_column`` and
    ``attach_side`` (a code into :data:`SIDES`), in its
    ``route.attachments`` order.  Per-net scalars (width, lengths, wire
    cap) stay on the :class:`NetRoute`.
    """

    __slots__ = (
        "names", "wire_start", "wire_net", "wire_kind", "wire_channel",
        "wire_lo", "wire_hi", "wire_length", "attach_start",
        "attach_net", "attach_channel", "attach_column", "attach_side",
    )

    def __init__(
        self,
        names: Sequence[str],
        wire_start: Sequence[int],
        wire_kind: Sequence[int],
        wire_channel: Sequence[int],
        wire_lo: Sequence[int],
        wire_hi: Sequence[int],
        wire_length: Sequence[float],
        attach_start: Sequence[int],
        attach_channel: Sequence[int],
        attach_column: Sequence[int],
        attach_side: Sequence[int],
    ):
        self.names: Tuple[str, ...] = tuple(names)
        net_ids = np.arange(len(self.names))
        self.wire_start = np.asarray(wire_start, dtype=np.int64)
        self.wire_net = np.repeat(net_ids, np.diff(self.wire_start))
        self.wire_kind = np.asarray(wire_kind, dtype=np.int8)
        self.wire_channel = np.asarray(wire_channel, dtype=np.int64)
        self.wire_lo = np.asarray(wire_lo, dtype=np.int64)
        self.wire_hi = np.asarray(wire_hi, dtype=np.int64)
        self.wire_length = np.asarray(wire_length, dtype=np.float64)
        self.attach_start = np.asarray(attach_start, dtype=np.int64)
        self.attach_net = np.repeat(net_ids, np.diff(self.attach_start))
        self.attach_channel = np.asarray(attach_channel, dtype=np.int64)
        self.attach_column = np.asarray(attach_column, dtype=np.int64)
        self.attach_side = np.asarray(attach_side, dtype=np.int8)

    @classmethod
    def from_trees(
        cls, names: Sequence[str], graphs: Iterable[RoutingGraph]
    ) -> "RouteTable":
        """The table of converged routing graphs, ``graphs[i]`` the
        graph of ``names[i]``: one pass per net gathers its alive edges'
        columns (``compress`` over ``alive``) and its alive
        correspondence edges' attachments; the branch attachments come
        from the wire rows in bulk."""
        kind: List[EdgeKind] = []
        channel: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        length: List[float] = []
        wire_start = [0]
        # One attachment per alive correspondence edge, in wire order.
        entry_channel: List[int] = []
        entry_column: List[int] = []
        entry_side: List[int] = []
        for graph in graphs:
            alive = graph.alive
            edge_kind = graph.edge_kind
            kind.extend(compress(edge_kind, alive))
            channel.extend(compress(graph.edge_channel, alive))
            lo.extend(compress(graph.edge_lo, alive))
            hi.extend(compress(graph.edge_hi, alive))
            length.extend(compress(graph.edge_length, alive))
            wire_start.append(len(kind))
            vertex_kind = graph.vertex_kind
            vertex_channel = graph.vertex_channel
            edge_u = graph.edge_u
            edge_v = graph.edge_v
            corresponding = map(
                and_, alive,
                map(is_, edge_kind, repeat(EdgeKind.CORRESPONDENCE)),
            )
            for edge_id in compress(range(len(alive)), corresponding):
                terminal = edge_u[edge_id]
                position = edge_v[edge_id]
                if vertex_kind[terminal] is not VertexKind.TERMINAL:
                    terminal, position = position, terminal
                entry = vertex_channel[position]
                if isinstance(graph.vertex_pin[terminal], Terminal):
                    # Row r touches channel r from above and channel
                    # r+1 from below; the terminal vertex's channel is
                    # the pin's lower access channel, which equals its
                    # row index for cell terminals.
                    side = TOP if entry == vertex_channel[terminal] else BOTTOM
                else:
                    side = BOTTOM if entry == 0 else TOP
                entry_channel.append(entry)
                entry_column.append(graph.vertex_x[position])
                entry_side.append(side)
        codes = np.fromiter(
            map(_KIND_CODE.__getitem__, kind), dtype=np.int8, count=len(kind)
        )
        wire_channel = np.array(channel, dtype=np.int64)
        wire_lo = np.array(lo, dtype=np.int64)
        # Each wire's attachments in wire order: a correspondence edge's
        # entry, a branch's TOP in its channel then BOTTOM in the next.
        per_wire = _ATTACHMENTS_PER_WIRE[codes]
        source = np.repeat(np.arange(len(codes)), per_wire)
        attach_channel = wire_channel[source]
        attach_column = wire_lo[source]
        attach_side = np.full(len(source), TOP, dtype=np.int8)
        entries = codes[source] == CORRESPONDENCE
        attach_channel[entries] = entry_channel
        attach_column[entries] = entry_column
        attach_side[entries] = entry_side
        second = np.zeros(len(source), dtype=bool)
        second[1:] = source[1:] == source[:-1]
        attach_channel[second] += 1
        attach_side[second] = BOTTOM
        ends = np.concatenate(([0], np.cumsum(per_wire)))
        return cls(
            names, wire_start, codes, wire_channel, wire_lo, hi, length,
            ends[wire_start], attach_channel, attach_column, attach_side,
        )

    @classmethod
    def from_routes(cls, routes: Mapping[str, "NetRoute"]) -> "RouteTable":
        """The table of explicit routes (hand-built, copied or edited
        ones), read from their ``edges`` and ``attachments``."""
        names = sorted(routes)
        kind: List[int] = []
        channel: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        length: List[float] = []
        wire_start = [0]
        attach_channel: List[int] = []
        attach_column: List[int] = []
        attach_side: List[int] = []
        attach_start = [0]
        for name in names:
            route = routes[name]
            for edge in route.edges:
                kind.append(_KIND_CODE[edge.kind])
                channel.append(edge.channel)
                lo.append(edge.interval.lo)
                hi.append(edge.interval.hi)
                length.append(edge.length_um)
            wire_start.append(len(kind))
            for attachment in route.attachments:
                attach_channel.append(attachment.channel)
                attach_column.append(attachment.column)
                attach_side.append(_SIDE_CODE[attachment.side])
            attach_start.append(len(attach_side))
        return cls(
            names, wire_start, kind, channel, lo, hi, length,
            attach_start, attach_channel, attach_column, attach_side,
        )

    def wires(self, index: int) -> List[RoutedEdge]:
        """Net ``index``'s wires as :class:`RoutedEdge` values."""
        rows = slice(*self.wire_start[index:index + 2].tolist())
        return [
            RoutedEdge(KINDS[kind], channel, Interval(lo, hi), length)
            for kind, channel, lo, hi, length in zip(
                self.wire_kind[rows].tolist(),
                self.wire_channel[rows].tolist(),
                self.wire_lo[rows].tolist(),
                self.wire_hi[rows].tolist(),
                self.wire_length[rows].tolist(),
            )
        ]

    def attachments(self, index: int) -> List[ChannelAttachment]:
        """Net ``index``'s attachments as :class:`ChannelAttachment`
        values."""
        rows = slice(*self.attach_start[index:index + 2].tolist())
        return [
            ChannelAttachment(channel, column, SIDES[side])
            for channel, column, side in zip(
                self.attach_channel[rows].tolist(),
                self.attach_column[rows].tolist(),
                self.attach_side[rows].tolist(),
            )
        ]

    def merged_trunks(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each net's trunks merged per channel into maximal runs, as
        :func:`merge_intervals` merges them (spans sharing a column
        join): ``(net, channel, lo, hi)``, sorted by net, channel and
        ``lo``."""
        trunks = self.wire_kind == TRUNK
        return merge_runs(
            self.wire_net[trunks],
            self.wire_channel[trunks],
            self.wire_lo[trunks],
            self.wire_hi[trunks],
        )


def run_starts(
    net: np.ndarray, channel: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed column ranges ``[lo, hi]`` grouped per net and channel into
    maximal runs wherever two share a column: the order that sorts the
    ranges by ``(net, channel, lo, hi)``, and per sorted range whether
    it starts a run.

    A sorted range starts a new run when it opens a new (net, channel)
    group or starts right of the largest ``hi`` before it in its group.
    That largest ``hi`` is a cumulative maximum over the group, not the
    run: every later range starts at or right of the run's start, which
    lies right of all earlier ones.
    """
    order = np.lexsort((hi, lo, channel, net))
    starts = np.ones(len(order), dtype=bool)
    if len(order) < 2:
        return order, starts
    net, channel, lo, hi = net[order], channel[order], lo[order], hi[order]
    opens = starts.copy()
    opens[1:] = (net[1:] != net[:-1]) | (channel[1:] != channel[:-1])
    # A group's cumulative maximum of hi: offset each group above the
    # last so that one running maximum never carries across groups.
    group = np.cumsum(opens)
    base = int(hi.min())
    stride = int(hi.max()) - base + 1
    reach = np.maximum.accumulate(group * stride + (hi - base))
    reach -= group * stride
    starts[1:] = opens[1:] | (lo[1:] - base > reach[:-1])
    return order, starts


def merge_runs(
    net: np.ndarray, channel: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The maximal runs of :func:`run_starts` as ranges: ``(net,
    channel, lo, hi)``, sorted by net, channel and ``lo``."""
    order, starts = run_starts(net, channel, lo, hi)
    first = np.flatnonzero(starts)
    hi = hi[order]
    return (
        net[order][first],
        channel[order][first],
        lo[order][first],
        np.maximum.reduceat(hi, first) if len(first) else hi,
    )


def pack_keys(*tables: Sequence[np.ndarray]) -> List[np.ndarray]:
    """One int64 key per row of each table, ordered as the rows'
    tuples: every table lists the same integer columns, and a column's
    values are offset by its minimum over all tables and scaled past
    its range, so keys from different tables compare (and
    ``searchsorted``) like the tuples they encode."""
    keys = [np.zeros(len(columns[0]), dtype=np.int64) for columns in tables]
    for parts in zip(*tables):
        joined = np.concatenate(parts)
        if not joined.size:
            continue
        low = int(joined.min())
        stride = int(joined.max()) - low + 1
        for key, part in zip(keys, parts):
            key *= stride
            key += part - low
    return keys


def locate(
    ranges: Sequence[np.ndarray], points: Sequence[np.ndarray]
) -> np.ndarray:
    """For each point ``(a, b, x)`` of ``points``, the index of the range
    ``(a, b, lo, hi)`` of ``ranges`` with the same ``a`` and ``b`` whose
    columns hold ``x``, or -1.  The ranges are sorted by ``(a, b, lo)``
    and disjoint within each ``(a, b)``, so that range is the last one
    starting at or left of ``x`` (one ``searchsorted`` over packed
    keys)."""
    a, b, lo, hi = ranges
    at_a, at_b, x = points
    range_key, point_key = pack_keys((a, b, lo), (at_a, at_b, x))
    found = np.searchsorted(range_key, point_key, side="right") - 1
    inside = found >= 0
    hit = found[inside]
    inside[inside] = (
        (a[hit] == at_a[inside])
        & (b[hit] == at_b[inside])
        & (x[inside] <= hi[hit])
    )
    found[~inside] = -1
    return found


class _NetRows(_SequenceABC):
    """One net's rows of a :class:`RouteTable` as a read-only sequence
    whose items are built on read; equal to any sequence with equal
    items."""

    __slots__ = ("table", "index")

    def __init__(self, table: RouteTable, index: int):
        self.table = table
        self.index = index

    def _rows(self) -> list:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._rows())

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self):
        return iter(self._rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SequenceABC):
            return NotImplemented
        return self._rows() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._rows())


class WireRows(_NetRows):
    """``NetRoute.edges`` of a routed net: its table wires."""

    __slots__ = ()

    def _rows(self) -> List[RoutedEdge]:
        return self.table.wires(self.index)

    def __len__(self) -> int:
        start, stop = self.table.wire_start[self.index:self.index + 2]
        return int(stop - start)


class AttachmentRows(_NetRows):
    """``NetRoute.attachments`` of a routed net: its table
    attachments."""

    __slots__ = ()

    def _rows(self) -> List[ChannelAttachment]:
        return self.table.attachments(self.index)

    def __len__(self) -> int:
        start, stop = self.table.attach_start[self.index:self.index + 2]
        return int(stop - start)


def route_table(routes: Mapping[str, "NetRoute"]) -> RouteTable:
    """The route table of ``routes``, nets in sorted-name order.

    When every route still is the view ``build_result`` made of its
    table row — same table, same row, same name — that table is
    returned as is; otherwise (a hand-built, copied or edited result,
    a route added or deleted) the table is built from the routes'
    rows, so no consumer reads a table its routes no longer match.
    """
    names = tuple(sorted(routes))
    table = None
    for index, name in enumerate(names):
        route = routes[name]
        edges = route.edges
        attachments = route.attachments
        if type(edges) is not WireRows or type(attachments) is not (
            AttachmentRows
        ):
            break
        if table is None:
            table = edges.table
        if not (
            edges.table is table
            and attachments.table is table
            and edges.index == index
            and attachments.index == index
        ):
            break
    else:
        if table is not None and table.names == names:
            return table
    return RouteTable.from_routes(routes)


@dataclass
class NetRoute:
    """Final global route of one net.

    ``edges`` and ``attachments`` are sequences of :class:`RoutedEdge`
    and :class:`ChannelAttachment`: for a routed net, read-only views
    over its :class:`RouteTable` rows that build the values on read;
    for a hand-built one, whatever sequences it was given.

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
    edges: Sequence[RoutedEdge]
    attachments: Sequence[ChannelAttachment]
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
        """Per channel, the net's merged horizontal spans, channels in
        the order their first trunk appears, read from the net's table
        rows."""
        edges = self.edges
        if type(edges) is WireRows:
            table, index = edges.table, edges.index
        else:
            table, index = RouteTable.from_routes({self.net_name: self}), 0
        rows = slice(*table.wire_start[index:index + 2].tolist())
        by_channel: Dict[int, List[Interval]] = {}
        for kind, channel, lo, hi in zip(
            table.wire_kind[rows].tolist(),
            table.wire_channel[rows].tolist(),
            table.wire_lo[rows].tolist(),
            table.wire_hi[rows].tolist(),
        ):
            if kind == TRUNK:
                by_channel.setdefault(channel, []).append(Interval(lo, hi))
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
    edge_u = tree.edge_u
    edge_v = tree.edge_v
    vertex_kind = tree.vertex_kind
    neighbours: Dict[int, List[int]] = {}
    for edge_id in tree.edge_ids:
        neighbours.setdefault(edge_u[edge_id], []).append(edge_id)
        neighbours.setdefault(edge_v[edge_id], []).append(edge_id)
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
        for edge_id in neighbours.get(vertex, ()):
            u = edge_u[edge_id]
            other = edge_v[edge_id] if u == vertex else u
            if other in segment_of_vertex:
                continue
            sink_index = -1
            if vertex_kind[other] is VertexKind.TERMINAL and other != driver:
                sink_index = len(sink_names)
                sink_names.append(tree.vertex_pin[other].full_name)
            segment_of_vertex[other] = len(segments)
            segments.append(
                WireSegment(
                    parent_segment,
                    tree.edge_length[edge_id],
                    width_pitches,
                    sink_index,
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
