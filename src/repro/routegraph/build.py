"""Construction of ``G_r(n)`` from a placement and feedthrough assignment.

For one net the construction is (Fig. 3):

1. every pin contributes a *terminal vertex*, plus one *position vertex*
   per channel it can be reached from — a cell terminal is reachable from
   the channels below and above its row, an external pin only from its
   boundary channel — joined by zero-weight *correspondence* edges;
2. every assigned feedthrough (one per crossed row, Section 3.1)
   contributes position vertices in the two channels it joins, linked by a
   *branch* edge one row-height long;
3. within each channel, the net's position vertices are sorted by column
   and consecutive pairs are linked by *trunk* edges.

The redundancy (and hence the router's freedom) comes from terminals being
reachable from two channels: closed loops appear wherever two pins share a
pair of channels, and the edge-deletion process picks which channel each
horizontal span actually uses.

Construction makes one pass per net: one placement lookup per pin, the
adjacency lists and the length column filled in as each edge is made,
and one single-column :class:`Interval` per column shared by every
correspondence and branch edge of the net standing on it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import RoutingGraphError
from ..geometry import Interval
from ..layout.feedthrough import AssignedSlot
from ..layout.placement import Placement
from ..netlist.circuit import Net
from ..tech import Technology
from .graph import EdgeKind, RouteEdge, RouteVertex, RoutingGraph, VertexKind

_TERMINAL = VertexKind.TERMINAL
_POSITION = VertexKind.POSITION
_CORRESPONDENCE = EdgeKind.CORRESPONDENCE
_BRANCH = EdgeKind.BRANCH
_TRUNK = EdgeKind.TRUNK
# ``tuple.__new__(RouteEdge, fields)`` builds the same value as
# ``RouteEdge(*fields)`` without the NamedTuple constructor's Python
# frame; fields go in declaration order, ``pin`` included.
_new = tuple.__new__


def build_routing_graph(
    net: Net,
    placement: Placement,
    slots: Mapping[int, AssignedSlot],
    technology: Technology = Technology(),
) -> RoutingGraph:
    """Build ``G_r(n)`` for ``net``.

    Args:
        net: the net to route (≥ 2 pins).
        placement: resolved cell placement.
        slots: ``row -> AssignedSlot`` granted to this net by the
            feedthrough assignment stage.
        technology: geometry used for edge lengths.
    """
    if len(net.pins) < 2:
        raise RoutingGraphError(f"net {net.name} has fewer than 2 pins")

    vertices: List[RouteVertex] = []
    edges: List[RouteEdge] = []
    adjacency: List[List[int]] = []
    lengths: List[float] = []
    position_index: Dict[Tuple[int, int], int] = {}
    points: Dict[int, Interval] = {}

    def position_vertex(channel: int, x: int) -> int:
        index = position_index.get((channel, x))
        if index is None:
            index = position_index[channel, x] = len(vertices)
            vertices.append(
                _new(RouteVertex, (index, _POSITION, channel, x, None))
            )
            adjacency.append([])
        return index

    def point(x: int) -> Interval:
        interval = points.get(x)
        if interval is None:
            interval = points[x] = Interval(x, x)
        return interval

    # Each edge is appended to ``edges``, ``lengths`` and both endpoint
    # adjacency lists as it is made, so edge ids ascend in every list.

    # --- terminal vertices and correspondence edges -------------------
    terminal_vertices: List[int] = []
    driver_vertex: Optional[int] = None
    source = net.source
    for pin in net.pins:
        column, channels = placement.pin_access(pin)
        term = len(vertices)
        vertices.append(
            _new(RouteVertex, (term, _TERMINAL, channels[0], column, pin))
        )
        term_edges: List[int] = []
        adjacency.append(term_edges)
        terminal_vertices.append(term)
        if pin is source:
            driver_vertex = term
        interval = point(column)
        for channel in channels:
            pos = position_vertex(channel, column)
            index = len(edges)
            edges.append(
                _new(
                    RouteEdge,
                    (index, _CORRESPONDENCE, term, pos, channel, interval,
                     0.0),
                )
            )
            lengths.append(0.0)
            term_edges.append(index)
            adjacency[pos].append(index)

    if driver_vertex is None:
        raise RoutingGraphError(f"net {net.name}: driver pin not found")

    # --- feedthrough branch edges --------------------------------------
    row_height = technology.row_height_um
    for row, slot in sorted(slots.items()):
        if slot.net.name != net.name:
            raise RoutingGraphError(
                f"net {net.name}: slot for {slot.net.name} passed in"
            )
        below = position_vertex(row, slot.x)
        above = position_vertex(row + 1, slot.x)
        index = len(edges)
        edges.append(
            _new(
                RouteEdge,
                (index, _BRANCH, below, above, row, point(slot.x), row_height),
            )
        )
        lengths.append(row_height)
        adjacency[below].append(index)
        adjacency[above].append(index)

    # --- trunk edges ----------------------------------------------------
    # Positions are unique per (channel, column), so one sort of the keys
    # lists each channel's positions left to right.
    last_channel: Optional[int] = None
    left = left_x = 0
    for (channel, x), pos in sorted(position_index.items()):
        if channel == last_channel:
            index = len(edges)
            length = technology.columns_to_um(x - left_x)
            edges.append(
                _new(
                    RouteEdge,
                    (index, _TRUNK, left, pos, channel, Interval(left_x, x),
                     length),
                )
            )
            lengths.append(length)
            adjacency[left].append(index)
            adjacency[pos].append(index)
        last_channel, left, left_x = channel, pos, x

    return RoutingGraph(
        net,
        vertices,
        edges,
        terminal_vertices,
        driver_vertex,
        adjacency=adjacency,
        lengths=lengths,
    )
