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

Construction makes one pass per net: one placement lookup per pin, one
row per vertex and per edge, then one transposition of the rows into the
graph's columns (see :mod:`repro.routegraph.graph`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import RoutingGraphError
from ..layout.feedthrough import AssignedSlot
from ..layout.placement import Placement
from ..netlist.circuit import Net
from ..tech import Technology
from .graph import EdgeKind, RoutingGraph, VertexKind

_TERMINAL = VertexKind.TERMINAL
_POSITION = VertexKind.POSITION
_CORRESPONDENCE = EdgeKind.CORRESPONDENCE
_BRANCH = EdgeKind.BRANCH
_TRUNK = EdgeKind.TRUNK


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

    # One row per vertex ``(kind, channel, x, pin)`` and per edge
    # ``(kind, u, v, channel, lo, hi, length)``, in id order.
    vertices: List[tuple] = []
    edges: List[tuple] = []
    position_index: Dict[Tuple[int, int], int] = {}
    add_vertex = vertices.append
    add_edge = edges.append

    def position_vertex(channel: int, x: int) -> int:
        index = position_index.get((channel, x))
        if index is None:
            index = position_index[channel, x] = len(vertices)
            add_vertex((_POSITION, channel, x, None))
        return index

    # --- terminal vertices and correspondence edges -------------------
    terminal_vertices: List[int] = []
    driver_vertex: Optional[int] = None
    source = net.source
    for pin in net.pins:
        column, channels = placement.pin_access(pin)
        term = len(vertices)
        add_vertex((_TERMINAL, channels[0], column, pin))
        terminal_vertices.append(term)
        if pin is source:
            driver_vertex = term
        for channel in channels:
            pos = position_vertex(channel, column)
            add_edge(
                (_CORRESPONDENCE, term, pos, channel, column, column, 0.0)
            )

    if driver_vertex is None:
        raise RoutingGraphError(f"net {net.name}: driver pin not found")

    # --- feedthrough branch edges --------------------------------------
    row_height = technology.row_height_um
    for row, slot in sorted(slots.items()):
        if slot.net.name != net.name:
            raise RoutingGraphError(
                f"net {net.name}: slot for {slot.net.name} passed in"
            )
        x = slot.x
        below = position_vertex(row, x)
        above = position_vertex(row + 1, x)
        add_edge((_BRANCH, below, above, row, x, x, row_height))

    # --- trunk edges ----------------------------------------------------
    # Positions are unique per (channel, column), so one sort of the keys
    # lists each channel's positions left to right.
    last_channel: Optional[int] = None
    left = left_x = 0
    columns_to_um = technology.columns_to_um
    for (channel, x), pos in sorted(position_index.items()):
        if channel == last_channel:
            add_edge(
                (_TRUNK, left, pos, channel, left_x, x,
                 columns_to_um(x - left_x))
            )
        last_channel, left, left_x = channel, pos, x

    return RoutingGraph.from_columns(
        net, *zip(*vertices), *zip(*edges), terminal_vertices, driver_vertex
    )
