"""Reference implementations of ``G_r(n)`` construction and full
classification, kept only to prove the production code equivalent.

* :func:`reference_build_routing_graph` is the straightforward Fig. 3
  construction: span hull first, then per-pin placement queries,
  nested helpers for vertices and edges, and a trunk sort per channel.
* :func:`reference_reclassify` is the four-pass full classification:
  prune everything a search from ``driver_vertex`` cannot reach, strip
  pendant terminal-free subtrees, run a fresh driver-rooted Tarjan for the
  essential flags, then rebuild the incremental 2ECC decomposition with
  a separate DFS.
* :func:`csr_lists` is the alive-only CSR adjacency the graph used to
  rebuild after every alive-set change, from per-vertex adjacency lists
  (:func:`adjacency`) made from the edges read back as ``RouteEdge``
  values.  Walks over the graph's static CSR skip dead edges' slots and
  must visit exactly these neighbours, in this order.

Production construction (:func:`repro.routegraph.build_routing_graph`)
and the fused single-pass classifier (``RoutingGraph._reclassify_full``)
must reproduce these exactly; ``test_routegraph_build.py`` and
``test_routegraph_fused.py`` check that, and
``test_routegraph_incremental.py`` checks the incremental delete path
against :func:`reference_reclassify`.  The reference classifier writes
the graph's private decomposition fields directly, so a graph it
classified can be compared field by field with one the fused pass
classified.  It walks :func:`adjacency`, never the graph's CSR.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import RoutingGraphError
from repro.geometry import Interval
from repro.layout.feedthrough import AssignedSlot
from repro.layout.placement import Placement
from repro.netlist.circuit import Net
from repro.routegraph.graph import (
    DeletionResult,
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from repro.tech import Technology


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def reference_build_routing_graph(
    net: Net,
    placement: Placement,
    slots: Mapping[int, AssignedSlot],
    technology: Technology = Technology(),
) -> RoutingGraph:
    """Build ``G_r(n)`` for ``net`` the straightforward way."""
    if len(net.pins) < 2:
        raise RoutingGraphError(f"net {net.name} has fewer than 2 pins")

    span_lo, span_hi = _channel_span(net, placement)
    vertices: List[RouteVertex] = []
    edges: List[RouteEdge] = []
    position_index: Dict[Tuple[int, int], int] = {}
    by_channel: Dict[int, List[int]] = {}

    def position_vertex(channel: int, x: int) -> int:
        key = (channel, x)
        if key in position_index:
            return position_index[key]
        index = len(vertices)
        vertices.append(RouteVertex(index, VertexKind.POSITION, channel, x))
        position_index[key] = index
        by_channel.setdefault(channel, []).append(index)
        return index

    def add_edge(kind, u, v, channel, interval, length_um) -> None:
        edges.append(
            RouteEdge(len(edges), kind, u, v, channel, interval, length_um)
        )

    terminal_vertices: List[int] = []
    driver_vertex: Optional[int] = None
    source = net.source
    for pin in net.pins:
        column, _ = placement.pin_position(pin)
        access = [
            c
            for c in placement.pin_adjacent_channels(pin)
            if span_lo <= c <= span_hi
        ]
        if not access:
            raise RoutingGraphError(
                f"net {net.name}: pin {pin.full_name} outside channel span"
            )
        anchor = min(access)
        term_index = len(vertices)
        vertices.append(
            RouteVertex(term_index, VertexKind.TERMINAL, anchor, column, pin)
        )
        terminal_vertices.append(term_index)
        if pin is source:
            driver_vertex = term_index
        for channel in access:
            pos = position_vertex(channel, column)
            add_edge(
                EdgeKind.CORRESPONDENCE,
                term_index,
                pos,
                channel,
                Interval(column, column),
                0.0,
            )

    if driver_vertex is None:
        raise RoutingGraphError(f"net {net.name}: driver pin not found")

    for row, slot in sorted(slots.items()):
        if slot.net.name != net.name:
            raise RoutingGraphError(
                f"net {net.name}: slot for {slot.net.name} passed in"
            )
        below = position_vertex(row, slot.x)
        above = position_vertex(row + 1, slot.x)
        add_edge(
            EdgeKind.BRANCH,
            below,
            above,
            row,
            Interval(slot.x, slot.x),
            technology.row_height_um,
        )

    for channel, members in sorted(by_channel.items()):
        ordered = sorted(members, key=lambda i: vertices[i].x)
        for left, right in zip(ordered, ordered[1:]):
            x_lo, x_hi = vertices[left].x, vertices[right].x
            if x_lo == x_hi:
                continue
            add_edge(
                EdgeKind.TRUNK,
                left,
                right,
                channel,
                Interval(x_lo, x_hi),
                technology.columns_to_um(x_hi - x_lo),
            )

    return RoutingGraph(net, vertices, edges, terminal_vertices, driver_vertex)


def _channel_span(net: Net, placement: Placement) -> Tuple[int, int]:
    lows: List[int] = []
    highs: List[int] = []
    for pin in net.pins:
        access = placement.pin_adjacent_channels(pin)
        lows.append(min(access))
        highs.append(max(access))
    return min(lows), max(highs)


# ----------------------------------------------------------------------
# Four-pass full classification
# ----------------------------------------------------------------------
def reference_reclassify(graph: RoutingGraph) -> Tuple[List[int], List[int]]:
    """Prune unreachable, strip pendants, fresh Tarjan, rebuild the
    decomposition.  Returns ``(pruned_edge_ids, newly_essential_ids)``;
    ``newly_essential`` is in ascending edge order."""
    externally_changed = list(graph.alive) != list(graph._alive_mirror)
    adj = adjacency(graph)
    pruned = _prune_unreachable(graph, adj)
    pruned.extend(_prune_terminal_free_subtrees(graph, adj))
    newly_essential = _refresh_essential(graph, adj)
    if externally_changed or pruned:
        graph._alive_length = None
        graph._alive_mirror = list(graph.alive)
    return pruned, newly_essential


def reference_delete(graph: RoutingGraph, edge_id: int) -> DeletionResult:
    """Delete ``edge_id`` the reference way: flip its ``alive`` flag and
    run :func:`reference_reclassify`."""
    graph.alive[edge_id] = False
    pruned, newly_essential = reference_reclassify(graph)
    return DeletionResult(
        deleted=edge_id,
        removed=[edge_id, *pruned],
        newly_essential=newly_essential,
    )


def adjacency(graph: RoutingGraph) -> List[List[int]]:
    """Per vertex, the ids of every edge at it in ascending order (dead
    edges included), from the edges read back as values."""
    adj: List[List[int]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        adj[edge.u].append(edge.index)
        adj[edge.v].append(edge.index)
    return adj


def csr_lists(
    graph: RoutingGraph,
) -> Tuple[List[int], List[int], List[int], List[float]]:
    """``(indptr, nbr_vertex, nbr_edge, nbr_length)`` over the *alive*
    edges: the alive neighbours of vertex ``v`` occupy slots
    ``indptr[v]:indptr[v + 1]``, in ascending edge order."""
    indptr: List[int] = [0]
    nbr_vertex: List[int] = []
    nbr_edge: List[int] = []
    nbr_length: List[float] = []
    edges = list(graph.edges)
    for vertex, edge_ids in enumerate(adjacency(graph)):
        for edge_id in edge_ids:
            if graph.alive[edge_id]:
                edge = edges[edge_id]
                nbr_vertex.append(edge.other(vertex))
                nbr_edge.append(edge_id)
                nbr_length.append(edge.length_um)
        indptr.append(len(nbr_vertex))
    return indptr, nbr_vertex, nbr_edge, nbr_length


def _other(graph: RoutingGraph, edge_id: int, vertex: int) -> int:
    return graph.edges[edge_id].other(vertex)


def _reach(graph: RoutingGraph, adj: List[List[int]], start: int) -> Set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for edge_id in adj[v]:
            if not graph.alive[edge_id]:
                continue
            w = _other(graph, edge_id, v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _prune_unreachable(
    graph: RoutingGraph, adj: List[List[int]]
) -> List[int]:
    seen = _reach(graph, adj, graph.driver_vertex)
    for t in graph.terminal_vertices:
        if t not in seen:
            raise RoutingGraphError(
                f"net {graph.net.name}: terminal vertex {t} disconnected"
            )
    removed: List[int] = []
    for vertex in range(len(graph.vertices)):
        if graph.vertex_alive[vertex] and vertex not in seen:
            graph.vertex_alive[vertex] = False
            for edge_id in adj[vertex]:
                if graph.alive[edge_id]:
                    graph.alive[edge_id] = False
                    removed.append(edge_id)
    return removed


def _prune_terminal_free_subtrees(
    graph: RoutingGraph, adj: List[List[int]]
) -> List[int]:
    removed: List[int] = []
    terminal_set = set(graph.terminal_vertices)
    degrees = [0] * len(graph.vertices)
    for edge in graph.alive_edges():
        degrees[edge.u] += 1
        degrees[edge.v] += 1
    queue = [
        v
        for v in range(len(graph.vertices))
        if graph.vertex_alive[v]
        and degrees[v] <= 1
        and v not in terminal_set
    ]
    while queue:
        v = queue.pop()
        if not graph.vertex_alive[v]:
            continue
        graph.vertex_alive[v] = False
        for edge_id in adj[v]:
            if not graph.alive[edge_id]:
                continue
            graph.alive[edge_id] = False
            removed.append(edge_id)
            w = _other(graph, edge_id, v)
            degrees[w] -= 1
            if degrees[w] <= 1 and w not in terminal_set:
                queue.append(w)
        degrees[v] = 0
    return removed


def _refresh_essential(
    graph: RoutingGraph, adj: List[List[int]]
) -> List[int]:
    n = len(graph.vertices)
    disc = [-1] * n
    low = [0] * n
    tcount = [0] * n
    terminal_set = set(graph.terminal_vertices)
    bridges: List[int] = []
    all_bridges: List[Tuple[int, int]] = []  # (edge_id, far vertex)
    timer = 0
    start = graph.driver_vertex
    stack: List[Tuple[int, int, Iterator[int]]] = [
        (start, -1, iter(adj[start]))
    ]
    disc[start] = low[start] = timer
    timer += 1
    tcount[start] = 1 if start in terminal_set else 0
    while stack:
        vertex, parent_edge, it = stack[-1]
        advanced = False
        for edge_id in it:
            if not graph.alive[edge_id] or edge_id == parent_edge:
                continue
            w = _other(graph, edge_id, vertex)
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                tcount[w] = 1 if w in terminal_set else 0
                stack.append((w, edge_id, iter(adj[w])))
                advanced = True
                break
            low[vertex] = min(low[vertex], disc[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            pvertex, _, _ = stack[-1]
            low[pvertex] = min(low[pvertex], low[vertex])
            tcount[pvertex] += tcount[vertex]
            if low[vertex] > disc[pvertex]:
                all_bridges.append((parent_edge, vertex))
                if tcount[vertex] > 0:
                    bridges.append(parent_edge)

    newly_essential: List[int] = []
    bridge_set = set(bridges)
    for edge in graph.edges:
        if not graph.alive[edge.index]:
            graph.essential[edge.index] = False
            continue
        now = edge.index in bridge_set
        if now and not graph.essential[edge.index]:
            newly_essential.append(edge.index)
        graph.essential[edge.index] = now
    _rebuild_decomposition(graph, adj, tcount, all_bridges)
    return newly_essential


def _rebuild_decomposition(
    graph: RoutingGraph,
    adj: List[List[int]],
    tcount: List[int],
    all_bridges: List[Tuple[int, int]],
) -> None:
    n = len(graph.vertices)
    alive = graph.alive
    degree = [0] * n
    for edge in graph.edges:
        if alive[edge.index]:
            degree[edge.u] += 1
            degree[edge.v] += 1
    graph._degree = degree
    comp = [-1] * n
    graph._comp = comp
    graph._comp_size = {}
    graph._comp_anchor = {}
    graph._comp_entry = {}
    hang: Dict[int, int] = {}
    for edge_id, child in all_bridges:
        t = tcount[child]
        if t > 0:
            parent = _other(graph, edge_id, child)
            hang[parent] = hang.get(parent, 0) + t
    graph._hang_tcount = hang
    bridge_ids = {edge_id for edge_id, _ in all_bridges}
    start = graph.driver_vertex
    root = graph._next_comp
    graph._next_comp += 1
    comp[start] = root
    graph._comp_anchor[root] = start
    graph._comp_entry[root] = -1
    graph._comp_size[root] = 1
    stack = [start]
    while stack:
        v = stack.pop()
        for edge_id in adj[v]:
            if not alive[edge_id]:
                continue
            w = _other(graph, edge_id, v)
            if comp[w] != -1:
                continue
            if edge_id in bridge_ids:
                c = graph._next_comp
                graph._next_comp += 1
                graph._comp_anchor[c] = w
                graph._comp_entry[c] = edge_id
                graph._comp_size[c] = 1
            else:
                c = comp[v]
                graph._comp_size[c] += 1
            comp[w] = c
            stack.append(w)
    graph._stranded = any(
        graph.vertex_alive[v] and comp[v] == -1 for v in range(n)
    )
