"""Tentative trees: the wire-length estimator of Section 3.2.

To estimate interconnection delay while ``G_r(n)`` still contains choices,
the router computes the shortest paths from the driving terminal vertex to
every other terminal vertex (Dijkstra) and takes the *union* of those
paths — the **tentative tree**.  Its total length feeds ``CL(n)`` and thus
every delay criterion.  Evaluating a candidate deletion is simply
recomputing the tentative tree with that edge excluded.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..errors import RoutingGraphError
from .graph import RoutingGraph


@dataclass
class TentativeTree:
    """Union of driver→terminal shortest paths in a routing graph.

    ``edge_ids`` are the edges in the union; ``total_length_um`` their
    summed length; ``terminal_path_um`` maps each terminal vertex to its
    shortest-path length from the driver.
    """

    edge_ids: Set[int]
    total_length_um: float
    terminal_path_um: Dict[int, float]

    @property
    def longest_path_um(self) -> float:
        """Longest driver→terminal path — useful for path-style RC bounds."""
        return max(self.terminal_path_um.values(), default=0.0)


def collect_union(
    graph: RoutingGraph, dist: List[float], parent_edge: List[int]
) -> Optional[TentativeTree]:
    """Backtrace the shortest-path union from Dijkstra labels.

    Walks each terminal back to the driver along ``parent_edge``, adding
    edges until a previously-collected path is joined.  Shared by the
    reference estimator and the incremental tree engine so both build
    ``edge_ids`` through the *same insertion sequence* — the set's
    iteration order, and therefore the float summation order of
    ``total_length_um``, is bit-identical between the two.
    """
    driver = graph.driver_vertex
    far_end = graph.edge_xor
    terminal_path_um: Dict[int, float] = {}
    edge_ids: Set[int] = set()
    for terminal in graph.terminal_vertices:
        if math.isinf(dist[terminal]):
            return None
        terminal_path_um[terminal] = dist[terminal]
        vertex = terminal
        while vertex != driver:
            edge_id = parent_edge[vertex]
            if edge_id == -1:
                raise RoutingGraphError(
                    f"net {graph.net.name}: broken shortest-path parents"
                )
            if edge_id in edge_ids:
                break  # joined an already-collected path
            edge_ids.add(edge_id)
            vertex = far_end[edge_id] ^ vertex

    total = sum(map(graph.edge_length.__getitem__, edge_ids))
    return TentativeTree(edge_ids, total, terminal_path_um)


def compute_tentative_tree(
    graph: RoutingGraph, skip_edge: Optional[int] = None
) -> Optional[TentativeTree]:
    """Tentative tree of ``graph``, optionally pretending one edge gone.

    Returns ``None`` when some terminal is unreachable (which can only
    happen when ``skip_edge`` is an essential edge).
    """
    indptr = graph.indptr
    nbr_edge = graph.nbr_edge
    nbr_vertex = graph.nbr_vertex
    nbr_length = graph.nbr_length
    alive = graph.alive
    dist = [math.inf] * len(graph.vertex_x)
    parent_edge: List[int] = [-1] * len(dist)
    driver = graph.driver_vertex
    dist[driver] = 0.0
    heap = [(0.0, driver)]
    while heap:
        d, vertex = heapq.heappop(heap)
        if d > dist[vertex]:
            continue
        for i in range(indptr[vertex], indptr[vertex + 1]):
            edge_id = nbr_edge[i]
            if not alive[edge_id] or edge_id == skip_edge:
                continue
            nd = d + nbr_length[i]
            other = nbr_vertex[i]
            if nd < dist[other]:
                dist[other] = nd
                parent_edge[other] = edge_id
                heapq.heappush(heap, (nd, other))

    return collect_union(graph, dist, parent_edge)


def compute_steiner_tree(
    graph: RoutingGraph, skip_edge: Optional[int] = None
) -> Optional[TentativeTree]:
    """A Steiner-tree wire-length estimate (KMB approximation).

    The paper estimates with the union of shortest paths; this optional
    estimator instead builds a 2-approximate Steiner tree over the alive
    graph (via networkx).  It never estimates longer than the final
    converged tree and is at most the shortest-path union's length, at
    ~10-50× the CPU cost — the trade-off explored by
    ``benchmarks/bench_ablation_estimator.py``.

    Returns ``None`` when some terminal is unreachable without
    ``skip_edge`` (i.e. the edge is essential).
    """
    import networkx as nx
    from networkx.algorithms.approximation import steiner_tree

    nx_graph = nx.Graph()
    lengths = graph.edge_length
    for edge_id in graph.alive_edge_ids():
        if edge_id == skip_edge:
            continue
        u, v = graph.edge_u[edge_id], graph.edge_v[edge_id]
        length = lengths[edge_id]
        existing = nx_graph.get_edge_data(u, v)
        if existing is not None and existing["weight"] <= length:
            continue
        nx_graph.add_edge(u, v, weight=length, edge_id=edge_id)
    terminals = list(dict.fromkeys(graph.terminal_vertices))
    for terminal in terminals:
        if terminal not in nx_graph:
            return None
    component = nx.node_connected_component(
        nx_graph, graph.driver_vertex
    )
    if any(t not in component for t in terminals):
        return None

    tree = steiner_tree(nx_graph, terminals, weight="weight")
    edge_ids = {
        data["edge_id"] for _, _, data in tree.edges(data=True)
    }
    total = sum(map(lengths.__getitem__, edge_ids))

    # Driver->terminal path lengths within the Steiner tree.
    lengths = nx.single_source_dijkstra_path_length(
        tree, graph.driver_vertex, weight="weight"
    )
    terminal_path_um = {t: float(lengths[t]) for t in terminals}
    return TentativeTree(edge_ids, total, terminal_path_um)


ESTIMATORS = {
    "spt": compute_tentative_tree,
    "steiner": compute_steiner_tree,
}
"""Available tentative-tree estimators by name."""
