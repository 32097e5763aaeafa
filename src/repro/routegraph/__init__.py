"""Routing graphs ``G_r(n)`` (Fig. 3): construction, bridge/deletability
classification, and tentative-tree wire-length estimation."""

from .graph import (
    DeletionResult,
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from .build import build_routing_graph
from .tentative_tree import TentativeTree, compute_tentative_tree
from .tree_engine import TreeEngine, dijkstra_to_terminals, tree_graph_labels

__all__ = [
    "DeletionResult",
    "EdgeKind",
    "RouteEdge",
    "RouteVertex",
    "RoutingGraph",
    "TentativeTree",
    "TreeEngine",
    "VertexKind",
    "build_routing_graph",
    "compute_tentative_tree",
    "dijkstra_to_terminals",
    "tree_graph_labels",
]
