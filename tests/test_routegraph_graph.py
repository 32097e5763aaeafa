"""Tests for repro.routegraph.graph: classification and deletion invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingGraphError
from repro.geometry import Interval
from repro.netlist import Circuit
from repro.routegraph.graph import (
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from tests.routegraph_reference import csr_lists
from tests.test_routegraph_columns import alive_slots


def make_net(library, name="n"):
    circuit = Circuit(f"c_{name}", library)
    a = circuit.add_cell("a", "INV1")
    b = circuit.add_cell("b", "INV1")
    net = circuit.add_net(name)
    circuit.connect(name, a.terminal("O"), b.terminal("I0"))
    return net


def ring_graph(library, n_positions=4):
    """Two terminals on a cycle of positions — classic channel choice."""
    net = make_net(library)
    vertices = [
        RouteVertex(0, VertexKind.TERMINAL, 0, 0, net.pins[0]),
        RouteVertex(1, VertexKind.TERMINAL, 0, 10, net.pins[1]),
        RouteVertex(2, VertexKind.POSITION, 0, 0),
        RouteVertex(3, VertexKind.POSITION, 0, 10),
        RouteVertex(4, VertexKind.POSITION, 1, 0),
        RouteVertex(5, VertexKind.POSITION, 1, 10),
    ]
    edges = [
        RouteEdge(0, EdgeKind.CORRESPONDENCE, 0, 2, 0, Interval(0, 0), 0.0),
        RouteEdge(1, EdgeKind.CORRESPONDENCE, 0, 4, 1, Interval(0, 0), 0.0),
        RouteEdge(2, EdgeKind.CORRESPONDENCE, 1, 3, 0, Interval(10, 10), 0.0),
        RouteEdge(3, EdgeKind.CORRESPONDENCE, 1, 5, 1, Interval(10, 10), 0.0),
        RouteEdge(4, EdgeKind.TRUNK, 2, 3, 0, Interval(0, 10), 40.0),
        RouteEdge(5, EdgeKind.TRUNK, 4, 5, 1, Interval(0, 10), 40.0),
    ]
    return RoutingGraph(net, vertices, edges, [0, 1], 0)


class TestClassification:
    def test_ring_both_trunks_deletable(self, library):
        graph = ring_graph(library)
        deletable = set(graph.deletable_edges())
        assert {4, 5} <= deletable
        assert not graph.is_tree

    def test_delete_one_trunk_converges(self, library):
        graph = ring_graph(library)
        result = graph.delete(4)
        assert 4 in result.removed
        # Pendant positions 2 and 3 pruned with their correspondence edges.
        assert 0 in result.removed and 2 in result.removed
        assert graph.is_tree
        assert {e.index for e in graph.final_wiring()} == {1, 3, 5}

    def test_essential_edge_not_deletable(self, library):
        graph = ring_graph(library)
        graph.delete(4)
        with pytest.raises(RoutingGraphError):
            graph.delete(5)

    def test_double_delete_raises(self, library):
        graph = ring_graph(library)
        graph.delete(4)
        with pytest.raises(RoutingGraphError):
            graph.delete(4)

    def test_out_of_range_raises(self, library):
        graph = ring_graph(library)
        with pytest.raises(RoutingGraphError):
            graph.delete(99)

    def test_newly_essential_reported(self, library):
        graph = ring_graph(library)
        result = graph.delete(4)
        assert 5 in result.newly_essential

    def test_terminals_stay_connected(self, library):
        graph = ring_graph(library)
        graph.delete(4)
        assert graph.terminals_connected()

    def test_total_alive_length(self, library):
        graph = ring_graph(library)
        assert graph.total_alive_length_um() == 80.0
        graph.delete(4)
        assert graph.total_alive_length_um() == 40.0

    def test_final_wiring_requires_tree(self, library):
        graph = ring_graph(library)
        with pytest.raises(RoutingGraphError):
            graph.final_wiring()

    def test_driver_must_be_terminal(self, library):
        net = make_net(library)
        vertices = [
            RouteVertex(0, VertexKind.TERMINAL, 0, 0, net.pins[0]),
            RouteVertex(1, VertexKind.POSITION, 0, 1),
        ]
        edges = [
            RouteEdge(
                0, EdgeKind.CORRESPONDENCE, 0, 1, 0, Interval(0, 0), 0.0
            )
        ]
        with pytest.raises(RoutingGraphError):
            RoutingGraph(net, vertices, edges, [0], 1)

    def test_initial_pendant_positions_pruned(self, library):
        net = make_net(library)
        vertices = [
            RouteVertex(0, VertexKind.TERMINAL, 0, 0, net.pins[0]),
            RouteVertex(1, VertexKind.TERMINAL, 0, 5, net.pins[1]),
            RouteVertex(2, VertexKind.POSITION, 0, 0),
            RouteVertex(3, VertexKind.POSITION, 0, 5),
            RouteVertex(4, VertexKind.POSITION, 1, 0),  # useless pendant
        ]
        edges = [
            RouteEdge(
                0, EdgeKind.CORRESPONDENCE, 0, 2, 0, Interval(0, 0), 0.0
            ),
            RouteEdge(
                1, EdgeKind.CORRESPONDENCE, 1, 3, 0, Interval(5, 5), 0.0
            ),
            RouteEdge(2, EdgeKind.TRUNK, 2, 3, 0, Interval(0, 5), 20.0),
            RouteEdge(
                3, EdgeKind.CORRESPONDENCE, 0, 4, 1, Interval(0, 0), 0.0
            ),
        ]
        graph = RoutingGraph(net, vertices, edges, [0, 1], 0)
        assert not graph.alive[3]
        assert not graph.vertex_alive[4]
        assert graph.is_tree


class RandomGraphMachine:
    """Build a random connected multi-loop routing graph for invariants."""

    @staticmethod
    def build(library, rng):
        net = make_net(library, name=f"r{rng.randint(0, 1 << 30)}")
        n_positions = rng.randint(3, 10)
        vertices = [
            RouteVertex(0, VertexKind.TERMINAL, 0, 0, net.pins[0]),
            RouteVertex(1, VertexKind.TERMINAL, 0, 50, net.pins[1]),
        ]
        for i in range(n_positions):
            vertices.append(
                RouteVertex(
                    2 + i, VertexKind.POSITION, rng.randint(0, 2),
                    rng.randint(0, 40),
                )
            )
        edges = []

        def add_edge(kind, u, v):
            x_lo = min(vertices[u].x, vertices[v].x)
            x_hi = max(vertices[u].x, vertices[v].x)
            length = float(x_hi - x_lo) if kind is EdgeKind.TRUNK else 0.0
            edges.append(
                RouteEdge(
                    len(edges), kind, u, v,
                    vertices[u].channel,
                    Interval(x_lo, max(x_lo, x_hi)),
                    length,
                )
            )

        # Spanning chain terminal0 - positions... - terminal1
        chain = [0] + list(range(2, 2 + n_positions)) + [1]
        for u, v in zip(chain, chain[1:]):
            kind = (
                EdgeKind.CORRESPONDENCE
                if VertexKind.TERMINAL in (
                    vertices[u].kind, vertices[v].kind
                )
                else EdgeKind.TRUNK
            )
            add_edge(kind, u, v)
        # Random extra edges create loops.
        for _ in range(rng.randint(1, 6)):
            u = rng.randrange(len(vertices))
            v = rng.randrange(len(vertices))
            if u == v:
                continue
            add_edge(EdgeKind.TRUNK, u, v)
        return RoutingGraph(net, vertices, edges, [0, 1], 0)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_deletion_always_converges_to_tree(seed):
    """Property: deleting deletable edges in random order always ends in a
    tree spanning the terminals, with terminals connected throughout."""
    from repro.netlist import standard_ecl_library

    library = standard_ecl_library()
    rng = random.Random(seed)
    graph = RandomGraphMachine.build(library, rng)
    steps = 0
    while True:
        deletable = graph.deletable_edges()
        if not deletable:
            break
        graph.delete(rng.choice(deletable))
        assert graph.terminals_connected()
        steps += 1
        assert steps < 1000
    assert graph.is_tree
    # Every leaf of the final wiring is a terminal.
    degree = {}
    for edge in graph.final_wiring():
        degree[edge.u] = degree.get(edge.u, 0) + 1
        degree[edge.v] = degree.get(edge.v, 0) + 1
    for vertex, deg in degree.items():
        if deg == 1:
            assert graph.vertices[vertex].is_terminal
    # Tree: edges == vertices - 1 within the alive component.
    alive_vertices = {
        v for edge in graph.final_wiring() for v in (edge.u, edge.v)
    }
    assert len(list(graph.final_wiring())) == len(alive_vertices) - 1


class TestCsr:
    """The static CSR: built once, walked with dead slots skipped."""

    def test_matches_neighbours_iteration(self, library):
        graph = ring_graph(library)
        graph.delete(4)
        assert alive_slots(graph) == csr_lists(graph)

    def test_dtypes(self, library):
        """Plain Python scalars: the scalar walks index them with no
        numpy boxing, and no numpy float leaks into a tree length."""
        graph = ring_graph(library)
        for column in (graph.indptr, graph.nbr_edge, graph.nbr_vertex):
            assert {type(x) for x in column} == {int}
        assert {type(x) for x in graph.nbr_length} == {float}

    def test_static_across_deletion(self, library):
        graph = ring_graph(library)
        before = (
            graph.indptr, graph.nbr_edge, graph.nbr_vertex, graph.nbr_length
        )
        graph.delete(4)
        graph.reclassify()
        after = (
            graph.indptr, graph.nbr_edge, graph.nbr_vertex, graph.nbr_length
        )
        assert all(a is b for a, b in zip(before, after))
        # The dead edge keeps its slots; walks skip them.
        assert 4 in graph.nbr_edge
        assert 4 not in alive_slots(graph)[2]
