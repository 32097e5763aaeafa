"""Tests for repro.routegraph.build (G_r(n) construction, Fig. 3)."""

import pytest

from repro import GlobalRouter, RouterConfig
from repro.bench.circuits import congestion_suite, make_dataset, standard_suite
from repro.errors import RoutingGraphError
from repro.layout.feedthrough import FeedthroughPlanner
from repro.layout.placement import Placement
from repro.netlist import Circuit, PinSide, TerminalDirection
from repro.routegraph import build_routing_graph
from repro.routegraph.graph import EdgeKind, VertexKind
from repro.tech import Technology
from tests.routegraph_reference import (
    adjacency,
    reference_build_routing_graph,
)


def same_row_pair(library):
    circuit = Circuit("sr", library)
    a = circuit.add_cell("a", "INV1")
    b = circuit.add_cell("b", "INV1")
    net = circuit.add_net("n")
    circuit.connect("n", a.terminal("O"), b.terminal("I0"))
    placement = Placement(circuit, [[a, b]])
    return circuit, placement, net


class TestSameRowNet:
    def test_channel_choice_cycle(self, library):
        _, placement, net = same_row_pair(library)
        graph = build_routing_graph(net, placement, {})
        trunks = [
            e for e in graph.alive_edges() if e.kind is EdgeKind.TRUNK
        ]
        assert len(trunks) == 2
        assert {t.channel for t in trunks} == {0, 1}
        # Both trunks are alternatives -> both deletable.
        assert set(graph.deletable_edges()) >= {t.index for t in trunks}

    def test_trunk_lengths(self, library):
        _, placement, net = same_row_pair(library)
        tech = Technology(pitch_um=4.0)
        graph = build_routing_graph(net, placement, {}, tech)
        for edge in graph.alive_edges():
            if edge.kind is EdgeKind.TRUNK:
                assert edge.length_um == pytest.approx(
                    4.0 * edge.interval.span
                )

    def test_driver_vertex_is_source_pin(self, library):
        circuit, placement, net = same_row_pair(library)
        graph = build_routing_graph(net, placement, {})
        driver = graph.vertices[graph.driver_vertex]
        assert driver.pin is net.source

    def test_terminal_count(self, library):
        _, placement, net = same_row_pair(library)
        graph = build_routing_graph(net, placement, {})
        assert len(graph.terminal_vertices) == 2


class TestMultiRowNet:
    def _three_rows(self, library, with_feedthrough=True):
        circuit = Circuit("mr", library)
        a = circuit.add_cell("a", "INV1")
        mid = circuit.add_cell("mid", "INV1")
        b = circuit.add_cell("b", "INV1")
        placement = Placement(circuit, [[a], [mid, 1], [b]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        slots = {}
        if with_feedthrough:
            planner = FeedthroughPlanner(circuit, placement)
            assignment = planner.assign_all([net])
            assert assignment.complete
            slots = assignment.of_net(net)
        return circuit, placement, net, slots

    def test_branch_edge_created(self, library):
        _, placement, net, slots = self._three_rows(library)
        tech = Technology(row_height_um=64.0)
        graph = build_routing_graph(net, placement, slots, tech)
        branches = [
            e for e in graph.alive_edges() if e.kind is EdgeKind.BRANCH
        ]
        assert len(branches) == 1
        assert branches[0].length_um == 64.0

    def test_missing_feedthrough_breaks_connectivity(self, library):
        _, placement, net, _ = self._three_rows(
            library, with_feedthrough=False
        )
        with pytest.raises(RoutingGraphError):
            build_routing_graph(net, placement, {})

    def test_positions_shared_by_column(self, library):
        _, placement, net, slots = self._three_rows(library)
        graph = build_routing_graph(net, placement, slots)
        keys = [
            (v.channel, v.x)
            for v in graph.vertices
            if v.kind is VertexKind.POSITION
        ]
        assert len(keys) == len(set(keys))

    def test_wrong_net_slot_rejected(self, library):
        circuit, placement, net, slots = self._three_rows(library)
        other = circuit.add_net("other")
        a2 = circuit.add_cell("a2", "INV1")
        b2 = circuit.add_cell("b2", "INV1")
        placement = Placement(
            circuit,
            [placement.items(0) + [a2], placement.items(1),
             placement.items(2) + [b2]],
        )
        circuit.connect("other", a2.terminal("O"), b2.terminal("I0"))
        from repro.layout.feedthrough import AssignedSlot

        bad = {1: AssignedSlot(other, 1, 0, 1)}
        with pytest.raises(RoutingGraphError):
            build_routing_graph(net, placement, bad)


class TestExternalPins:
    def test_pin_single_channel_access(self, library):
        circuit = Circuit("xp", library)
        a = circuit.add_cell("a", "INV1")
        placement = Placement(circuit, [[a]])
        pin = circuit.add_external_pin(
            "p", TerminalDirection.INPUT, side=PinSide.BOTTOM, column=0
        )
        net = circuit.add_net("n")
        circuit.connect("n", pin, a.terminal("I0"))
        graph = build_routing_graph(net, placement, {})
        pin_vertex = next(
            v for v in graph.vertices if v.pin is pin
        )
        corr = [
            e
            for e in graph.edges
            if e.kind is EdgeKind.CORRESPONDENCE
            and pin_vertex.index in (e.u, e.v)
        ]
        assert len(corr) == 1
        assert corr[0].channel == 0

    def test_top_pin_uses_top_channel(self, library):
        circuit = Circuit("xp2", library)
        a = circuit.add_cell("a", "INV1")
        placement = Placement(circuit, [[a]])
        pin = circuit.add_external_pin(
            "p", TerminalDirection.OUTPUT, side=PinSide.TOP, column=1
        )
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), pin)
        graph = build_routing_graph(net, placement, {})
        pin_vertex = next(v for v in graph.vertices if v.pin is pin)
        corr = [
            e
            for e in graph.edges
            if e.kind is EdgeKind.CORRESPONDENCE
            and pin_vertex.index in (e.u, e.v)
        ]
        assert corr[0].channel == placement.n_rows


class TestDegenerate:
    def test_single_pin_net_rejected(self, library):
        circuit = Circuit("dg", library)
        a = circuit.add_cell("a", "INV1")
        placement = Placement(circuit, [[a]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"))
        with pytest.raises(RoutingGraphError):
            build_routing_graph(net, placement, {})

    def test_coincident_terminals(self, library):
        # Two sinks at the same column as driver: graph still valid.
        circuit = Circuit("co", library)
        a = circuit.add_cell("a", "NOR2")
        b = circuit.add_cell("b", "NOR2")
        placement = Placement(circuit, [[a], [b]])
        net = circuit.add_net("n")
        circuit.connect(
            "n", a.terminal("O"), b.terminal("I0"), b.terminal("I1")
        )
        graph = build_routing_graph(net, placement, {})
        assert graph.terminals_connected()
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        assert graph.is_tree


# ----------------------------------------------------------------------
# build_routing_graph vs the reference construction on real designs
# ----------------------------------------------------------------------
def assigned_router(design):
    """A router for a suite design, set up through pin and feedthrough
    assignment (the inputs of graph construction)."""
    specs = {s.name: s for s in standard_suite() + congestion_suite()}
    dataset = make_dataset(specs[design])
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    return router


@pytest.mark.parametrize("design", ["C1P1", "C3P1", "CGP1"])
def test_construction_matches_reference_on_every_net(design):
    """Vertices, edges, per-vertex adjacency order (which drives CSR and
    Dijkstra tie-breaking), terminals and driver are identical to the
    reference construction's for every net of the design."""
    router = assigned_router(design)
    technology = router.config.technology
    nets = router.circuit.routable_nets
    assert nets
    for net in nets:
        slots = router.assignment.of_net(net)
        graph = build_routing_graph(net, router.placement, slots, technology)
        ref = reference_build_routing_graph(
            net, router.placement, slots, technology
        )
        where = f"{design} net {net.name}"
        # Value equality covers every field: kind, u, v, channel,
        # interval and length for edges, pin included for vertices.
        assert graph.vertices == ref.vertices, where
        assert graph.edges == ref.edges, where
        # Bit-identical lengths, not just equal floats.
        assert [e.length_um.hex() for e in graph.edges] == [
            e.length_um.hex() for e in ref.edges
        ], where
        # The static CSR lists every vertex's edges in the reference's
        # per-vertex order.
        indptr = graph.indptr
        assert [
            list(graph.nbr_edge[indptr[v]:indptr[v + 1]])
            for v in range(len(indptr) - 1)
        ] == adjacency(ref), where
        assert list(graph.edge_length) == [
            e.length_um for e in ref.edges
        ], where
        assert graph.terminal_vertices == ref.terminal_vertices, where
        assert graph.driver_vertex == ref.driver_vertex, where
        assert graph.alive == ref.alive, where
        assert graph.essential == ref.essential, where
