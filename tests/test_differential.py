"""Tests for differential pairs (Section 4.1): correspondence, paired
deletion, and parallel final routes."""

import pytest

from repro import (
    Circuit,
    GlobalRouter,
    PinSide,
    Placement,
    RouterConfig,
    TerminalDirection,
)
from repro.bipolar.differential import establish_correspondence
from repro.layout.feedthrough import FeedthroughPlanner
from repro.routegraph import build_routing_graph
from repro.routegraph.graph import EdgeKind


def diff_circuit(library, rows=1):
    """DIFFBUF driving a NOR2 receiver via a differential pair."""
    circuit = Circuit("diff", library)
    din = circuit.add_external_pin(
        "din", TerminalDirection.INPUT, column=0
    )
    drv = circuit.add_cell("drv", "DIFFBUF")
    rcv = circuit.add_cell("rcv", "NOR2")
    n_in = circuit.add_net("n_in")
    circuit.connect("n_in", din, drv.terminal("I0"))
    p = circuit.add_net("dp")
    n = circuit.add_net("dn")
    circuit.connect("dp", drv.terminal("OP"), rcv.terminal("I0"))
    circuit.connect("dn", drv.terminal("ON"), rcv.terminal("I1"))
    circuit.make_differential_pair(p, n)
    dout = circuit.add_external_pin(
        "dout", TerminalDirection.OUTPUT, side=PinSide.TOP
    )
    circuit.connect(circuit.add_net("n_out").name, rcv.terminal("O"), dout)
    if rows == 1:
        placement = Placement(circuit, [[drv, rcv]])
    else:
        # Geometry chosen so the pair's corridor lands on columns that do
        # not coincide with any pin column: the two routing graphs are
        # then homogeneous and the correspondence can be established.
        filler0 = circuit.add_cell("fill0", "AND2")
        filler1 = circuit.add_cell("fill1", "AND2")
        tie = circuit.add_net("tie")
        circuit.connect(
            "tie",
            filler0.terminal("O"),
            filler1.terminal("I0"),
            filler1.terminal("I1"),
        )
        tie2 = circuit.add_net("tie2")
        tie_out = circuit.add_external_pin(
            "tie_out", TerminalDirection.OUTPUT, side=PinSide.BOTTOM
        )
        circuit.connect("tie2", filler1.terminal("O"), tie_out)
        tie_in = circuit.add_external_pin(
            "tie_in", TerminalDirection.INPUT, side=PinSide.BOTTOM
        )
        tie3 = circuit.add_net("tie3")
        circuit.connect(
            "tie3", tie_in, filler0.terminal("I0"), filler0.terminal("I1")
        )
        feeds = [circuit.add_cell(f"f{i}", "FEED") for i in range(4)]
        placement = Placement(
            circuit,
            [[filler0, drv],
             [filler1] + feeds,
             [rcv]],
        )
    return circuit, placement, p, n


class TestCorrespondence:
    def test_same_row_pair_homogeneous(self, library):
        circuit, placement, p, n = diff_circuit(library)
        gp = build_routing_graph(p, placement, {})
        gn = build_routing_graph(n, placement, {})
        pair = establish_correspondence(gp, gn)
        assert pair is not None
        alive_p = [e.index for e in gp.alive_edges()]
        assert set(pair.edge_map) == set(alive_p)
        for lead_edge, partner_edge in pair.edge_map.items():
            assert (
                gp.edges[lead_edge].kind is gn.edges[partner_edge].kind
            )
            assert (
                gp.edges[lead_edge].channel
                == gn.edges[partner_edge].channel
            )

    def test_vertex_map_preserves_driver(self, library):
        circuit, placement, p, n = diff_circuit(library)
        gp = build_routing_graph(p, placement, {})
        gn = build_routing_graph(n, placement, {})
        pair = establish_correspondence(gp, gn)
        assert pair.vertex_map[gp.driver_vertex] == gn.driver_vertex

    def test_non_homogeneous_returns_none(self, library):
        # Pair a 2-pin net with a 3-pin net: structures differ.
        circuit = Circuit("bad", library)
        drv = circuit.add_cell("drv", "DIFFBUF")
        r1 = circuit.add_cell("r1", "NOR2")
        r2 = circuit.add_cell("r2", "NOR2")
        p = circuit.add_net("p")
        n = circuit.add_net("n")
        circuit.connect("p", drv.terminal("OP"), r1.terminal("I0"))
        circuit.connect(
            "n", drv.terminal("ON"), r1.terminal("I1"), r2.terminal("I0")
        )
        placement = Placement(circuit, [[drv, r1, r2]])
        gp = build_routing_graph(p, placement, {})
        gn = build_routing_graph(n, placement, {})
        assert establish_correspondence(gp, gn) is None


class TestPairedAssignment:
    def test_pair_gets_adjacent_corridor(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([p, n])
        assert result.complete
        slot_p = result.of_net(p)[1]
        slot_n = result.of_net(n)[1]
        assert abs(slot_n.x - slot_p.x) == 1

    def test_trailing_net_requests_nothing(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        planner = FeedthroughPlanner(circuit, placement)
        lead, trail = (p, n) if p.name < n.name else (n, p)
        assert planner.requests_for(trail) == []
        assert planner.requests_for(lead)

    def test_corridor_width_doubles(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        planner = FeedthroughPlanner(circuit, placement)
        assert planner.corridor_width(p) == 2


class TestPairedRouting:
    def test_routed_pair_stays_parallel(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        result = router.route()
        route_p = result.routes["dp"]
        route_n = result.routes["dn"]
        channels_p = sorted(
            (e.kind.value, e.channel) for e in route_p.edges
        )
        channels_n = sorted(
            (e.kind.value, e.channel) for e in route_n.edges
        )
        assert channels_p == channels_n

    def test_pair_log_mentions_correspondence(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        router.route()
        (lead,) = [s for s in router.states.values() if s.pair is not None]
        assert {lead.net.name, lead.pair.partner_net} == {"dp", "dn"}
        assert lead.pair.edge_map
        partner = router.states[lead.pair.partner_net]
        assert partner.follower_of == lead.net.name

    def test_both_nets_are_trees(self, library):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        router.route()
        assert router.states["dp"].graph.is_tree
        assert router.states["dn"].graph.is_tree
