"""Tests for multi-pitch wires (Section 4.2) end to end."""

import pytest

from repro import (
    Circuit,
    GlobalRouter,
    PinSide,
    Placement,
    RouterConfig,
    Technology,
    TerminalDirection,
)
from repro.bipolar.multipitch import (
    density_weight,
    required_slot_width,
    wire_cap_pf,
)
from repro.routegraph.graph import EdgeKind
from repro.timing.delay_model import CapacitanceDelayModel


def clock_circuit(library, pitch=2):
    """CLKBUF driving two DFFs on distant rows with a wide clock net."""
    circuit = Circuit("clk", library)
    clk_pin = circuit.add_external_pin(
        "clk", TerminalDirection.INPUT
    )
    buf = circuit.add_cell("buf", "CLKBUF")
    ff1 = circuit.add_cell("ff1", "DFF")
    ff2 = circuit.add_cell("ff2", "DFF")
    circuit.connect(
        circuit.add_net("nin").name, clk_pin, buf.terminal("I0")
    )
    clock = circuit.add_net("clknet", width_pitches=pitch)
    circuit.connect(
        "clknet", buf.terminal("O"), ff1.terminal("CLK"), ff2.terminal("CLK")
    )
    # give the flops data and outputs so validation passes
    d_in = circuit.add_external_pin("d", TerminalDirection.INPUT)
    d_net = circuit.add_net("dnet")
    circuit.connect("dnet", d_in, ff1.terminal("D"), ff2.terminal("D"))
    q1 = circuit.add_external_pin(
        "q1", TerminalDirection.OUTPUT, side=PinSide.TOP
    )
    q2 = circuit.add_external_pin(
        "q2", TerminalDirection.OUTPUT, side=PinSide.TOP
    )
    circuit.connect(circuit.add_net("nq1").name, ff1.terminal("Q"), q1)
    circuit.connect(circuit.add_net("nq2").name, ff2.terminal("Q"), q2)
    placement = Placement(
        circuit,
        [[buf, 2],
         [ff1, 4],
         [ff2]],
    )
    return circuit, placement, clock


class TestHelpers:
    def test_required_slot_width(self, library):
        circuit, _, clock = clock_circuit(library, pitch=3)
        assert required_slot_width(clock) == 3

    def test_density_weight(self, library):
        circuit, _, clock = clock_circuit(library, pitch=3)
        assert density_weight(clock) == 3

    def test_wire_cap_scales(self, library):
        circuit, _, clock = clock_circuit(library, pitch=2)
        model = CapacitanceDelayModel(Technology(cap_per_um_pf=0.001))
        assert wire_cap_pf(clock, 100.0, model) == pytest.approx(0.2)


class TestRouting:
    def test_wide_net_gets_wide_slots(self, library):
        circuit, placement, clock = clock_circuit(library, pitch=2)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        router.route()
        slots = router.assignment.of_net(clock)
        for slot in slots.values():
            assert slot.width == 2

    def test_wide_net_weighs_double_in_density(self, library):
        circuit, placement, clock = clock_circuit(library, pitch=2)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        router.route()
        state = router.states["clknet"]
        for edge in state.graph.alive_edges():
            if edge.kind is EdgeKind.TRUNK and edge.interval.span > 0:
                column = edge.interval.lo
                d_max, _ = router.engine.density_at(edge.channel, column)
                assert d_max >= 2
                break
        else:
            pytest.skip("clock route had no trunk span")

    def test_wire_cap_uses_width(self, library):
        circuit, placement, clock = clock_circuit(library, pitch=2)
        config = RouterConfig()
        router = GlobalRouter(circuit, placement, [], config)
        result = router.route()
        route = result.routes["clknet"]
        model = CapacitanceDelayModel(
            config.technology, config.width_cap_exponent
        )
        assert route.wire_cap_pf == pytest.approx(
            model.wire_cap_pf(route.total_length_um, 2)
        )

    def test_feed_insertion_creates_wide_groups(self, library):
        # No pre-existing adjacent feeds in the crossing row -> Section
        # 4.3 must insert a flagged group of width 2.
        circuit, placement, clock = clock_circuit(library, pitch=2)
        # strip row 1 feeds so pass 1 fails for the wide net
        placement.set_row(1, placement.rows[1])
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        result = router.route()
        assert result.feed_cells_inserted >= 2
        slots = router.assignment.of_net(clock)
        assert all(s.width == 2 for s in slots.values())
