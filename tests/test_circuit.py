"""Tests for repro.netlist.circuit."""

import pytest

from repro.errors import NetlistError
from repro.netlist import (
    Circuit,
    PinSide,
    TerminalDirection,
    standard_ecl_library,
)


@pytest.fixture()
def circuit(library):
    return Circuit("t", library)


class TestCells:
    def test_add_and_lookup(self, circuit):
        cell = circuit.add_cell("g0", "NOR2")
        assert circuit.cell("g0") is cell
        assert cell.width == 5
        assert not cell.is_sequential

    def test_duplicate_name_raises(self, circuit):
        circuit.add_cell("g0", "NOR2")
        with pytest.raises(NetlistError):
            circuit.add_cell("g0", "INV1")

    def test_unknown_type_raises(self, circuit):
        with pytest.raises(NetlistError):
            circuit.add_cell("g0", "NAND17")

    def test_unknown_cell_lookup_raises(self, circuit):
        with pytest.raises(NetlistError):
            circuit.cell("missing")

    def test_terminal_access(self, circuit):
        cell = circuit.add_cell("g0", "NOR2")
        assert cell.terminal("I0").is_input
        assert cell.terminal("O").is_output
        with pytest.raises(NetlistError):
            cell.terminal("Z")

    def test_logic_cells_excludes_feeds(self, circuit):
        """Cells are logic cells only: a feed cell is a placement
        column, and the library's feed type is no netlist cell."""
        circuit.add_cell("g0", "NOR2")
        with pytest.raises(NetlistError, match="placement columns"):
            circuit.add_cell("f0", "FEED")
        assert [c.name for c in circuit.cells] == ["g0"]


class TestNets:
    def test_source_and_sinks(self, circuit):
        a = circuit.add_cell("a", "INV1")
        b = circuit.add_cell("b", "INV1")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        assert net.source is a.terminal("O")
        assert net.sinks == [b.terminal("I0")]
        assert net.fanout == 1

    def test_external_input_drives(self, circuit):
        pin = circuit.add_external_pin("p", TerminalDirection.INPUT)
        sink = circuit.add_cell("b", "INV1")
        net = circuit.add_net("n")
        circuit.connect("n", pin, sink.terminal("I0"))
        assert net.source is pin

    def test_no_source_raises(self, circuit):
        a = circuit.add_cell("a", "NOR2")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("I0"), a.terminal("I1"))
        with pytest.raises(NetlistError):
            net.source

    def test_two_sources_raises(self, circuit):
        a = circuit.add_cell("a", "INV1")
        b = circuit.add_cell("b", "INV1")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("O"))
        with pytest.raises(NetlistError):
            net.source

    def test_pin_joins_one_net_only(self, circuit):
        a = circuit.add_cell("a", "INV1")
        circuit.add_net("n1")
        circuit.add_net("n2")
        circuit.connect("n1", a.terminal("O"))
        with pytest.raises(NetlistError):
            circuit.connect("n2", a.terminal("O"))

    def test_total_sink_fanin(self, circuit):
        a = circuit.add_cell("a", "INV1")
        b = circuit.add_cell("b", "NOR2")
        net = circuit.add_net("n")
        circuit.connect(
            "n", a.terminal("O"), b.terminal("I0"), b.terminal("I1")
        )
        assert net.total_sink_fanin_pf == pytest.approx(0.02)

    def test_sources_and_sinks_follow_attach(self, circuit):
        """Drivers and sinks are kept between reads and an attach
        drops them: a read after it sees the new pin."""
        a = circuit.add_cell("a", "INV1")
        b = circuit.add_cell("b", "NOR2")
        c = circuit.add_cell("c", "INV1")
        net = circuit.add_net("n")
        circuit.connect("n", b.terminal("I0"))
        assert net.sinks == [b.terminal("I0")]
        with pytest.raises(NetlistError):
            net.source
        net.attach(a.terminal("O"))
        assert net.source is a.terminal("O")
        assert net.sinks is net.sinks
        net.attach(c.terminal("I0"))
        net.attach(b.terminal("I1"))
        assert net.sinks == [
            b.terminal("I0"), c.terminal("I0"), b.terminal("I1")
        ]
        assert net.fanout == 3
        assert net.total_sink_fanin_pf == pytest.approx(0.03)
        net.attach(c.terminal("O"))
        with pytest.raises(NetlistError, match="2 sources"):
            net.source

    def test_width_pitches_validation(self, circuit):
        with pytest.raises(NetlistError):
            circuit.add_net("w", width_pitches=0)
        net = circuit.add_net("w2", width_pitches=3)
        assert net.width_pitches == 3

    def test_routable_nets(self, circuit):
        a = circuit.add_cell("a", "INV1")
        b = circuit.add_cell("b", "INV1")
        circuit.connect(
            circuit.add_net("n").name, a.terminal("O"), b.terminal("I0")
        )
        lone = circuit.add_net("lone")
        circuit.connect("lone", b.terminal("O"))
        assert [n.name for n in circuit.routable_nets] == ["n"]

    def test_duplicate_net_name_raises(self, circuit):
        circuit.add_net("n")
        with pytest.raises(NetlistError):
            circuit.add_net("n")


class TestExternalPins:
    def test_sides_and_directions(self, circuit):
        pin = circuit.add_external_pin(
            "p", TerminalDirection.OUTPUT, side=PinSide.TOP, column=5
        )
        assert pin.is_output
        assert pin.side is PinSide.TOP
        assert pin.column == 5
        assert pin.fanin_pf > 0  # output pads load the net

    def test_input_pin_has_no_fanin(self, circuit):
        pin = circuit.add_external_pin("p", TerminalDirection.INPUT)
        assert pin.fanin_pf == 0.0

    def test_duplicate_raises(self, circuit):
        circuit.add_external_pin("p", TerminalDirection.INPUT)
        with pytest.raises(NetlistError):
            circuit.add_external_pin("p", TerminalDirection.INPUT)


class TestDifferentialPairs:
    def _pair(self, circuit):
        drv = circuit.add_cell("drv", "DIFFBUF")
        rcv = circuit.add_cell("rcv", "NOR2")
        p = circuit.add_net("p")
        n = circuit.add_net("n")
        circuit.connect("p", drv.terminal("OP"), rcv.terminal("I0"))
        circuit.connect("n", drv.terminal("ON"), rcv.terminal("I1"))
        return p, n

    def test_make_pair(self, circuit):
        p, n = self._pair(circuit)
        circuit.make_differential_pair(p, n)
        assert p.diff_partner is n
        assert n.diff_partner is p
        assert p.is_differential
        assert circuit.differential_pairs() == [(n, p)]

    def test_self_pair_raises(self, circuit):
        p, _ = self._pair(circuit)
        with pytest.raises(NetlistError):
            circuit.make_differential_pair(p, p)

    def test_double_pair_raises(self, circuit):
        p, n = self._pair(circuit)
        circuit.make_differential_pair(p, n)
        other = circuit.add_net("o")
        sink = circuit.add_cell("s2", "INV1")
        drv2 = circuit.add_cell("d2", "BUF1")
        circuit.connect("o", drv2.terminal("O"), sink.terminal("I0"))
        with pytest.raises(NetlistError):
            circuit.make_differential_pair(p, other)

    def test_sink_count_mismatch_raises(self, circuit):
        drv = circuit.add_cell("drv", "DIFFBUF")
        r1 = circuit.add_cell("r1", "NOR2")
        r2 = circuit.add_cell("r2", "NOR2")
        p = circuit.add_net("p")
        n = circuit.add_net("n")
        circuit.connect(
            "p", drv.terminal("OP"), r1.terminal("I0"), r2.terminal("I0")
        )
        circuit.connect("n", drv.terminal("ON"), r1.terminal("I1"))
        with pytest.raises(NetlistError):
            circuit.make_differential_pair(p, n)


class TestRevision:
    def test_every_netlist_edit_advances_it(self, circuit):
        seen = [circuit.revision]

        def advanced():
            seen.append(circuit.revision)
            return seen[-1] > seen[-2]

        a = circuit.add_cell("a", "DIFFBUF")
        assert advanced()
        pin = circuit.add_external_pin("p", TerminalDirection.INPUT)
        assert advanced()
        p = circuit.add_net("p")
        n = circuit.add_net("n")
        assert advanced()
        p.attach(pin)
        assert advanced()
        circuit.connect("p", a.terminal("I0"))
        assert advanced()
        r = circuit.add_cell("r", "NOR2")
        p2 = circuit.add_net("p2")
        circuit.connect("p2", a.terminal("OP"), r.terminal("I0"))
        circuit.connect("n", a.terminal("ON"), r.terminal("I1"))
        assert advanced()
        circuit.make_differential_pair(p2, n)
        assert advanced()

    def test_failed_edits_and_reads_keep_it(self, circuit):
        a = circuit.add_cell("a", "INV1")
        revision = circuit.revision
        with pytest.raises(NetlistError):
            circuit.add_cell("a", "INV1")
        with pytest.raises(NetlistError):
            circuit.add_cell("f", "FEED")
        circuit.cells, circuit.nets, circuit.cell("a").terminal("O")
        assert circuit.revision == revision

    def test_derived_values_are_kept_until_an_edit(self, circuit):
        builds = []

        def build():
            builds.append(circuit.revision)
            return object()

        first = circuit.derived("k", build)
        assert circuit.derived("k", build) is first
        circuit.add_net("n")
        second = circuit.derived("k", build)
        assert second is not first
        assert circuit.derived("k", build) is second
        assert circuit.derived("other", build) is not second
        assert len(builds) == 3
