"""Tests for repro.layout.feedcell (Section 4.3 insertion)."""

import pytest

from repro.layout.feedcell import FeedCellInserter, InsertionReport
from repro.layout.feedthrough import FeedthroughPlanner
from repro.layout.placement import Placement
from repro.netlist import Circuit


def crossing_circuit(library, n_nets=3, feeds_per_row=0, wide_nets=0):
    """n_nets nets from row 0 to row 2, all needing a row-1 crossing."""
    circuit = Circuit("fc", library)
    rows = [[], [], []]
    nets = []
    for i in range(n_nets):
        a = circuit.add_cell(f"a{i}", "NOR2")
        b = circuit.add_cell(f"b{i}", "NOR2")
        rows[0].append(a)
        rows[2].append(b)
        net = circuit.add_net(f"n{i}")
        circuit.connect(f"n{i}", a.terminal("O"), b.terminal("I0"))
        nets.append(net)
    for i in range(wide_nets):
        a = circuit.add_cell(f"wa{i}", "CLKBUF")
        b = circuit.add_cell(f"wb{i}", "DFF")
        rows[0].append(a)
        rows[2].append(b)
        net = circuit.add_net(f"w{i}", width_pitches=2)
        circuit.connect(f"w{i}", a.terminal("O"), b.terminal("CLK"))
        nets.append(net)
    filler = circuit.add_cell("mid", "NOR3")
    rows[1].append(filler)
    placement = Placement(circuit, [row + [feeds_per_row] for row in rows])
    return circuit, placement, nets


class TestNoInsertionNeeded:
    def test_pass_one_suffices(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=2, feeds_per_row=3
        )
        inserter = FeedCellInserter(circuit, placement)
        planner, assignment, report = inserter.ensure_assignment(nets)
        assert assignment.complete
        assert not report.insertion_ran
        assert report.widening_columns == 0


class TestInsertion:
    def test_inserts_exactly_enough_singles(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=3, feeds_per_row=0
        )
        width_before = placement.width_columns
        inserter = FeedCellInserter(circuit, placement)
        planner, assignment, report = inserter.ensure_assignment(nets)
        assert assignment.complete
        assert report.insertion_ran
        # Row 1 lacked 3 slots -> F = 3, every row grows by 3 columns.
        assert report.widening_columns == 3
        for row in range(placement.n_rows):
            assert len(placement.feed_columns(row)) == 3

    def test_every_net_got_its_crossing(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=4, feeds_per_row=1
        )
        inserter = FeedCellInserter(circuit, placement)
        _, assignment, _ = inserter.ensure_assignment(nets)
        for net in nets:
            assert 1 in assignment.of_net(net)

    def test_multipitch_groups_inserted_adjacent(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=0, feeds_per_row=0, wide_nets=2
        )
        inserter = FeedCellInserter(circuit, placement)
        planner, assignment, report = inserter.ensure_assignment(nets)
        assert assignment.complete
        for net in nets:
            slot = assignment.of_net(net)[1]
            assert slot.width == 2
            # Both columns are feed columns.
            assert set(slot.columns) <= set(placement.feed_columns(1))

    def test_mixed_width_demand(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=2, feeds_per_row=0, wide_nets=1
        )
        inserter = FeedCellInserter(circuit, placement)
        _, assignment, report = inserter.ensure_assignment(nets)
        assert assignment.complete
        # F(1,1)=2 and F(2,1)=1 -> F = 4 columns everywhere.
        assert report.widening_columns == 4

    def test_rows_grow_uniformly(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=3, feeds_per_row=0, wide_nets=1
        )
        widths_before = [
            placement.row_width(r) for r in range(placement.n_rows)
        ]
        inserter = FeedCellInserter(circuit, placement)
        _, _, report = inserter.ensure_assignment(nets)
        for row in range(placement.n_rows):
            assert (
                placement.row_width(row)
                == widths_before[row] + report.widening_columns
            )

    def test_successful_pass1_multipitch_corridor_preserved(self, library):
        # One wide net that fits pass 1 (two adjacent feeds) plus singles
        # that do not fit: insertion must not split the wide corridor.
        circuit, placement, nets = crossing_circuit(
            library, n_nets=3, feeds_per_row=0, wide_nets=0
        )
        wa = circuit.add_cell("wa", "CLKBUF")
        wb = circuit.add_cell("wb", "DFF")
        placement = Placement(
            circuit,
            [
                placement.items(0) + [wa],
                placement.items(1) + [2],  # two adjacent feed columns
                placement.items(2) + [wb],
            ],
        )
        wide = circuit.add_net("wide", width_pitches=2)
        circuit.connect("wide", wa.terminal("O"), wb.terminal("CLK"))
        order = [wide] + nets
        inserter = FeedCellInserter(circuit, placement)
        _, assignment, report = inserter.ensure_assignment(order)
        assert assignment.complete
        slot = assignment.of_net(wide)[1]
        assert slot.width == 2
        columns = sorted(slot.columns)
        assert columns[1] == columns[0] + 1

    def test_report_counts_cells(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=2, feeds_per_row=0
        )
        inserter = FeedCellInserter(circuit, placement)
        _, _, report = inserter.ensure_assignment(nets)
        assert report.inserted_cells == 2 * placement.n_rows
        assert report.first_pass_failures == 2

    def test_inserted_feed_names_unique(self, library):
        circuit, placement, nets = crossing_circuit(
            library, n_nets=3, feeds_per_row=0
        )
        before = circuit.cells
        inserter = FeedCellInserter(circuit, placement)
        inserter.ensure_assignment(nets)
        names = [c.name for c in circuit.cells]
        assert len(names) == len(set(names))
        # Feed columns are placement runs: the netlist is untouched.
        assert circuit.cells == before
