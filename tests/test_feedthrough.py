"""Tests for repro.layout.feedthrough."""

import pytest

from repro.errors import FeedthroughError
from repro.layout.feedthrough import (
    FeedthroughAssignment,
    FeedthroughPlanner,
    RowSlots,
)
from repro.layout.placement import Placement
from repro.netlist import Circuit


class TestRowSlots:
    def test_find_nearest_single(self):
        slots = RowSlots(0, [2, 5, 9])
        assert slots.find_group(4, 1, strict_flags=False) == 5
        assert slots.find_group(2, 1, strict_flags=False) == 2

    def test_occupied_slots_excluded(self):
        slots = RowSlots(0, [2, 5, 9])

        class FakeNet:
            name = "n"

        slots.occupy(5, 1, FakeNet())
        assert slots.find_group(5, 1, strict_flags=False) in (2, 9)
        assert slots.free_count() == 2

    def test_adjacent_run_for_width2(self):
        slots = RowSlots(0, [2, 3, 7])
        assert slots.find_group(0, 2, strict_flags=False) == 2
        assert slots.find_group(7, 2, strict_flags=False) == 2

    def test_no_run_returns_none(self):
        slots = RowSlots(0, [2, 5, 9])
        assert slots.find_group(5, 2, strict_flags=False) is None

    def test_flagged_slots_hidden_from_singles(self):
        slots = RowSlots(0, [2, 3])
        slots.flag_group(2, 2)
        assert slots.find_group(2, 1, strict_flags=False) is None
        assert slots.find_group(2, 1, strict_flags=True) is None

    def test_strict_mode_requires_flagged_group(self):
        slots = RowSlots(0, [2, 3, 6, 7])
        slots.flag_group(6, 2)
        assert slots.find_group(2, 2, strict_flags=True) == 6
        # non-strict may also use the unflagged run at 2
        assert slots.find_group(2, 2, strict_flags=False) == 2

    def test_double_flag_raises(self):
        slots = RowSlots(0, [2, 3])
        slots.flag_group(2, 2)
        with pytest.raises(FeedthroughError):
            slots.flag_group(2, 2)

    def test_flag_missing_column_raises(self):
        slots = RowSlots(0, [2])
        with pytest.raises(FeedthroughError):
            slots.flag_group(2, 2)

    def test_occupy_conflict_raises(self):
        slots = RowSlots(0, [2])

        class FakeNet:
            name = "n"

        slots.occupy(2, 1, FakeNet())
        with pytest.raises(FeedthroughError):
            slots.occupy(2, 1, FakeNet())

    def test_release(self):
        slots = RowSlots(0, [2, 3])

        class FakeNet:
            name = "n"

        slots.occupy(2, 2, FakeNet())
        slots.release("n")
        assert slots.free_count() == 2

    def test_add_column(self):
        slots = RowSlots(0, [5])
        slots.add_column(3)
        assert slots.columns == [3, 5]
        with pytest.raises(FeedthroughError):
            slots.add_column(5)


def three_row_setup(library, feeds_per_row=2):
    """a(row0) -> b(row2) net needing a row-1 crossing."""
    circuit = Circuit("ft", library)
    a = circuit.add_cell("a", "NOR2")
    mid = circuit.add_cell("mid", "NOR2")
    b = circuit.add_cell("b", "NOR2")
    rows = [[a, feeds_per_row], [mid, feeds_per_row], [b, feeds_per_row]]
    net = circuit.add_net("n")
    circuit.connect("n", a.terminal("O"), b.terminal("I0"))
    # keep mid's pins tied so the circuit could validate if needed
    tie = circuit.add_net("tie")
    circuit.connect(
        "tie", mid.terminal("O"), b.terminal("I1")
    )
    placement = Placement(circuit, rows)
    return circuit, placement, net


class TestPlanner:
    def test_assigns_needed_crossing(self, library):
        circuit, placement, net = three_row_setup(library)
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([net])
        assert result.complete
        slots = result.of_net(net)
        assert list(slots) == [1]
        assert slots[1].width == 1

    def test_assignment_prefers_center(self, library):
        circuit, placement, net = three_row_setup(library, feeds_per_row=3)
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([net])
        slot = result.of_net(net)[1]
        center = placement.net_center_column(net)
        free_columns = placement.feed_columns(1)
        best = min(free_columns, key=lambda x: (abs(x - center), x))
        assert slot.x == best

    def test_failure_recorded(self, library):
        circuit, placement, net = three_row_setup(library, feeds_per_row=0)
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([net])
        assert not result.complete
        assert result.failures[0].net is net
        assert result.failures[0].row == 1

    def test_first_net_wins_contested_slot(self, library):
        circuit, placement, net = three_row_setup(library, feeds_per_row=1)
        a2 = circuit.add_cell("a2", "NOR2")
        b2 = circuit.add_cell("b2", "NOR2")
        placement = Placement(
            circuit,
            [placement.items(0) + [a2], placement.items(1),
             placement.items(2) + [b2]],
        )
        net2 = circuit.add_net("n2")
        circuit.connect("n2", a2.terminal("O"), b2.terminal("I0"))
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([net, net2])
        assert result.of_net(net)
        assert [f.net.name for f in result.failures] == ["n2"]

    def test_release_net(self, library):
        circuit, placement, net = three_row_setup(library, feeds_per_row=1)
        planner = FeedthroughPlanner(circuit, placement)
        result = FeedthroughAssignment()
        assert planner.assign_net(net, result) == []
        planner.release_net(net)
        assert planner.rows[1].free_count() == 1

    def test_cancel_all(self, library):
        circuit, placement, net = three_row_setup(library)
        planner = FeedthroughPlanner(circuit, placement)
        planner.assign_all([net])
        planner.cancel_all()
        assert all(
            row.free_count() == len(row.columns) for row in planner.rows
        )

    def test_multipitch_needs_adjacent_group(self, library):
        circuit, placement, _ = three_row_setup(library, feeds_per_row=0)
        wide_a = circuit.add_cell("wa", "CLKBUF")
        wide_b = circuit.add_cell("wb", "DFF")
        placement = Placement(
            circuit,
            [
                placement.items(0) + [wide_a],
                placement.items(1) + [2],  # two adjacent feed columns
                placement.items(2) + [wide_b],
            ],
        )
        wide = circuit.add_net("wide", width_pitches=2)
        circuit.connect(
            "wide", wide_a.terminal("O"), wide_b.terminal("CLK")
        )
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([wide])
        assert result.complete
        slot = result.of_net(wide)[1]
        assert slot.width == 2

    def test_vertical_stacking_preference(self, library):
        # Net crossing rows 1 and 2 of a 4-row chip prefers same column.
        circuit = Circuit("stack", library)
        a = circuit.add_cell("a", "NOR2")
        b = circuit.add_cell("b", "NOR2")
        r1 = [circuit.add_cell(f"m{i}", "NOR2") for i in range(1)]
        r2 = [circuit.add_cell(f"k{i}", "NOR2") for i in range(1)]
        rows = [[a, 3], r1 + [3], r2 + [3], [b, 3]]
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        placement = Placement(circuit, rows)
        planner = FeedthroughPlanner(circuit, placement)
        result = planner.assign_all([net])
        slots = result.of_net(net)
        assert set(slots) == {1, 2}
        assert slots[1].x == slots[2].x
