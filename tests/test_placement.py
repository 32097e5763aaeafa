"""Tests for repro.layout.placement."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlacementError
from repro.netlist import Circuit, PinSide, TerminalDirection
from repro.netlist.cell_library import standard_ecl_library
from repro.layout.placement import Placement


@pytest.fixture()
def circuit(library):
    c = Circuit("p", library)
    c.add_cell("a", "NOR2")   # width 5
    c.add_cell("b", "INV1")   # width 4
    c.add_cell("d", "DFF")    # width 10
    return c


class TestGeometry:
    def test_packing(self, circuit):
        a, b, d = (circuit.cell(n) for n in "abd")
        placement = Placement(circuit, [[a, 1, b], [d]])
        assert placement.location_of(a) == (0, 0)
        assert placement.feed_columns(0) == [5]
        assert placement.location_of(b) == (0, 6)
        assert placement.location_of(d) == (1, 0)
        assert placement.width_columns == 10
        assert placement.row_width(0) == 10
        assert placement.n_rows == 2
        assert placement.n_channels == 3

    def test_empty_rows_rejected(self, circuit):
        with pytest.raises(PlacementError):
            Placement(circuit, [])

    def test_duplicate_cell_rejected(self, circuit):
        a = circuit.cell("a")
        with pytest.raises(PlacementError):
            Placement(circuit, [[a, a]])

    def test_terminal_coordinates(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[b, a]])
        # b at x=0, a at x=4; NOR2 I0 offset 1, O offset 4.
        assert placement.terminal_column(a.terminal("I0")) == 5
        assert placement.terminal_column(a.terminal("O")) == 8
        assert placement.terminal_row(a.terminal("O")) == 0

    def test_unplaced_cell_raises(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.location_of(b)

    def test_validate_requires_all_logic_cells(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.validate()


class TestPins:
    def test_pin_channels(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a], [circuit.cell("b")]])
        bottom = circuit.add_external_pin(
            "pb", TerminalDirection.INPUT, side=PinSide.BOTTOM, column=1
        )
        top = circuit.add_external_pin(
            "pt", TerminalDirection.OUTPUT, side=PinSide.TOP, column=2
        )
        assert placement.pin_channel(bottom) == 0
        assert placement.pin_channel(top) == 2
        assert placement.pin_adjacent_channels(bottom) == (0,)
        assert placement.pin_position(top) == (2, 2)
        assert placement.pin_position(bottom) == (1, -1)

    def test_unassigned_pin_column_raises(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        pin = circuit.add_external_pin("p", TerminalDirection.INPUT)
        with pytest.raises(PlacementError):
            placement.pin_column(pin)

    def test_terminal_adjacent_channels(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        assert placement.pin_adjacent_channels(a.terminal("O")) == (0, 1)
        assert placement.pin_adjacent_channels(b.terminal("O")) == (1, 2)


class TestNetQueries:
    def _net(self, circuit, placement_rows):
        placement = Placement(circuit, placement_rows)
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        return placement, net

    def test_center_column_is_median(self, circuit):
        placement, net = self._net(
            circuit, [[circuit.cell("a"), circuit.cell("b")]]
        )
        columns = sorted(
            placement.terminal_column(p) for p in net.pins
        )
        assert placement.net_center_column(net) in columns

    def test_same_row_net_crosses_nothing(self, circuit):
        placement, net = self._net(
            circuit, [[circuit.cell("a"), circuit.cell("b")],
                      [circuit.cell("d")]]
        )
        assert placement.net_crossing_rows(net) == []
        assert placement.net_feedthrough_rows(net) == []

    def test_adjacent_row_net_crosses_nothing(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        assert placement.net_crossing_rows(net) == []

    def test_two_row_gap_needs_feedthrough(self, circuit):
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        placement = Placement(circuit, [[a], [d], [b]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        assert placement.net_crossing_rows(net) == [1]
        assert placement.net_feedthrough_rows(net) == [1]

    def test_terminal_on_crossing_row_needs_no_feedthrough(self, circuit):
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        placement = Placement(circuit, [[a], [d], [b]])
        net = circuit.add_net("n")
        circuit.connect(
            "n", a.terminal("O"), d.terminal("D"), b.terminal("I0")
        )
        assert placement.net_crossing_rows(net) == [1]
        assert placement.net_feedthrough_rows(net) == []

    def test_bottom_pin_to_row1_crosses_row0(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        pin = circuit.add_external_pin(
            "p", TerminalDirection.INPUT, side=PinSide.BOTTOM, column=0
        )
        net = circuit.add_net("n")
        circuit.connect("n", pin, b.terminal("I0"))
        assert placement.net_crossing_rows(net) == [0]
        assert placement.net_feedthrough_rows(net) == [0]


class TestMutation:
    def test_insert_cells_refreshes_coordinates(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        placement.widen_feed_runs(0, [(1, 1)])
        assert placement.feed_columns(0) == [5]
        assert placement.location_of(b) == (0, 6)

    def test_insert_bad_index_raises(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.widen_feed_runs(0, [(5, 1)])

    def test_feed_cells_in_row(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a, 1]])
        assert placement.feed_columns(0) == [5]
        assert placement.feed_runs(0) == (0, 1)
        assert placement.items(0) == [a, 1]


class TestInsertCellBlocks:
    """Several runs of one row widened in one call (the batched splice
    of feed cells it replaced)."""

    def test_matches_sequential_insert_cells(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        widths = [(2, 2), (1, 2)]
        seq = Placement(circuit, [[a, 1, b]])
        for gap, columns in widths:
            seq.widen_feed_runs(0, [(gap, columns)])
        batched = Placement(circuit, [[a, 1, b]])
        batched.widen_feed_runs(0, widths)
        assert batched.items(0) == seq.items(0) == [a, 3, b, 2]
        for cell in batched.rows[0]:
            assert batched.location_of(cell) == seq.location_of(cell)
        assert batched.feed_columns(0) == [5, 6, 7, 12, 13]

    def test_single_block_equals_insert_cells(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        placement.widen_feed_runs(0, [(1, 2)])
        assert placement.items(0) == [a, 2, b]
        assert placement.feed_columns(0) == [5, 6]
        assert placement.location_of(b) == (0, 7)

    def test_duplicate_rejected_before_mutation(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.widen_feed_runs(0, [(1, 1), (7, 1)])
        # The row must be untouched after the failed batch.
        assert placement.items(0) == [a, b]
        assert placement.location_of(b) == (0, 5)

    def test_already_placed_cell_rejected(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b], []])
        placement.set_row(1, [2, a])
        with pytest.raises(PlacementError):
            placement.refresh()

    def test_bad_index_raises(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.widen_feed_runs(0, [(7, 1)])


def test_bad_row_items_rejected(circuit):
    a = circuit.cell("a")
    for bad in (-1, 1.5, "f", True):
        with pytest.raises(PlacementError):
            Placement(circuit, [[a, bad]])


def test_adjacent_runs_merge(circuit):
    a, b = circuit.cell("a"), circuit.cell("b")
    placement = Placement(circuit, [[1, 0, 2, a, 1, 1, b, 0]])
    assert placement.items(0) == [3, a, 2, b]
    assert placement.feed_runs(0) == (3, 2, 0)
    assert placement.row_width(0) == 14


def test_swap_with_feed_moves_the_column(circuit):
    a, b = circuit.cell("a"), circuit.cell("b")
    placement = Placement(circuit, [[a, 1, b]])
    placement.swap_with_feed(a, right=True)
    assert placement.items(0) == [1, a, b]
    assert placement.location_of(a) == (0, 1)
    assert placement.location_of(b) == (0, 6)
    placement.swap_with_feed(a, right=False)
    assert placement.items(0) == [a, 1, b]
    assert placement.location_of(a) == (0, 0)
    with pytest.raises(PlacementError):
        placement.swap_with_feed(a, right=False)


_KINDS = ("NOR2", "INV1", "DFF", 1)  # widths 5, 4, 10; 1 feed column
_EDITS = st.tuples(
    st.sampled_from(("insert", "blocks", "swap")),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from(_KINDS), max_size=6),
        min_size=1, max_size=4,
    ),
    edits=st.lists(_EDITS, max_size=12),
)
def test_widths_match_resummed_cells(rows, edits):
    """Row and chip widths read off the last cell's position equal the
    sum of the row's cell widths and feed runs through any edit
    sequence, and every position equals a full repack's."""
    circuit = Circuit("w", standard_ecl_library())
    names = itertools.count()

    def items(kinds):
        return [
            kind if kind == 1 else circuit.add_cell(f"c{next(names)}", kind)
            for kind in kinds
        ]

    placement = Placement(circuit, [items(row) for row in rows])

    def check():
        widths = [
            sum(c.width for c in row) + sum(placement.feed_runs(r))
            for r, row in enumerate(placement.rows)
        ]
        assert placement.width_columns == max(widths)
        for row, width in enumerate(widths):
            assert placement.row_width(row) == width
        positions = {
            c.name: placement.location_of(c)
            for row in placement.rows for c in row
        }
        placement.refresh()
        assert positions == {
            c.name: placement.location_of(c)
            for row in placement.rows for c in row
        }

    check()
    for edit, x, y, kinds in edits:
        row = x % placement.n_rows
        size = len(placement.rows[row])
        if edit == "insert":
            placement.widen_feed_runs(row, [(y % (size + 1), len(kinds))])
        elif edit == "blocks":
            placement.widen_feed_runs(
                row,
                [((y + 7 * k) % (size + 1), 1) for k in range(len(kinds))],
            )
        elif size:
            # A cell and its right neighbour (a cell, or a feed column
            # when the run between them is not empty), or two cells of
            # one width anywhere on the chip.
            index = y % size
            a = placement.rows[row][index]
            if y % 2 == 0 and placement.feed_runs(row)[index + 1]:
                placement.swap_with_feed(a, right=True)
            elif y % 2 == 0 and index + 1 < size:
                placement.swap_cells(a, placement.rows[row][index + 1])
            else:
                same = [
                    c for r in placement.rows for c in r
                    if c.width == a.width
                ]
                placement.swap_cells(a, same[x % len(same)])
        check()
