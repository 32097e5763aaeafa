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
    c.add_cell("f", "FEED")   # width 1
    return c


class TestGeometry:
    def test_packing(self, circuit):
        a, b, d, f = (circuit.cell(n) for n in "abdf")
        placement = Placement(circuit, [[a, f, b], [d]])
        assert placement.location_of(a) == (0, 0)
        assert placement.location_of(f) == (0, 5)
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
        f = circuit.cell("f")
        placement = Placement(circuit, [[a, b]])
        placement.insert_cells(0, 1, [f])
        assert placement.location_of(f) == (0, 5)
        assert placement.location_of(b) == (0, 6)

    def test_insert_bad_index_raises(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.insert_cells(0, 5, [circuit.cell("f")])

    def test_feed_cells_in_row(self, circuit):
        a, f = circuit.cell("a"), circuit.cell("f")
        placement = Placement(circuit, [[a, f]])
        feeds = placement.feed_cells_in_row(0)
        assert len(feeds) == 1
        assert feeds[0].x == 5
        assert placement.feed_cells_in_row(0)[0].cell is f


class TestInsertCellBlocks:
    def _feeds(self, circuit, n, prefix="nf"):
        return [
            circuit.add_cell(f"{prefix}{i}", "FEED") for i in range(n)
        ]

    def test_matches_sequential_insert_cells(self, circuit):
        a, b, d, f = (circuit.cell(n) for n in "abdf")
        feeds = self._feeds(circuit, 4)
        seq = Placement(circuit, [[a, f, b]])
        # Descending-index order, as FeedCellInserter produces.
        blocks = [(3, feeds[2:4]), (1, feeds[0:2])]
        for index, cells in blocks:
            seq.insert_cells(0, index, cells)
        expected = {
            cell.name: seq.location_of(cell) for cell in seq.rows[0]
        }
        batched = Placement(circuit, [[a, f, b]])
        batched.insert_cell_blocks(0, blocks)
        assert [c.name for c in batched.rows[0]] == [
            c.name for c in seq.rows[0]
        ]
        for cell in batched.rows[0]:
            assert batched.location_of(cell) == expected[cell.name]

    def test_single_block_equals_insert_cells(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feeds = self._feeds(circuit, 2)
        placement = Placement(circuit, [[a, b]])
        placement.insert_cell_blocks(0, [(1, feeds)])
        assert [c.name for c in placement.rows[0]] == [
            "a", "nf0", "nf1", "b",
        ]
        assert placement.location_of(feeds[0]) == (0, 5)
        assert placement.location_of(feeds[1]) == (0, 6)
        assert placement.location_of(b) == (0, 7)

    def test_duplicate_rejected_before_mutation(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feed = self._feeds(circuit, 1)[0]
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(1, [feed]), (0, [feed])])
        # The row must be untouched after the failed batch.
        assert [c.name for c in placement.rows[0]] == ["a", "b"]
        assert placement.location_of(b) == (0, 5)

    def test_already_placed_cell_rejected(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(0, [a])])

    def test_bad_index_raises(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feed = self._feeds(circuit, 1)[0]
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(7, [feed])])


_KINDS = ("NOR2", "INV1", "DFF", "FEED")  # widths 5, 4, 10, 1
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
    sum of the row's cell widths through any edit sequence."""
    circuit = Circuit("w", standard_ecl_library())
    names = itertools.count()

    def cells(kinds):
        return [circuit.add_cell(f"c{next(names)}", kind) for kind in kinds]

    placement = Placement(circuit, [cells(row) for row in rows])

    def check():
        widths = [sum(c.width for c in row) for row in placement.rows]
        assert placement.width_columns == max(widths)
        for row, width in enumerate(widths):
            assert placement.row_width(row) == width

    check()
    for edit, x, y, kinds in edits:
        row = x % placement.n_rows
        size = len(placement.rows[row])
        if edit == "insert":
            placement.insert_cells(row, y % (size + 1), cells(kinds))
        elif edit == "blocks":
            # Distinct indices, right to left, against the row as it is.
            indices = sorted(
                {(y + 7 * k) % (size + 1) for k in range(len(kinds))},
                reverse=True,
            )
            blocks = [
                (index, cells([kind]))
                for index, kind in zip(indices, kinds)
            ]
            placement.insert_cell_blocks(row, blocks)
        elif size:
            # Either a cell and its right neighbour, or two cells of one
            # width anywhere on the chip.
            a = placement.rows[row][y % size]
            if y % 2 == 0 and y % size + 1 < size:
                b = placement.rows[row][y % size + 1]
            else:
                same = [
                    c for r in placement.rows for c in r
                    if c.width == a.width
                ]
                b = same[x % len(same)]
            placement.swap_cells(a, b)
        check()
