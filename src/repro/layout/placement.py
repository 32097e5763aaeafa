"""Row-based placement model.

Rows are indexed bottom-to-top ``0 .. n_rows-1``; *channels* (the wiring
regions the global router fills) are indexed ``0 .. n_rows`` with channel
``c`` lying directly below row ``c`` (channel ``n_rows`` is above the top
row).  A row is an ordered list of logic cells packed left-to-right from
column 0 with no white space: every column between two cells is a *feed
column*, matching the bipolar standard-cell style of the paper, where
ordinary cells have no feedthrough space and feed cells are the only
crossings-for-rent.  A feed cell has no terminal and no net, so it is
not a netlist cell: the placement keeps each row's feed columns as
*runs*, one per gap between (and around) the row's logic cells.

External pins live on the chip boundary: bottom-side pins in channel 0,
top-side pins in channel ``n_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import PlacementError
from ..netlist.circuit import (
    Cell,
    Circuit,
    ExternalPin,
    Net,
    NetPin,
    PinSide,
    Terminal,
)

RowItem = Union[Cell, int]
"""One item of a row as the constructor takes it: a logic cell, or a run
of that many feed columns."""


@dataclass(frozen=True)
class PlacedCell:
    """A cell with its resolved position: row index and left column."""

    cell: Cell
    row: int
    x: int

    @property
    def x_end(self) -> int:
        """One past the cell's rightmost column."""
        return self.x + self.cell.width


class Placement:
    """Ordered rows of logic cells, feed-column runs between them, and
    derived x coordinates.

    The authoritative state is ``rows`` — per-row ordered logic-cell
    lists — and each row's feed runs (:meth:`feed_runs`): ``runs[g]``
    feed columns sit before cell ``g`` of the row, and the last run after
    its last cell.  A row is built from items (:data:`RowItem`): cells,
    and non-negative ints for runs of feed columns; adjacent runs merge.
    Column positions are recomputed by :meth:`refresh` whenever row
    contents change; widening a run (:meth:`widen_feed_runs`, Section
    4.3's insertion) shifts only the cells to its right.
    """

    def __init__(self, circuit: Circuit, rows: Sequence[Sequence[RowItem]]):
        if not rows:
            raise PlacementError("placement needs at least one row")
        self.circuit = circuit
        self.rows: List[List[Cell]] = []
        self._runs: List[List[int]] = []
        for items in rows:
            cells, runs = _split_items(items)
            self.rows.append(cells)
            self._runs.append(runs)
        self._position: Dict[str, Tuple[int, int]] = {}
        self.refresh()

    # ------------------------------------------------------------------
    # Geometry derivation
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute x coordinates by packing each row from column 0."""
        self._position.clear()
        for row_index, (cells, runs) in enumerate(zip(self.rows, self._runs)):
            if len(runs) != len(cells) + 1:
                raise PlacementError(
                    f"row {row_index}: {len(cells)} cells need "
                    f"{len(cells) + 1} feed runs, not {len(runs)}"
                )
            for cell in cells:
                if cell.name in self._position:
                    raise PlacementError(
                        f"cell {cell.name} placed more than once"
                    )
                self._position[cell.name] = (row_index, 0)
            self._pack(row_index, 0)

    def _pack(self, row: int, first: int) -> None:
        """Recompute the positions of a row's cells from cell ``first``
        on (the cells to its left keep theirs)."""
        cells = self.rows[row]
        runs = self._runs[row]
        position = self._position
        if first == 0:
            x = runs[0]
        else:
            prev = cells[first - 1]
            x = position[prev.name][1] + prev.width + runs[first]
        for i in range(first, len(cells)):
            cell = cells[i]
            position[cell.name] = (row, x)
            x += cell.width + runs[i + 1]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_channels(self) -> int:
        """Channels 0..n_rows (one more channel than rows)."""
        return len(self.rows) + 1

    @property
    def width_columns(self) -> int:
        """Chip width in columns: the widest row's extent."""
        return max(map(self._extent, range(len(self.rows))), default=0)

    def row_width(self, row: int) -> int:
        """Occupied width of one row, its feed columns included."""
        self._check_row(row)
        return self._extent(row)

    def _extent(self, row: int) -> int:
        """One past a row's last column: rows are packed from column 0
        with no gaps, so its last cell's end plus the run after it."""
        cells = self.rows[row]
        runs = self._runs[row]
        if not cells:
            return runs[0]
        last = cells[-1]
        return self._position[last.name][1] + last.width + runs[-1]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def location_of(self, cell: Cell) -> Tuple[int, int]:
        """``(row, left_column)`` of a placed cell."""
        try:
            return self._position[cell.name]
        except KeyError:
            raise PlacementError(f"cell {cell.name} is not placed") from None

    def placed(self, cell: Cell) -> PlacedCell:
        row, x = self.location_of(cell)
        return PlacedCell(cell, row, x)

    def terminal_column(self, terminal: Terminal) -> int:
        """Absolute column of a cell terminal."""
        _, x = self.location_of(terminal.cell)
        return x + terminal.defn.offset

    def terminal_row(self, terminal: Terminal) -> int:
        row, _ = self.location_of(terminal.cell)
        return row

    def pin_channel(self, pin: ExternalPin) -> int:
        """Boundary channel an external pin connects to."""
        return 0 if pin.side is PinSide.BOTTOM else self.n_rows

    def pin_column(self, pin: ExternalPin) -> int:
        """Column of an external pin; raises if not yet assigned."""
        if pin.column is None:
            raise PlacementError(
                f"external pin {pin.name} has no column assigned"
            )
        return pin.column

    # ------------------------------------------------------------------
    # Net geometry helpers
    # ------------------------------------------------------------------
    def pin_position(self, pin: NetPin) -> Tuple[int, int]:
        """``(column, channel-ish y)`` used for bounding boxes: a terminal
        reports its row, an external pin the boundary row it abuts."""
        if isinstance(pin, Terminal):
            return (self.terminal_column(pin), self.terminal_row(pin))
        channel = self.pin_channel(pin)
        # Pins in channel 0 behave like "row -1"; top pins like "row R".
        row_like = -1 if channel == 0 else self.n_rows
        return (self.pin_column(pin), row_like)

    def pin_adjacent_channels(self, pin: NetPin) -> Tuple[int, ...]:
        """Channels a pin can be reached from: a cell terminal touches the
        channels directly below and above its row; an external pin only
        its boundary channel."""
        if isinstance(pin, Terminal):
            row = self.terminal_row(pin)
            return (row, row + 1)
        return (self.pin_channel(pin),)

    def pin_access(self, pin: NetPin) -> Tuple[int, Tuple[int, ...]]:
        """``(column, adjacent channels)`` of a pin from one cell lookup:
        the column of :meth:`pin_position` and the ascending channels of
        :meth:`pin_adjacent_channels`."""
        if isinstance(pin, Terminal):
            row, x = self.location_of(pin.cell)
            return x + pin.defn.offset, (row, row + 1)
        return self.pin_column(pin), (self.pin_channel(pin),)

    def net_center_column(self, net: Net) -> int:
        """Median column of a net's pins — the paper's feedthrough search
        starts "from the center of the x coordinates of the terminals"."""
        columns = sorted(self.pin_access(p)[0] for p in net.pins)
        return columns[len(columns) // 2]

    def net_crossing_rows(self, net: Net) -> List[int]:
        """Rows the net *must* cross (some pin strictly below, another
        strictly above).  A terminal on the row itself can serve as the
        crossing; rows where the net has no terminal need a feedthrough."""
        lows, highs = [], []
        for pin in net.pins:
            channels = self.pin_adjacent_channels(pin)  # ascending
            lows.append(channels[0])
            highs.append(channels[-1])
        lo_reach = min(highs)   # every channel <= some pin's top access
        hi_reach = max(lows)
        return list(range(max(lo_reach, 0), min(hi_reach, self.n_rows)))

    def net_feedthrough_rows(self, net: Net) -> List[int]:
        """Crossing rows with no net terminal — these need a feedthrough."""
        terminal_rows = {
            self.terminal_row(p)
            for p in net.pins
            if isinstance(p, Terminal)
        }
        return [
            r for r in self.net_crossing_rows(net) if r not in terminal_rows
        ]

    # ------------------------------------------------------------------
    # Feed columns
    # ------------------------------------------------------------------
    def feed_runs(self, row: int) -> Tuple[int, ...]:
        """Feed columns per gap of one row: before each cell, then after
        the last (one more run than the row has cells)."""
        self._check_row(row)
        return tuple(self._runs[row])

    def feed_columns(self, row: int) -> List[int]:
        """Columns of one row's feed columns, left to right."""
        self._check_row(row)
        cells = self.rows[row]
        runs = self._runs[row]
        position = self._position
        columns = list(range(runs[0]))
        for cell, run in zip(cells, runs[1:]):
            if run:
                end = position[cell.name][1] + cell.width
                columns.extend(range(end, end + run))
        return columns

    def items(self, row: int) -> List[RowItem]:
        """One row as constructor items: its cells and non-empty runs."""
        self._check_row(row)
        runs = self._runs[row]
        items: List[RowItem] = [runs[0]] if runs[0] else []
        for cell, run in zip(self.rows[row], runs[1:]):
            items.append(cell)
            if run:
                items.append(run)
        return items

    def widen_feed_runs(
        self, row: int, widths: Sequence[Tuple[int, int]]
    ) -> None:
        """Add ``columns`` feed columns to run ``gap`` of one row for each
        ``(gap, columns)`` pair, then shift the cells to the right of the
        leftmost widened run in one pass.  A bad pair is rejected before
        any run changes."""
        self._check_row(row)
        runs = self._runs[row]
        for gap, columns in widths:
            if not (0 <= gap < len(runs)) or columns < 0:
                raise PlacementError(
                    f"cannot add {columns} feed columns to run {gap} of "
                    f"row {row}"
                )
        for gap, columns in widths:
            runs[gap] += columns
        first = min((gap for gap, _ in widths), default=len(runs))
        if first < len(self.rows[row]):
            self._pack(row, first)

    def set_row(self, row: int, items: Sequence[RowItem]) -> None:
        """Replace one row's cells and runs and repack it.  Cells that
        left the row keep their old entries until the row they moved to
        is set too; :meth:`refresh` checks the whole placement."""
        self._check_row(row)
        self.rows[row], self._runs[row] = _split_items(items)
        self._pack(row, 0)

    # ------------------------------------------------------------------
    # Moves (annealing support)
    # ------------------------------------------------------------------
    def swap_cells(self, cell_a: Cell, cell_b: Cell) -> None:
        """Exchange two placed cells without disturbing their neighbours.

        Legal when the cells have equal width (anywhere on the chip) or
        are adjacent in the same row, with no feed column between them;
        either way every other cell keeps its coordinates, so annealing
        moves stay O(1) plus the affected nets.  Raises
        :class:`PlacementError` otherwise.
        """
        if cell_a is cell_b:
            return
        row_a, x_a = self.location_of(cell_a)
        row_b, x_b = self.location_of(cell_b)
        index_a = self.rows[row_a].index(cell_a)
        index_b = self.rows[row_b].index(cell_b)
        if cell_a.width == cell_b.width:
            self.rows[row_a][index_a] = cell_b
            self.rows[row_b][index_b] = cell_a
            self._position[cell_a.name] = (row_b, x_b)
            self._position[cell_b.name] = (row_a, x_a)
            return
        adjacent = (
            row_a == row_b
            and abs(index_a - index_b) == 1
            and self._runs[row_a][max(index_a, index_b)] == 0
        )
        if not adjacent:
            raise PlacementError(
                f"cannot swap {cell_a.name} and {cell_b.name}: widths "
                "differ and cells are not adjacent"
            )
        if index_a > index_b:
            cell_a, cell_b = cell_b, cell_a
            index_a, index_b = index_b, index_a
            x_a, x_b = x_b, x_a
        row = self.rows[row_a]
        row[index_a], row[index_b] = cell_b, cell_a
        self._position[cell_b.name] = (row_a, x_a)
        self._position[cell_a.name] = (row_a, x_a + cell_b.width)

    def swap_with_feed(self, cell: Cell, right: bool) -> None:
        """Swap ``cell`` with the feed column beside it — the one on its
        right if ``right``, else the one on its left: the column moves to
        the cell's other side and the cell one column over, every other
        cell keeping its coordinates."""
        row, x = self.location_of(cell)
        index = self.rows[row].index(cell)
        runs = self._runs[row]
        source, target = (index + 1, index) if right else (index, index + 1)
        if runs[source] == 0:
            raise PlacementError(
                f"no feed column {'right' if right else 'left'} of "
                f"cell {cell.name}"
            )
        runs[source] -= 1
        runs[target] += 1
        self._position[cell.name] = (row, x + 1 if right else x - 1)

    def _check_row(self, row: int) -> None:
        if not (0 <= row < len(self.rows)):
            raise PlacementError(f"row {row} out of range")

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every circuit cell is placed exactly once."""
        placed_names = self._position
        for cell in self.circuit.cells:
            if cell.name not in placed_names:
                raise PlacementError(f"cell {cell.name} is not placed")

    def __repr__(self) -> str:
        feeds = sum(sum(runs) for runs in self._runs)
        return (
            f"Placement({self.n_rows} rows, width={self.width_columns} "
            f"columns, {len(self._position)} cells, {feeds} feed columns)"
        )


def _split_items(items: Sequence[RowItem]) -> Tuple[List[Cell], List[int]]:
    """A row's cells and its runs (one more than cells) from items."""
    cells: List[Cell] = []
    runs = [0]
    for item in items:
        if isinstance(item, Cell):
            cells.append(item)
            runs.append(0)
        elif type(item) is int and item >= 0:
            runs[-1] += item
        else:
            raise PlacementError(
                f"row item {item!r} is neither a cell nor a feed run"
            )
    return cells, runs
