"""Row-based placement model.

Rows are indexed bottom-to-top ``0 .. n_rows-1``; *channels* (the wiring
regions the global router fills) are indexed ``0 .. n_rows`` with channel
``c`` lying directly below row ``c`` (channel ``n_rows`` is above the top
row).  A row is an ordered list of cells packed left-to-right from column
0 with no gaps — all white space comes from explicit feed cells, matching
the bipolar standard-cell style of the paper, where ordinary cells have no
feedthrough space and feed cells are the only crossings-for-rent.

External pins live on the chip boundary: bottom-side pins in channel 0,
top-side pins in channel ``n_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Ordered rows of cells with derived x coordinates.

    The authoritative state is ``rows`` — per-row ordered cell lists.
    Column positions are recomputed by :meth:`refresh` whenever row
    contents change (e.g. feed-cell insertion).
    """

    def __init__(self, circuit: Circuit, rows: Sequence[Sequence[Cell]]):
        if not rows:
            raise PlacementError("placement needs at least one row")
        self.circuit = circuit
        self.rows: List[List[Cell]] = [list(r) for r in rows]
        self._position: Dict[str, Tuple[int, int]] = {}
        self.refresh()

    # ------------------------------------------------------------------
    # Geometry derivation
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute x coordinates by packing each row from column 0."""
        self._position.clear()
        for row_index, row in enumerate(self.rows):
            x = 0
            for cell in row:
                if cell.name in self._position:
                    raise PlacementError(
                        f"cell {cell.name} placed more than once"
                    )
                self._position[cell.name] = (row_index, x)
                x += cell.width

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
        return max(map(self._extent, self.rows), default=0)

    def row_width(self, row: int) -> int:
        """Occupied width of one row."""
        self._check_row(row)
        return self._extent(self.rows[row])

    def _extent(self, row: List[Cell]) -> int:
        """One past a row's last column: rows are packed from column 0
        with no gaps, so its last cell's position plus its width."""
        if not row:
            return 0
        last = row[-1]
        return self._position[last.name][1] + last.width

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
    # Mutation (feed-cell insertion support)
    # ------------------------------------------------------------------
    def insert_cells(
        self, row: int, index: int, cells: Sequence[Cell]
    ) -> None:
        """Insert cells into a row at list position ``index``.

        Only the inserted cells and the cells to their right are
        re-packed — an O(row suffix) update instead of a full-chip
        :meth:`refresh`.  Feed-cell insertion calls this once per
        block, so the full recompute made setup quadratic in chip
        size.  Duplicate placements are rejected *before* any state
        changes, matching what ``refresh()`` would have raised.
        """
        self._check_row(row)
        row_cells = self.rows[row]
        if not (0 <= index <= len(row_cells)):
            raise PlacementError(
                f"insertion index {index} out of range for row {row}"
            )
        incoming = list(cells)
        seen = set()
        for cell in incoming:
            if cell.name in self._position or cell.name in seen:
                raise PlacementError(
                    f"cell {cell.name} placed more than once"
                )
            seen.add(cell.name)
        if index == 0:
            x = 0
        else:
            prev = row_cells[index - 1]
            x = self._position[prev.name][1] + prev.width
        row_cells[index:index] = incoming
        for cell in row_cells[index:]:
            self._position[cell.name] = (row, x)
            x += cell.width

    def insert_cell_blocks(
        self, row: int, placements: Sequence[Tuple[int, Sequence[Cell]]]
    ) -> None:
        """Apply many ``(index, cells)`` insertions to one row at once.

        ``placements`` must be ordered right-to-left (descending index,
        as :meth:`~repro.layout.feedcell.FeedCellInserter` computes
        them against the pre-insertion list), so each splice lands
        where a sequential :meth:`insert_cells` loop would have put it
        — but the O(row suffix) position repack runs **once** from the
        leftmost splice instead of once per block, which is what kept
        feed-cell insertion quadratic on scale-tier chips.
        """
        self._check_row(row)
        row_cells = self.rows[row]
        seen = set()
        for _, cells in placements:
            for cell in cells:
                if cell.name in self._position or cell.name in seen:
                    raise PlacementError(
                        f"cell {cell.name} placed more than once"
                    )
                seen.add(cell.name)
        lowest = len(row_cells)
        for index, cells in placements:
            if not (0 <= index <= len(row_cells)):
                raise PlacementError(
                    f"insertion index {index} out of range for row {row}"
                )
            row_cells[index:index] = list(cells)
            lowest = min(lowest, index)
        if lowest == 0:
            x = 0
        else:
            prev = row_cells[lowest - 1]
            x = self._position[prev.name][1] + prev.width
        for cell in row_cells[lowest:]:
            self._position[cell.name] = (row, x)
            x += cell.width

    def swap_cells(self, cell_a: Cell, cell_b: Cell) -> None:
        """Exchange two placed cells without disturbing their neighbours.

        Legal when the cells have equal width (anywhere on the chip) or
        are adjacent in the same row; either way every other cell keeps
        its coordinates, so annealing moves stay O(1) plus the affected
        nets.  Raises :class:`PlacementError` otherwise.
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
        adjacent = row_a == row_b and abs(index_a - index_b) == 1
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

    def feed_cells_in_row(self, row: int) -> List[PlacedCell]:
        """Feed cells of one row, left to right."""
        self._check_row(row)
        return [
            self.placed(cell) for cell in self.rows[row] if cell.is_feed
        ]

    def feed_columns(self, row: int) -> List[int]:
        """Columns of one row's feed cells, left to right."""
        self._check_row(row)
        position = self._position
        return [
            position[cell.name][1] for cell in self.rows[row] if cell.is_feed
        ]

    def _check_row(self, row: int) -> None:
        if not (0 <= row < len(self.rows)):
            raise PlacementError(f"row {row} out of range")

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every non-feed circuit cell is placed exactly once."""
        placed_names = set(self._position)
        for cell in self.circuit.cells:
            if cell.is_feed:
                continue
            if cell.name not in placed_names:
                raise PlacementError(f"cell {cell.name} is not placed")

    def __repr__(self) -> str:
        return (
            f"Placement({self.n_rows} rows, width={self.width_columns} "
            f"columns, {len(self._position)} cells)"
        )
