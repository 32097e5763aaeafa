"""Reference: feed cells as row items, the model the run-based placement
replaced.

Before feed columns became runs of :class:`~repro.layout.placement.
Placement`, every feed cell was a netlist cell and an item of its row's
list; Section 4.3's insertion made new ``__feed_<n>`` cells (probing
each name), spliced them into the row lists and re-read the flagged
corridors' columns by cell name, and the annealer drew its moves over
the same item lists.  :class:`ItemPlacement` is that row model, with a
:class:`FeedItem` (a width-1 item with a name and no terminals) per feed
cell; :class:`ReferenceInserter` and :func:`reference_anneal` are the
insertion and annealing code that ran on it, kept as the reference the
run-based code must reproduce column for column.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import FeedthroughError, PlacementError
from repro.layout.anneal import AnnealConfig, AnnealResult, _Objective
from repro.layout.feedcell import FeedCellInserter, InsertionReport
from repro.layout.placement import Placement
from repro.netlist.circuit import Cell, PinSide, Terminal
from repro.tech import Technology


class FeedItem:
    """One feed cell of a row: one column wide, no terminals."""

    __slots__ = ("name",)
    width = 1

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"FeedItem({self.name})"


Item = Union[Cell, FeedItem]


def is_feed(item: Item) -> bool:
    return isinstance(item, FeedItem)


class ItemPlacement:
    """Rows as item lists, cells and feed cells alike, packed from
    column 0; positions by item name."""

    def __init__(self, circuit, rows: Sequence[Sequence[Item]]):
        self.circuit = circuit
        self.rows: List[List[Item]] = [list(row) for row in rows]
        self._position: Dict[str, Tuple[int, int]] = {}
        self.refresh()

    @classmethod
    def of(cls, placement: Placement) -> "ItemPlacement":
        """The item model of a run-based placement: each feed column a
        :class:`FeedItem` named ``__pfeed_<n>`` in row order."""
        rows = []
        counter = 0
        for row in range(placement.n_rows):
            items: List[Item] = []
            for item in placement.items(row):
                if isinstance(item, Cell):
                    items.append(item)
                    continue
                for _ in range(item):
                    items.append(FeedItem(f"__pfeed_{counter}"))
                    counter += 1
            rows.append(items)
        return cls(placement.circuit, rows)

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        self._position.clear()
        for row_index, row in enumerate(self.rows):
            x = 0
            for item in row:
                if item.name in self._position:
                    raise PlacementError(
                        f"cell {item.name} placed more than once"
                    )
                self._position[item.name] = (row_index, x)
                x += item.width

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def width_columns(self) -> int:
        return max(
            (sum(item.width for item in row) for row in self.rows),
            default=0,
        )

    def has_item(self, name: str) -> bool:
        return name in self._position

    def location_of(self, item: Item) -> Tuple[int, int]:
        return self._position[item.name]

    def pin_position(self, pin) -> Tuple[int, int]:
        if isinstance(pin, Terminal):
            row, x = self.location_of(pin.cell)
            return x + pin.defn.offset, row
        row_like = -1 if pin.side is PinSide.BOTTOM else self.n_rows
        return pin.column, row_like

    def feed_cells_in_row(self, row: int) -> List[Tuple[int, str]]:
        """``(column, name)`` of one row's feed cells, left to right."""
        return [
            (self._position[item.name][1], item.name)
            for item in self.rows[row]
            if is_feed(item)
        ]

    def feed_columns(self, row: int) -> List[int]:
        return [x for x, _ in self.feed_cells_in_row(row)]

    def cell_columns(self) -> Dict[str, Tuple[int, int]]:
        """``(row, column)`` of every logic cell."""
        return {
            item.name: self._position[item.name]
            for row in self.rows
            for item in row
            if not is_feed(item)
        }

    # ------------------------------------------------------------------
    def insert_cell_blocks(
        self, row: int, placements: Sequence[Tuple[int, Sequence[Item]]]
    ) -> None:
        """Apply ``(index, items)`` splices in the given (right-to-left)
        order, then repack the row from its leftmost splice."""
        row_items = self.rows[row]
        lowest = len(row_items)
        for index, items in placements:
            if not (0 <= index <= len(row_items)):
                raise PlacementError(
                    f"insertion index {index} out of range for row {row}"
                )
            row_items[index:index] = list(items)
            lowest = min(lowest, index)
        if lowest == 0:
            x = 0
        else:
            prev = row_items[lowest - 1]
            x = self._position[prev.name][1] + prev.width
        for item in row_items[lowest:]:
            self._position[item.name] = (row, x)
            x += item.width

    def swap_cells(self, item_a: Item, item_b: Item) -> None:
        """The annealer's move: equal widths anywhere, or adjacent."""
        if item_a is item_b:
            return
        row_a, x_a = self.location_of(item_a)
        row_b, x_b = self.location_of(item_b)
        index_a = self.rows[row_a].index(item_a)
        index_b = self.rows[row_b].index(item_b)
        if item_a.width == item_b.width:
            self.rows[row_a][index_a] = item_b
            self.rows[row_b][index_b] = item_a
            self._position[item_a.name] = (row_b, x_b)
            self._position[item_b.name] = (row_a, x_a)
            return
        if not (row_a == row_b and abs(index_a - index_b) == 1):
            raise PlacementError("widths differ and items not adjacent")
        if index_a > index_b:
            item_a, item_b = item_b, item_a
            index_a, index_b = index_b, index_a
            x_a, x_b = x_b, x_a
        row = self.rows[row_a]
        row[index_a], row[index_b] = item_b, item_a
        self._position[item_b.name] = (row_a, x_a)
        self._position[item_a.name] = (row_a, x_a + item_b.width)


def same_geometry(placement: Placement, items: ItemPlacement) -> List[str]:
    """Where a run-based placement and an item model differ: logic-cell
    positions, feed columns per row, chip width (empty when equal)."""
    problems = []
    cells = {
        cell.name: placement.location_of(cell)
        for row in placement.rows
        for cell in row
    }
    if cells != items.cell_columns():
        problems.append("logic-cell positions differ")
    for row in range(placement.n_rows):
        if placement.feed_columns(row) != items.feed_columns(row):
            problems.append(f"row {row}: feed columns differ")
    if placement.width_columns != items.width_columns:
        problems.append(
            f"chip width {placement.width_columns} != "
            f"{items.width_columns}"
        )
    return problems


# ----------------------------------------------------------------------
# Section 4.3 insertion by splicing
# ----------------------------------------------------------------------
class ReferenceInserter:
    """The splice path of :class:`FeedCellInserter`: new named feed
    items, protected list-index ranges, right-to-left splices, and flag
    groups re-read by name."""

    def __init__(self, placement: ItemPlacement):
        self.placement = placement
        self._feed_counter = 0

    def corridor_names(
        self, corridors: Sequence[Tuple[int, int, int]]
    ) -> List[Tuple[int, List[str], int]]:
        """Pass-1 corridors ``(row, start, width)`` as the names of the
        feed cells they cover."""
        by_column = [
            dict(self.placement.feed_cells_in_row(r))
            for r in range(self.placement.n_rows)
        ]
        groups = []
        for row, start, width in corridors:
            names = []
            for column in range(start, start + width):
                name = by_column[row].get(column)
                if name is None:
                    raise FeedthroughError(
                        f"slot column {column} in row {row} has no "
                        "feed cell"
                    )
                names.append(name)
            groups.append((row, names, width))
        return groups

    def insert_feed_cells(
        self,
        shortfall: Dict[Tuple[int, int], int],
        per_row_cost: Dict[int, int],
        widening: int,
        corridors: Sequence[Tuple[int, int, int]],
        report: InsertionReport,
    ) -> List[Tuple[int, int, int]]:
        """Insert row by row; returns the flag list as
        ``(row, first column, width)`` after every insertion."""
        preserved = self.corridor_names(corridors)
        flagged = list(preserved)
        wide_by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (row, width), count in sorted(shortfall.items()):
            if width >= 2:
                wide_by_row.setdefault(row, []).append((width, count))
        for row in range(self.placement.n_rows):
            blocks: List[Tuple[int, List[FeedItem]]] = []
            for width, count in wide_by_row.get(row, ()):
                for _ in range(count):
                    blocks.append((width, self._new_feed_cells(width)))
            singles = (
                shortfall.get((row, 1), 0) + widening - per_row_cost[row]
            )
            for _ in range(singles):
                blocks.append((1, self._new_feed_cells(1)))
            if not blocks:
                continue
            report.inserted_cells += sum(len(c) for _, c in blocks)
            protected = self._protected_index_ranges(row, preserved)
            self._insert_blocks(row, blocks, protected)
            for width, cells in blocks:
                if width >= 2:
                    flagged.append((row, [c.name for c in cells], width))
        return self._flag_columns(flagged)

    def _new_feed_cells(self, count: int) -> List[FeedItem]:
        """``count`` new feed items under the next free ``__feed_<n>``
        names."""
        cells = []
        for _ in range(count):
            while True:
                name = f"__feed_{self._feed_counter}"
                self._feed_counter += 1
                if not self.placement.has_item(name):
                    break
            cells.append(FeedItem(name))
        return cells

    def _protected_index_ranges(
        self, row: int, preserved: List[Tuple[int, List[str], int]]
    ) -> List[Tuple[int, int]]:
        index_of = {
            item.name: i for i, item in enumerate(self.placement.rows[row])
        }
        ranges = []
        for r, names, _ in preserved:
            if r != row:
                continue
            indices = [index_of[name] for name in names if name in index_of]
            if indices:
                ranges.append((min(indices), max(indices)))
        return ranges

    def _insert_blocks(
        self,
        row: int,
        blocks: List[Tuple[int, List[FeedItem]]],
        protected: List[Tuple[int, int]],
    ) -> None:
        row_len = len(self.placement.rows[row])
        n_blocks = len(blocks)
        placements = []
        for i, (_, cells) in enumerate(blocks):
            index = round((i + 1) * row_len / (n_blocks + 1))
            if protected:
                index = FeedCellInserter._nearest_allowed_index(
                    index, row_len, protected
                )
            placements.append((index, cells))
        placements.sort(key=lambda p: p[0], reverse=True)
        self.placement.insert_cell_blocks(row, placements)

    def _flag_columns(
        self, flagged: List[Tuple[int, List[str], int]]
    ) -> List[Tuple[int, int, int]]:
        position = self.placement._position
        out = []
        for row, names, width in flagged:
            columns = sorted(position[name][1] for name in names)
            if columns != list(range(columns[0], columns[0] + width)):
                raise FeedthroughError(
                    f"flagged corridor in row {row} is no longer "
                    f"adjacent: {columns}"
                )
            out.append((row, columns[0], width))
        return out


# ----------------------------------------------------------------------
# Annealing over item lists
# ----------------------------------------------------------------------
def reference_anneal(
    circuit,
    placement: ItemPlacement,
    config: AnnealConfig = AnnealConfig(),
    technology: Technology = Technology(),
) -> AnnealResult:
    """The annealer as it ran on item lists, feed cells among the
    movable items."""
    rng = random.Random(config.seed)
    objective = _Objective(circuit, placement, technology)
    movable = [item for row in placement.rows for item in row]
    if len(movable) < 2:
        return AnnealResult(objective.total, objective.total, 0, 0)
    by_width: Dict[int, List[Item]] = {}
    for item in movable:
        by_width.setdefault(item.width, []).append(item)

    initial_cost = objective.total
    temperature = config.initial_temperature or _auto_temperature(
        objective, placement, movable, by_width, rng
    )
    moves_per_t = config.moves_per_temperature or max(
        32, 8 * len(movable)
    )
    ladder_steps = max(
        1,
        int(
            math.ceil(
                math.log(
                    config.final_temperature_um / max(temperature, 1e-9)
                )
                / math.log(config.cooling)
            )
        ),
    )
    moves_per_t = max(8, min(moves_per_t, config.max_moves // ladder_steps))

    tried = accepted = 0
    best_cost = objective.total
    best_rows = [list(row) for row in placement.rows]
    while temperature > config.final_temperature_um:
        for _ in range(moves_per_t):
            if tried >= config.max_moves:
                temperature = 0.0
                break
            tried += 1
            pair = _propose(placement, movable, by_width, rng)
            if pair is None:
                continue
            item_a, item_b = pair
            touched = objective.nets_of(*_cells(item_a, item_b))
            old_costs = [objective.cost_of[i] for i in touched]
            placement.swap_cells(item_a, item_b)
            delta = objective.delta_for_update(touched)
            if delta <= 0.0 or rng.random() < math.exp(
                -delta / temperature
            ):
                accepted += 1
                if objective.total < best_cost - 1e-9:
                    best_cost = objective.total
                    best_rows = [list(row) for row in placement.rows]
                continue
            placement.swap_cells(item_a, item_b)
            objective.restore(touched, old_costs)
        temperature *= config.cooling
    placement.rows[:] = [list(row) for row in best_rows]
    placement.refresh()
    return AnnealResult(initial_cost, best_cost, tried, accepted)


def _cells(*items: Item) -> List[Cell]:
    return [item for item in items if not is_feed(item)]


def _propose(placement, movable, by_width, rng):
    if rng.random() < 0.5:
        item_a = rng.choice(movable)
        peers = by_width[item_a.width]
        if len(peers) < 2:
            return None
        item_b = rng.choice(peers)
        if item_b is item_a:
            return None
        return item_a, item_b
    item_a = rng.choice(movable)
    row, _ = placement.location_of(item_a)
    row_items = placement.rows[row]
    index = row_items.index(item_a)
    if len(row_items) < 2:
        return None
    neighbour = index + 1 if index + 1 < len(row_items) else index - 1
    return item_a, row_items[neighbour]


def _auto_temperature(objective, placement, movable, by_width, rng,
                      samples=40):
    deltas = []
    for _ in range(samples):
        pair = _propose(placement, movable, by_width, rng)
        if pair is None:
            continue
        item_a, item_b = pair
        touched = objective.nets_of(*_cells(item_a, item_b))
        old_costs = [objective.cost_of[i] for i in touched]
        placement.swap_cells(item_a, item_b)
        delta = objective.delta_for_update(touched)
        placement.swap_cells(item_a, item_b)
        objective.restore(touched, old_costs)
        if delta > 0.0:
            deltas.append(delta)
    if not deltas:
        return 100.0
    return (sum(deltas) / len(deltas)) / -math.log(0.8)
