"""Feed-cell insertion (Section 4.3).

Bipolar global routing "often runs out of available feedthrough positions".
The paper's remedy is a two-pass scheme that *guarantees* a complete
feedthrough assignment:

1. run the first assignment pass and count, per cell row ``r`` and pitch
   width ``w``, the unmet crossing demand ``F(w, r)``;
2. compute ``F(r) = Σ_w w·F(w, r)`` and ``F = max_r F(r)``;
3. flag the corridors that *were* granted to multi-pitch nets so their
   capacity survives the reset, then cancel all assignments;
4. insert ``F(w, r)`` groups of ``w`` adjacent feed cells into row ``r``
   for every ``w ≠ 1`` (flagged for ``w``-pitch nets only), then
   ``F(1, r) + F − F(r)`` single feed cells, all "almost evenly spaced
   between existing cells" — every row grows by exactly ``F`` columns;
5. rerun the assignment with strict width flags.  Capacity now matches
   demand per (row, width), so the second pass always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FeedthroughError
from ..netlist.circuit import Cell, Circuit, Net
from .feedthrough import (
    FeedthroughAssignment,
    FeedthroughPlanner,
    SlotRequest,
)
from .placement import Placement


@dataclass
class InsertionReport:
    """What feed-cell insertion did (all zero when pass 1 succeeded)."""

    first_pass_failures: int = 0
    widening_columns: int = 0
    inserted_cells: int = 0
    groups_per_row: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    """row -> list of (width, count) inserted groups."""

    @property
    def insertion_ran(self) -> bool:
        return self.inserted_cells > 0


class FeedCellInserter:
    """Runs the two-pass assignment, mutating the placement as needed."""

    def __init__(self, circuit: Circuit, placement: Placement):
        self.circuit = circuit
        self.placement = placement
        self._feed_counter = 0

    # ------------------------------------------------------------------
    def ensure_assignment(
        self, ordered_nets: Sequence[Net]
    ) -> Tuple[FeedthroughPlanner, FeedthroughAssignment, InsertionReport]:
        """Assign feedthroughs, inserting feed cells if pass 1 fails.

        Returns the (final) planner, the complete assignment, and a report
        of any insertion performed.  Raises :class:`FeedthroughError` only
        if the guaranteed second pass fails, which indicates a bug.
        """
        planner = FeedthroughPlanner(
            self.circuit, self.placement, strict_flags=False
        )
        first = planner.assign_all(ordered_nets)
        if first.complete:
            return planner, first, InsertionReport()

        report = InsertionReport(first_pass_failures=len(first.failures))
        shortfall = self._shortfalls(first.failures)
        per_row_cost = self._per_row_costs(shortfall)
        widening = max(per_row_cost.values(), default=0)
        report.widening_columns = widening

        preserved = self._successful_multipitch_groups(planner, first)
        planner.cancel_all()

        flagged_cells = self._insert_feed_cells(
            shortfall, per_row_cost, widening, preserved, report
        )

        second_planner = FeedthroughPlanner(
            self.circuit,
            self.placement,
            strict_flags=True,
            requests=planner.requests,
        )
        self._apply_flags(second_planner, flagged_cells)
        second = second_planner.assign_all(ordered_nets)
        if not second.complete:
            missing = ", ".join(
                f"{f.net.name}@row{f.row}(w={f.width})"
                for f in second.failures
            )
            raise FeedthroughError(
                "feed-cell insertion failed to guarantee assignment: "
                + missing
            )
        return second_planner, second, report

    # ------------------------------------------------------------------
    # Pass-1 accounting
    # ------------------------------------------------------------------
    @staticmethod
    def _shortfalls(
        failures: Sequence[SlotRequest],
    ) -> Dict[Tuple[int, int], int]:
        """``(row, width) -> F(w, r)``: unmet crossing demand."""
        counts: Dict[Tuple[int, int], int] = {}
        for failure in failures:
            key = (failure.row, failure.width)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _per_row_costs(
        self, shortfall: Dict[Tuple[int, int], int]
    ) -> Dict[int, int]:
        """``F(r) = Σ_w w·F(w, r)`` per row (0 for untouched rows)."""
        costs = {r: 0 for r in range(self.placement.n_rows)}
        for (row, width), count in shortfall.items():
            costs[row] += width * count
        return costs

    def _successful_multipitch_groups(
        self,
        planner: FeedthroughPlanner,
        assignment: FeedthroughAssignment,
    ) -> List[Tuple[int, List[str], int]]:
        """Corridors granted to multi-pitch nets/pairs in pass 1, as
        ``(row, [feed cell names], corridor width)`` — flag sources that
        survive the coordinate shift of insertion."""
        groups: List[Tuple[int, List[str], int]] = []
        feed_by_column: List[Dict[int, str]] = [
            {pc.x: pc.cell.name for pc in self.placement.feed_cells_in_row(r)}
            for r in range(self.placement.n_rows)
        ]
        seen_corridors: Set[Tuple[int, int]] = set()
        for net_name, by_row in assignment.slots.items():
            net = self.circuit.net(net_name)
            width = planner.corridor_width(net)
            if width < 2:
                continue
            if net.is_differential and net.diff_partner.name < net.name:
                continue  # corridor recorded under the lead net
            for row, slot in by_row.items():
                corridor_start = slot.x
                key = (row, corridor_start)
                if key in seen_corridors:
                    continue
                seen_corridors.add(key)
                names = []
                for column in range(corridor_start, corridor_start + width):
                    name = feed_by_column[row].get(column)
                    if name is None:
                        raise FeedthroughError(
                            f"slot column {column} in row {row} has no "
                            "feed cell"
                        )
                    names.append(name)
                groups.append((row, names, width))
        return groups

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert_feed_cells(
        self,
        shortfall: Dict[Tuple[int, int], int],
        per_row_cost: Dict[int, int],
        widening: int,
        preserved: List[Tuple[int, List[str], int]],
        report: InsertionReport,
    ) -> List[Tuple[int, List[str], int]]:
        """Insert the Section 4.3 feed cells row by row.

        Returns the full flag list: preserved pass-1 corridors plus the
        newly inserted multi-pitch groups.
        """
        flagged = list(preserved)
        feed_type = self.circuit.library.feed_cell.name
        wide_by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (row, width), count in sorted(shortfall.items()):
            if width >= 2:
                wide_by_row.setdefault(row, []).append((width, count))
        for row in range(self.placement.n_rows):
            blocks: List[Tuple[int, List[Cell]]] = []  # (width-flag, cells)
            for width, count in wide_by_row.get(row, ()):
                for _ in range(count):
                    blocks.append(
                        (width, self._new_feed_cells(width, feed_type))
                    )
            singles = (
                shortfall.get((row, 1), 0)
                + widening
                - per_row_cost[row]
            )
            for _ in range(singles):
                blocks.append((1, self._new_feed_cells(1, feed_type)))
            if not blocks:
                continue
            report.groups_per_row[row] = [
                (width, 1) for width, _ in blocks
            ]
            report.inserted_cells += sum(len(c) for _, c in blocks)
            protected = self._protected_index_ranges(row, preserved)
            self._insert_blocks(row, blocks, protected)
            for width, cells in blocks:
                if width >= 2:
                    flagged.append((row, [c.name for c in cells], width))
        return flagged

    def _new_feed_cells(self, count: int, feed_type: str) -> List[Cell]:
        """``count`` new cells of ``feed_type`` under the next free
        ``__feed_<n>`` names."""
        cells = []
        for _ in range(count):
            while True:
                name = f"__feed_{self._feed_counter}"
                self._feed_counter += 1
                if not self.circuit.has_cell(name):
                    break
            cells.append(self.circuit.add_cell(name, feed_type))
        return cells

    def _protected_index_ranges(
        self, row: int, preserved: List[Tuple[int, List[str], int]]
    ) -> List[Tuple[int, int]]:
        """List-index ranges inside which no insertion may happen (they
        would split a preserved adjacent corridor)."""
        index_of = {
            cell.name: i for i, cell in enumerate(self.placement.rows[row])
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
        blocks: List[Tuple[int, List[Cell]]],
        protected: List[Tuple[int, int]],
    ) -> None:
        """Insert cell blocks almost evenly spaced, avoiding protected
        corridor interiors.  Indices are computed against the pre-insertion
        list and applied right-to-left so earlier insertions don't shift
        later ones."""
        row_len = len(self.placement.rows[row])
        n_blocks = len(blocks)
        placements: List[Tuple[int, List[Cell]]] = []
        for i, (_, cells) in enumerate(blocks):
            # Always within [0, row_len]: (i + 1) / (n_blocks + 1) < 1.
            index = round((i + 1) * row_len / (n_blocks + 1))
            if protected:
                index = self._nearest_allowed_index(
                    index, row_len, protected
                )
            placements.append((index, cells))
        placements.sort(key=lambda p: p[0], reverse=True)
        self.placement.insert_cell_blocks(row, placements)

    @staticmethod
    def _nearest_allowed_index(
        ideal: int, row_len: int, protected: List[Tuple[int, int]]
    ) -> int:
        """Closest insertion index to ``ideal`` in ``[0, row_len]`` that is
        not strictly inside a protected corridor."""

        def allowed(index: int) -> bool:
            return all(
                not (lo < index <= hi) for lo, hi in protected
            )

        ideal = max(0, min(row_len, ideal))
        for delta in range(row_len + 1):
            for candidate in (ideal - delta, ideal + delta):
                if 0 <= candidate <= row_len and allowed(candidate):
                    return candidate
        raise FeedthroughError("no legal insertion index in row")

    # ------------------------------------------------------------------
    def _apply_flags(
        self,
        planner: FeedthroughPlanner,
        flagged: List[Tuple[int, List[str], int]],
    ) -> None:
        """Re-derive flag groups from feed-cell names after the refresh."""
        for row, names, width in flagged:
            columns = sorted(
                self.placement.placed(self.circuit.cell(name)).x
                for name in names
            )
            if columns != list(range(columns[0], columns[0] + width)):
                raise FeedthroughError(
                    f"flagged corridor in row {row} is no longer adjacent: "
                    f"{columns}"
                )
            planner.rows[row].flag_group(columns[0], width)
