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
   between existing cells" — every row grows by exactly ``F`` columns.
   A feed cell is a column of its row, so inserting one widens a feed
   run of the placement and shifts the logic cells to its right;
5. rerun the assignment with strict width flags.  Capacity now matches
   demand per (row, width), so the second pass always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import FeedthroughError
from ..netlist.circuit import Circuit, Net
from .feedthrough import (
    FeedthroughAssignment,
    FeedthroughPlanner,
    SlotRequest,
)
from .placement import Placement

Corridor = Tuple[int, int, int]
"""A run of adjacent feed columns flagged for one width: ``(row, first
column, width)``."""


@dataclass
class InsertionReport:
    """What feed-cell insertion did (all zero when pass 1 succeeded)."""

    first_pass_failures: int = 0
    widening_columns: int = 0
    inserted_cells: int = 0

    @property
    def insertion_ran(self) -> bool:
        return self.inserted_cells > 0


class FeedCellInserter:
    """Runs the two-pass assignment, widening the placement's feed runs
    as needed (the netlist is never edited)."""

    def __init__(self, circuit: Circuit, placement: Placement):
        self.circuit = circuit
        self.placement = placement

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

        flagged = self._insert_feed_cells(
            shortfall, per_row_cost, widening, preserved, report
        )

        second_planner = FeedthroughPlanner(
            self.circuit,
            self.placement,
            strict_flags=True,
            requests=planner.requests,
        )
        for row, start, width in flagged:
            second_planner.rows[row].flag_group(start, width)
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
    ) -> List[Corridor]:
        """Corridors granted to multi-pitch nets/pairs in pass 1 — flag
        sources whose columns insertion shifts but never splits."""
        groups: List[Corridor] = []
        seen_corridors = set()
        for net_name, by_row in assignment.slots.items():
            net = self.circuit.net(net_name)
            width = planner.corridor_width(net)
            if width < 2:
                continue
            if net.is_differential and net.diff_partner.name < net.name:
                continue  # corridor recorded under the lead net
            for row, slot in by_row.items():
                key = (row, slot.x)
                if key not in seen_corridors:
                    seen_corridors.add(key)
                    groups.append((row, slot.x, width))
        return groups

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert_feed_cells(
        self,
        shortfall: Dict[Tuple[int, int], int],
        per_row_cost: Dict[int, int],
        widening: int,
        preserved: List[Corridor],
        report: InsertionReport,
    ) -> List[Corridor]:
        """Widen each row's feed runs by the Section 4.3 feed cells.

        Returns the full flag list: preserved pass-1 corridors plus the
        newly inserted multi-pitch groups, at their final columns.
        """
        flagged = list(preserved)
        preserved_in_row: Dict[int, List[int]] = {}
        for k, (row, _, _) in enumerate(preserved):
            preserved_in_row.setdefault(row, []).append(k)
        wide_by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (row, width), count in sorted(shortfall.items()):
            if width >= 2:
                wide_by_row.setdefault(row, []).append((width, count))
        for row in range(self.placement.n_rows):
            blocks: List[int] = []  # block widths, each one flag group
            for width, count in wide_by_row.get(row, ()):
                blocks.extend([width] * count)
            singles = (
                shortfall.get((row, 1), 0)
                + widening
                - per_row_cost[row]
            )
            blocks.extend([1] * singles)
            if not blocks:
                continue
            report.inserted_cells += sum(blocks)
            kept = preserved_in_row.get(row, ())
            starts, shifted = self._insert_blocks(
                row, blocks, [flagged[k][1:] for k in kept]
            )
            for k, start in zip(kept, shifted):
                flagged[k] = (row, start, flagged[k][2])
            for width, start in zip(blocks, starts):
                if width >= 2:
                    flagged.append((row, start, width))
        return flagged

    def _insert_blocks(
        self,
        row: int,
        blocks: List[int],
        protected: List[Tuple[int, int]],
    ) -> Tuple[List[int], List[int]]:
        """Insert blocks of feed columns almost evenly spaced, avoiding
        the interiors of the ``(first column, width)`` corridors in
        ``protected``; returns each block's first column and each
        corridor's, after insertion.

        Positions are item indices of the row before insertion, each
        feed column one item: block ``i`` of ``n`` goes before item
        ``round((i + 1) × items / (n + 1))``, and blocks at one index
        stack with the later block leftmost.  An index falls into one
        gap of the row, so the row's runs grow in one pass.
        """
        cells = self.placement.rows[row]
        runs = np.array(self.placement.feed_runs(row), dtype=np.int64)
        # Per gap: its first item index and its first column.
        first_item = np.zeros(len(runs), dtype=np.int64)
        np.cumsum(runs[:-1] + 1, out=first_item[1:])
        first_column = np.zeros(len(runs), dtype=np.int64)
        first_column[1:] = [
            self.placement.location_of(cell)[1] + cell.width
            for cell in cells
        ]
        row_len = int(first_item[-1] + runs[-1])
        ranges = []
        for start, width in protected:
            gap = int(np.searchsorted(first_column, start, "right")) - 1
            lo = int(first_item[gap]) + start - int(first_column[gap])
            ranges.append((lo, lo + width - 1))
        n_blocks = len(blocks)
        # round() and rint both round half to even, on the same quotient.
        indices = np.rint(
            np.arange(1, n_blocks + 1) * row_len / (n_blocks + 1)
        ).astype(np.int64)
        if ranges:
            indices = np.array(
                [
                    self._nearest_allowed_index(index, row_len, ranges)
                    for index in indices.tolist()
                ],
                dtype=np.int64,
            )
        gaps = np.searchsorted(first_item, indices, "right") - 1
        widths = np.array(blocks, dtype=np.int64)
        # Left to right as they end up: by index, the later block first.
        order = np.lexsort((-np.arange(n_blocks), indices))
        placed = widths[order]
        starts = np.empty(n_blocks, dtype=np.int64)
        starts[order] = (
            first_column[gaps[order]]
            + indices[order]
            - first_item[gaps[order]]
            + np.cumsum(placed)
            - placed
        )
        shifted = [
            start + int(widths[indices <= lo].sum())
            for (start, _), (lo, _) in zip(protected, ranges)
        ]
        added = np.bincount(gaps, weights=widths, minlength=len(runs))
        self.placement.widen_feed_runs(
            row, [(gap, int(added[gap])) for gap in np.flatnonzero(added)]
        )
        return starts.tolist(), shifted

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
