"""Reference slot search, kept only to prove the production index
equivalent.

:class:`ReferenceRowSlots` is the per-row slot state the planner used to
keep: a numpy mirror of the single-pitch free set (unflagged and
unoccupied), which every mutator kept in lock-step and which a
single-pitch :meth:`~ReferenceRowSlots.find_group` masked and reduced
over the whole row.  Multi-pitch searches scan the flagged groups and
every column for free unflagged runs.

Production (:class:`repro.layout.feedthrough.RowSlots`) keeps the free
set as one sorted list and bisects it; it must return the same starts
and the same ``free_count`` after any sequence of mutations, which
``test_feedthrough_index.py`` checks on random rows and on routed
designs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import FeedthroughError
from repro.layout.feedthrough import FlaggedGroup


class ReferenceRowSlots:
    """Slot state of one row: existing columns, width flags, occupants."""

    def __init__(self, row: int, columns: Sequence[int]):
        self.row = row
        self.columns: List[int] = sorted(set(columns))
        self.flag: Dict[int, Optional[int]] = {c: None for c in self.columns}
        self.occupant: Dict[int, Optional[str]] = {
            c: None for c in self.columns
        }
        self.flagged_groups: List[FlaggedGroup] = []
        self._cols_arr = np.asarray(self.columns, dtype=np.int64)
        self._col_index: Dict[int, int] = {
            c: i for i, c in enumerate(self.columns)
        }
        self._free_unflagged = np.ones(len(self.columns), dtype=bool)
        self._net_columns: Dict[str, List[int]] = {}

    def add_column(self, column: int) -> None:
        if column in self.flag:
            raise FeedthroughError(
                f"row {self.row}: slot column {column} already exists"
            )
        self.columns.append(column)
        self.columns.sort()
        self.flag[column] = None
        self.occupant[column] = None
        self._cols_arr = np.asarray(self.columns, dtype=np.int64)
        self._col_index = {c: i for i, c in enumerate(self.columns)}
        self._free_unflagged = np.fromiter(
            (
                self.flag[c] is None and self.occupant[c] is None
                for c in self.columns
            ),
            dtype=bool,
            count=len(self.columns),
        )

    def flag_group(self, start: int, width: int) -> None:
        group = FlaggedGroup(start, width)
        for column in group.columns:
            if column not in self.flag:
                raise FeedthroughError(
                    f"row {self.row}: cannot flag missing slot {column}"
                )
            if self.flag[column] is not None:
                raise FeedthroughError(
                    f"row {self.row}: slot {column} already flagged"
                )
            self.flag[column] = width
            self._free_unflagged[self._col_index[column]] = False
        self.flagged_groups.append(group)
        self.flagged_groups.sort(key=lambda g: g.start)

    def free_count(self) -> int:
        return sum(1 for c in self.columns if self.occupant[c] is None)

    def find_group(
        self, x_target: int, width: int, strict_flags: bool
    ) -> Optional[int]:
        if width == 1:
            free = self._cols_arr[self._free_unflagged]
            if free.size == 0:
                return None
            d = np.abs((free + (width - 1) / 2.0) - x_target)
            return int(free[d == d.min()].min())
        candidates: List[int] = [
            g.start
            for g in self.flagged_groups
            if g.width == width and self._group_free(g)
        ]
        if not strict_flags:
            candidates.extend(self._unflagged_runs(width))
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda start: (
                abs(start + (width - 1) / 2.0 - x_target),
                start,
            ),
        )

    def _group_free(self, group: FlaggedGroup) -> bool:
        return all(self.occupant[c] is None for c in group.columns)

    def _unflagged_runs(self, width: int) -> List[int]:
        starts: List[int] = []
        run: List[int] = []
        for column in self.columns:
            usable = (
                self.flag[column] is None and self.occupant[column] is None
            )
            if not usable:
                run = []
                continue
            if run and column != run[-1] + 1:
                run = []
            run.append(column)
            if len(run) >= width:
                starts.append(run[-width])
        return starts

    def occupy(self, start: int, width: int, net) -> None:
        for column in range(start, start + width):
            if column not in self.occupant:
                raise FeedthroughError(
                    f"row {self.row}: no slot at column {column}"
                )
            if self.occupant[column] is not None:
                raise FeedthroughError(
                    f"row {self.row}: slot {column} already occupied by "
                    f"{self.occupant[column]}"
                )
            self.occupant[column] = net.name
            self._free_unflagged[self._col_index[column]] = False
            self._net_columns.setdefault(net.name, []).append(column)

    def release(self, net_name: str) -> None:
        for column in self._net_columns.pop(net_name, ()):
            if self.occupant[column] == net_name:
                self.occupant[column] = None
                if self.flag[column] is None:
                    self._free_unflagged[self._col_index[column]] = True

    def release_all(self) -> None:
        for column in self.occupant:
            self.occupant[column] = None
        self._net_columns.clear()
        for column, flag in self.flag.items():
            self._free_unflagged[self._col_index[column]] = flag is None
