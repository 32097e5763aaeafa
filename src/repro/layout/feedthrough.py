"""Feedthrough slot management and assignment (Sections 3.1, 4.2, 4.3).

Bipolar standard cells have no feedthrough space, so the only legal row
crossings are (a) a net's own terminals — reachable from the channels both
above and below the row — and (b) *feed cells*, one column wide, each
donating one feedthrough slot.

The router's first stage assigns **one feedthrough position per net per
crossed row**, searching outward from the net's centre column, preferring
vertically aligned positions across consecutive rows, in ascending-slack
net order.  Width handling follows the paper:

* a ``w``-pitch net (Section 4.2) needs ``w`` horizontally adjacent slots;
* a differential pair (Section 4.1) is "assumed to be a 2-pitch net in the
  feedthrough assignment phase": the pair is granted one ``2w``-wide
  corridor, split between the two nets so they stay physically parallel;
* slots can carry a *width flag* (Section 4.3): once feed-cell insertion
  has run, a multi-pitch net may only use a whole group flagged with its
  width, and single-pitch nets may only use unflagged slots.  This strict
  regime is what makes the second assignment pass provably complete.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FeedthroughError
from ..netlist.circuit import Circuit, Net
from .placement import Placement


@dataclass(frozen=True)
class SlotRequest:
    """A (possibly paired) net's need for a ``width``-wide crossing of one
    row.  ``width`` already includes the pair doubling for differential
    nets."""

    net: Net
    row: int
    width: int


@dataclass(frozen=True)
class AssignedSlot:
    """A granted crossing for one net: columns ``[x, x+width)`` of ``row``.

    For a differential pair the corridor is split, so each net of the pair
    receives its own :class:`AssignedSlot` of the net's base width.
    """

    net: Net
    row: int
    x: int
    width: int

    @property
    def columns(self) -> Tuple[int, ...]:
        return tuple(range(self.x, self.x + self.width))


@dataclass(frozen=True)
class FlaggedGroup:
    """A reserved run of ``width`` adjacent slots for ``width``-pitch nets."""

    start: int
    width: int

    @property
    def columns(self) -> Tuple[int, ...]:
        return tuple(range(self.start, self.start + self.width))


class RowSlots:
    """Slot state of one row: existing columns, width flags, occupants."""

    def __init__(self, row: int, columns: Sequence[int]):
        self.row = row
        self.columns: List[int] = sorted(set(columns))
        self.flag: Dict[int, Optional[int]] = {c: None for c in self.columns}
        self.occupant: Dict[int, Optional[str]] = {
            c: None for c in self.columns
        }
        self.flagged_groups: List[FlaggedGroup] = []
        # The single-pitch free set (unflagged AND unoccupied columns),
        # ascending.  Every mutator keeps it in step, so a single-pitch
        # search bisects it instead of scanning the row.
        self._free: List[int] = list(self.columns)
        # net name -> columns it occupies here; lets release() touch
        # exactly the net's slots instead of scanning the whole row.
        self._net_columns: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    def add_column(self, column: int) -> None:
        """Register a new slot column (from an inserted feed cell)."""
        if column in self.flag:
            raise FeedthroughError(
                f"row {self.row}: slot column {column} already exists"
            )
        insort(self.columns, column)
        self.flag[column] = None
        self.occupant[column] = None
        insort(self._free, column)

    def flag_group(self, start: int, width: int) -> None:
        """Reserve columns ``[start, start+width)`` for width-pitch nets."""
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
            if self.occupant[column] is None:
                self._unfree(column)
        self.flagged_groups.append(group)
        self.flagged_groups.sort(key=lambda g: g.start)

    def free_count(self) -> int:
        return sum(1 for c in self.columns if self.occupant[c] is None)

    # ------------------------------------------------------------------
    def find_group(
        self, x_target: int, width: int, strict_flags: bool
    ) -> Optional[int]:
        """Nearest free ``width``-wide crossing to ``x_target``.

        Single-pitch requests always use unflagged free slots.  Multi-pitch
        requests use whole flagged groups of matching width; additionally,
        before insertion has run (``strict_flags=False``) they may take any
        run of ``width`` adjacent unflagged free slots.

        Returns the leftmost column of the chosen group, or ``None``;
        a tie in distance goes to the smaller column.
        """
        if width == 1:
            free = self._free
            i = bisect_left(free, x_target)
            if i == 0:
                return free[0] if free else None
            left = free[i - 1]
            if i == len(free):
                return left
            # free[i - 1] < x_target <= free[i]: only these two can be
            # nearest, and the right one must be strictly nearer to win.
            right = free[i]
            return right if right - x_target < x_target - left else left
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
        """Left columns of all free unflagged runs of the given width."""
        starts: List[int] = []
        run = previous = 0
        for column in self._free:
            run = run + 1 if column == previous + 1 else 1
            previous = column
            if run >= width:
                starts.append(column - width + 1)
        return starts

    def _unfree(self, column: int) -> None:
        """Drop a column from the single-pitch free set."""
        free = self._free
        del free[bisect_left(free, column)]

    # ------------------------------------------------------------------
    def occupy(self, start: int, width: int, net: Net) -> None:
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
            if self.flag[column] is None:
                self._unfree(column)
            self._net_columns.setdefault(net.name, []).append(column)

    def release(self, net_name: str) -> None:
        for column in self._net_columns.pop(net_name, ()):
            if self.occupant[column] == net_name:
                self.occupant[column] = None
                if self.flag[column] is None:
                    insort(self._free, column)

    def release_all(self) -> None:
        for column in self.occupant:
            self.occupant[column] = None
        self._net_columns.clear()
        self._free = [c for c in self.columns if self.flag[c] is None]

    def __repr__(self) -> str:
        return (
            f"RowSlots(row={self.row}, slots={len(self.columns)}, "
            f"free={self.free_count()})"
        )


@dataclass
class FeedthroughAssignment:
    """Assignment outcome: per net, per crossed row, the granted slot;
    plus the (pair-level) requests that could not be satisfied."""

    slots: Dict[str, Dict[int, AssignedSlot]] = field(default_factory=dict)
    failures: List[SlotRequest] = field(default_factory=list)

    def record(self, assigned: AssignedSlot) -> None:
        self.slots.setdefault(assigned.net.name, {})[assigned.row] = assigned

    def of_net(self, net: Net) -> Dict[int, AssignedSlot]:
        """``row -> AssignedSlot`` for one net (empty if none)."""
        return self.slots.get(net.name, {})

    def drop_net(self, net: Net) -> None:
        self.slots.pop(net.name, None)

    @property
    def complete(self) -> bool:
        return not self.failures


class FeedthroughPlanner:
    """Builds per-row slot state from a placement and runs assignment.

    ``requests`` is a net-name -> slot-request table to share with an
    earlier planner over the same rows: crossing rows depend only on
    which row each pin sits in, and feed-cell insertion moves columns,
    never rows, so both Section 4.3 passes and every reroute read one
    table.
    """

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        strict_flags: bool = False,
        requests: Optional[Dict[str, List[SlotRequest]]] = None,
    ):
        self.circuit = circuit
        self.placement = placement
        self.strict_flags = strict_flags
        self.rows: List[RowSlots] = self._build_rows()
        self.requests: Dict[str, List[SlotRequest]] = (
            {} if requests is None else requests
        )
        # net name -> centre column.  The rows above snapshot the
        # placement's columns, so a centre is read once per planner.
        self._centres: Dict[str, int] = {}

    def _build_rows(self) -> List[RowSlots]:
        return [
            RowSlots(r, self.placement.feed_columns(r))
            for r in range(self.placement.n_rows)
        ]

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def corridor_width(self, net: Net) -> int:
        """Total corridor width: base pitch width, doubled for the lead net
        of a differential pair (the pair shares one corridor)."""
        if net.is_differential:
            return 2 * net.width_pitches
        return net.width_pitches

    def requests_for(self, net: Net) -> List[SlotRequest]:
        """Pair-level slot requests for ``net`` (empty for the trailing
        net of a differential pair — the lead net requests for both).
        Derived once per net; the returned list is shared."""
        requests = self.requests.get(net.name)
        if requests is None:
            requests = self.requests[net.name] = self._derive_requests(net)
        return requests

    def _derive_requests(self, net: Net) -> List[SlotRequest]:
        if net.is_differential and not _is_pair_lead(net):
            return []
        width = self.corridor_width(net)
        rows = set(self.placement.net_feedthrough_rows(net))
        if net.is_differential:
            rows |= set(
                self.placement.net_feedthrough_rows(net.diff_partner)
            )
        return [SlotRequest(net, row, width) for row in sorted(rows)]

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def assign_net(
        self, net: Net, result: FeedthroughAssignment
    ) -> List[SlotRequest]:
        """Assign all crossings of one net (or pair); returns unmet
        requests.  Search starts at the net's centre column; consecutive
        rows prefer the previously chosen x so multi-row feedthroughs
        stack vertically."""
        failures: List[SlotRequest] = []
        requests = self.requests_for(net)
        if not requests:
            return failures
        target = self._centres.get(net.name)
        if target is None:
            target = self._centres[net.name] = (
                self.placement.net_center_column(net)
            )
        for request in requests:
            row_slots = self.rows[request.row]
            start = row_slots.find_group(
                target, request.width, self.strict_flags
            )
            if start is None:
                failures.append(request)
                continue
            row_slots.occupy(start, request.width, net)
            self._record_grant(net, request.row, start, result)
            target = start
        return failures

    def _record_grant(
        self, net: Net, row: int, start: int, result: FeedthroughAssignment
    ) -> None:
        base = net.width_pitches
        result.record(AssignedSlot(net, row, start, base))
        if net.is_differential:
            partner = net.diff_partner
            result.record(AssignedSlot(partner, row, start + base, base))

    def assign_all(
        self, ordered_nets: Sequence[Net]
    ) -> FeedthroughAssignment:
        """Assign every net in the given (ascending-slack) order."""
        result = FeedthroughAssignment()
        for net in ordered_nets:
            result.failures.extend(self.assign_net(net, result))
        return result

    def release_net(self, net: Net) -> None:
        """Free every slot held by ``net`` and its differential partner."""
        names = {net.name}
        if net.is_differential:
            names.add(net.diff_partner.name)
        for row_slots in self.rows:
            for name in names:
                row_slots.release(name)

    def cancel_all(self) -> None:
        """Release every assignment (Section 4.3 second-pass reset)."""
        for row_slots in self.rows:
            row_slots.release_all()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        total = sum(len(r.columns) for r in self.rows)
        free = sum(r.free_count() for r in self.rows)
        return f"FeedthroughPlanner({total} slots, {free} free)"


def _is_pair_lead(net: Net) -> bool:
    """The alphabetically-first net of a differential pair leads it."""
    return net.diff_partner is None or net.name < net.diff_partner.name
