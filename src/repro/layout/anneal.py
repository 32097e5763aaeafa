"""Simulated-annealing placement improvement.

The paper's P1 placements came from designers; the BFS placer in
:mod:`repro.layout.placer` is a fast constructive stand-in.  This module
adds the classic refinement on top: Metropolis-accepted cell swaps under
a total-HPWL objective with geometric cooling.

Moves are restricted to the two kinds that leave every *other* cell's
coordinates untouched (see :meth:`Placement.swap_cells`):

* swapping two equal-width cells anywhere on the chip, and
* swapping two adjacent cells of one row.

Feed columns take part as width-1 items of their rows: an adjacent swap
with a feed column moves that column to the cell's other side
(:meth:`Placement.swap_with_feed`).  The annealer numbers every item —
logic cell or feed column — in row order and tracks where each one
sits, so the moves it draws, and the placement it returns, do not depend
on how the placement stores its feed columns.

That keeps a move's cost delta exact with only the nets incident to the
two moved cells re-measured, so the annealer scales to the benchmark
circuits in well under a second.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..netlist.circuit import Cell, Circuit, Net, Terminal
from ..tech import Technology
from .placement import Placement, RowItem


@dataclass(frozen=True)
class AnnealConfig:
    """Annealer knobs.

    ``moves_per_temperature`` and ``initial_temperature`` default to
    size-derived values (``8 × #cells`` moves; temperature set so an
    average uphill move starts ~80% acceptable).
    """

    seed: int = 0
    cooling: float = 0.92
    initial_temperature: Optional[float] = None
    final_temperature_um: float = 1.0
    moves_per_temperature: Optional[int] = None
    max_moves: int = 200_000

    def __post_init__(self) -> None:
        if not (0.0 < self.cooling < 1.0):
            raise ConfigError("cooling must be in (0, 1)")
        if self.final_temperature_um <= 0.0:
            raise ConfigError("final_temperature_um must be positive")
        if self.max_moves < 1:
            raise ConfigError("max_moves must be >= 1")


@dataclass
class AnnealResult:
    """What the annealer did."""

    initial_cost_um: float
    final_cost_um: float
    moves_tried: int
    moves_accepted: int

    @property
    def improvement_pct(self) -> float:
        if self.initial_cost_um == 0.0:
            return 0.0
        return 100.0 * (
            self.initial_cost_um - self.final_cost_um
        ) / self.initial_cost_um


class _Objective:
    """Total HPWL with per-net caching and incident-net indexing."""

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        technology: Technology,
    ):
        self.placement = placement
        self.technology = technology
        self.row_pitch = (
            technology.row_height_um + technology.channel_height_um(0)
        )
        self.nets: List[Net] = [
            net for net in circuit.routable_nets
        ]
        self.incident: Dict[str, List[int]] = {}
        for index, net in enumerate(self.nets):
            for pin in net.pins:
                if isinstance(pin, Terminal):
                    self.incident.setdefault(
                        pin.cell.name, []
                    ).append(index)
        self.cost_of: List[float] = [
            self._net_cost(net) for net in self.nets
        ]
        self.total = sum(self.cost_of)

    def _net_cost(self, net: Net) -> float:
        xs: List[float] = []
        ys: List[float] = []
        for pin in net.pins:
            if not isinstance(pin, Terminal) and pin.column is None:
                # Annealing usually runs before external-pin assignment;
                # unassigned pads simply don't constrain the bbox.
                continue
            column, row_like = self.placement.pin_position(pin)
            xs.append(self.technology.columns_to_um(column))
            ys.append(row_like * self.row_pitch)
        if not xs:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def nets_of(self, *cells: Optional[Cell]) -> List[int]:
        """Nets incident to the given cells (``None``, a feed column,
        has none)."""
        touched = set()
        for cell in cells:
            if cell is not None:
                touched.update(self.incident.get(cell.name, ()))
        return sorted(touched)

    def delta_for_update(self, net_indices: Sequence[int]) -> float:
        """Recompute the given nets; returns the cost delta (applied)."""
        delta = 0.0
        for index in net_indices:
            new_cost = self._net_cost(self.nets[index])
            delta += new_cost - self.cost_of[index]
            self.cost_of[index] = new_cost
        self.total += delta
        return delta

    def restore(self, net_indices: Sequence[int], old: List[float]) -> None:
        for index, cost in zip(net_indices, old):
            self.total += cost - self.cost_of[index]
            self.cost_of[index] = cost


class _Items:
    """The placement as items: every logic cell and feed column gets a
    number (``token``) in row order, and each row lists its tokens."""

    def __init__(self, placement: Placement):
        self.placement = placement
        self.cell_of: List[Optional[Cell]] = []
        self.rows: List[List[int]] = []
        self.where: List[Tuple[int, int]] = []
        for row in range(placement.n_rows):
            tokens: List[int] = []
            for item in placement.items(row):
                cells = [item] if isinstance(item, Cell) else [None] * item
                for cell in cells:
                    self.where.append((row, len(tokens)))
                    tokens.append(len(self.cell_of))
                    self.cell_of.append(cell)
            self.rows.append(tokens)
        self.width = [
            1 if cell is None else cell.width for cell in self.cell_of
        ]

    def swap(self, a: int, b: int) -> None:
        """Exchange two items: equal-width ones anywhere, others only
        when adjacent in one row."""
        row_a, index_a = self.where[a]
        row_b, index_b = self.where[b]
        self.rows[row_a][index_a] = b
        self.rows[row_b][index_b] = a
        self.where[a] = (row_b, index_b)
        self.where[b] = (row_a, index_a)
        cell_a, cell_b = self.cell_of[a], self.cell_of[b]
        if cell_a is not None and cell_b is not None:
            self.placement.swap_cells(cell_a, cell_b)
        elif cell_a is not None or cell_b is not None:
            cell = cell_a if cell_a is not None else cell_b
            if cell.width != 1:
                # Adjacent: the feed column is on the side the cell
                # moves to.
                self.placement.swap_with_feed(
                    cell, right=(index_b > index_a) == (cell is cell_a)
                )
            else:
                for row in {row_a, row_b}:
                    self.placement.set_row(row, self.items_of(self.rows[row]))

    def items_of(self, tokens: List[int]) -> List[RowItem]:
        """Placement items of a row's tokens."""
        cell_of = self.cell_of
        return [1 if cell_of[t] is None else cell_of[t] for t in tokens]


def anneal_placement(
    circuit: Circuit,
    placement: Placement,
    config: AnnealConfig = AnnealConfig(),
    technology: Technology = Technology(),
) -> AnnealResult:
    """Improve ``placement`` in place; returns the annealing statistics.

    External pins must not yet be assigned from this placement (or should
    be reassigned afterwards) since cell coordinates move.
    """
    rng = random.Random(config.seed)
    objective = _Objective(circuit, placement, technology)
    items = _Items(placement)
    movable = list(range(len(items.cell_of)))
    if len(movable) < 2:
        return AnnealResult(objective.total, objective.total, 0, 0)
    by_width: Dict[int, List[int]] = {}
    for token in movable:
        by_width.setdefault(items.width[token], []).append(token)

    initial_cost = objective.total
    temperature = config.initial_temperature or _auto_temperature(
        objective, items, movable, by_width, rng
    )
    moves_per_t = config.moves_per_temperature or max(
        32, 8 * len(movable)
    )
    # Fit the whole cooling ladder inside the move budget — quenching at
    # a high temperature would leave the walk stranded uphill.
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
    best_rows = [list(row) for row in items.rows]
    while temperature > config.final_temperature_um:
        for _ in range(moves_per_t):
            if tried >= config.max_moves:
                temperature = 0.0
                break
            tried += 1
            pair = _propose(items, movable, by_width, rng)
            if pair is None:
                continue
            a, b = pair
            touched = objective.nets_of(items.cell_of[a], items.cell_of[b])
            old_costs = [objective.cost_of[i] for i in touched]
            items.swap(a, b)
            delta = objective.delta_for_update(touched)
            if delta <= 0.0 or rng.random() < math.exp(
                -delta / temperature
            ):
                accepted += 1
                if objective.total < best_cost - 1e-9:
                    best_cost = objective.total
                    best_rows = [list(row) for row in items.rows]
                continue
            items.swap(a, b)  # undo
            objective.restore(touched, old_costs)
        temperature *= config.cooling
    # Land on the best configuration visited, not wherever the schedule
    # happened to stop.
    for row, tokens in enumerate(best_rows):
        placement.set_row(row, items.items_of(tokens))
    placement.refresh()
    return AnnealResult(initial_cost, best_cost, tried, accepted)


def _propose(
    items: _Items,
    movable: List[int],
    by_width: Dict[int, List[int]],
    rng: random.Random,
) -> Optional[Tuple[int, int]]:
    """Draw a legal move: equal-width swap or adjacent swap."""
    if rng.random() < 0.5:
        a = rng.choice(movable)
        peers = by_width[items.width[a]]
        if len(peers) < 2:
            return None
        b = rng.choice(peers)
        if b == a:
            return None
        return a, b
    a = rng.choice(movable)
    row, index = items.where[a]
    tokens = items.rows[row]
    if len(tokens) < 2:
        return None
    neighbour = index + 1 if index + 1 < len(tokens) else index - 1
    return a, tokens[neighbour]


def _auto_temperature(
    objective: _Objective,
    items: _Items,
    movable: List[int],
    by_width: Dict[int, List[int]],
    rng: random.Random,
    samples: int = 40,
) -> float:
    """Temperature making an average uphill move ~80% acceptable."""
    deltas: List[float] = []
    for _ in range(samples):
        pair = _propose(items, movable, by_width, rng)
        if pair is None:
            continue
        a, b = pair
        touched = objective.nets_of(items.cell_of[a], items.cell_of[b])
        old_costs = [objective.cost_of[i] for i in touched]
        items.swap(a, b)
        delta = objective.delta_for_update(touched)
        items.swap(a, b)
        objective.restore(touched, old_costs)
        if delta > 0.0:
            deltas.append(delta)
    if not deltas:
        return 100.0
    mean_uphill = sum(deltas) / len(deltas)
    return mean_uphill / -math.log(0.8)
