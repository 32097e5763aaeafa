"""A simple connectivity-driven standard-cell placer.

The paper takes placements as *given* (its P1 placements came from
designers).  This placer exists so the reproduction can generate realistic
P1/P2 placements for the synthetic circuits:

* cells are linearized by a breadth-first traversal of the net adjacency
  (high-fanout nets skipped, so the clock does not glue everything
  together), which keeps connected cells near each other;
* the linear order is folded into rows boustrophedon ("snake") style, so
  neighbours in the order stay physically close across row boundaries;
* feed columns are added per row in one of the paper's two styles —
  ``EVEN`` (P1: evenly spaced, the intended usage) or ``ASIDE`` (P2: swept
  to the row end, the stress case the paper uses "to test the even spacing
  effect of feed-cell insertion"), as runs of the placement rows (feed
  cells are not netlist cells).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError, PlacementError
from ..netlist.circuit import Cell, Circuit, Terminal
from ..tech import Technology
from .placement import Placement, RowItem


class FeedStyle(enum.Enum):
    """Where the per-row feed cells go (the P1/P2 distinction)."""

    EVEN = "even"
    ASIDE = "aside"


@dataclass(frozen=True)
class PlacerConfig:
    """Placer knobs.

    Attributes:
        n_rows: number of cell rows; ``None`` picks a near-square chip.
        feed_fraction: feed cells per row, as a fraction of the row's cell
            count (rounded up).  0 disables feed cells entirely.
        feed_style: P1 (``EVEN``) or P2 (``ASIDE``).
        fanout_limit: nets with more sinks than this are ignored when
            building the adjacency used for linearization.
        aspect: scales the automatic row count; >1 produces a taller,
            narrower chip (more row crossings — the regime where
            feedthrough assignment matters most).
    """

    n_rows: Optional[int] = None
    feed_fraction: float = 0.18
    feed_style: FeedStyle = FeedStyle.EVEN
    fanout_limit: int = 8
    aspect: float = 1.0

    def __post_init__(self) -> None:
        if self.n_rows is not None and self.n_rows < 1:
            raise ConfigError("n_rows must be >= 1")
        if not (0.0 <= self.feed_fraction <= 2.0):
            raise ConfigError("feed_fraction must be in [0, 2]")
        if self.fanout_limit < 1:
            raise ConfigError("fanout_limit must be >= 1")
        if self.aspect <= 0.0:
            raise ConfigError("aspect must be positive")


def place_circuit(
    circuit: Circuit,
    config: PlacerConfig = PlacerConfig(),
    technology: Technology = Technology(),
) -> Placement:
    """Produce a row placement of ``circuit`` per ``config``."""
    cells = circuit.cells
    if not cells:
        raise PlacementError("circuit has no placeable cells")
    order = _connectivity_order(circuit, cells, config.fanout_limit)
    n_rows = config.n_rows or _auto_rows(order, technology, config.aspect)
    rows = _fold_into_rows(order, n_rows)
    placement = Placement(
        circuit, [_with_feed_runs(row, config) for row in rows]
    )
    placement.validate()
    return placement


# ----------------------------------------------------------------------
def _connectivity_order(
    circuit: Circuit, cells: Sequence[Cell], fanout_limit: int
) -> List[Cell]:
    """Linearize cells by BFS over net adjacency (deterministic)."""
    adjacency: Dict[str, List[str]] = {c.name: [] for c in cells}
    for net in circuit.nets:
        members = [p.cell.name for p in net.pins if isinstance(p, Terminal)]
        if len(members) < 2 or len(net.sinks) > fanout_limit:
            continue
        anchor = members[0]
        for other in members[1:]:
            if other != anchor:
                adjacency[anchor].append(other)
                adjacency[other].append(anchor)

    order: List[Cell] = []
    visited: Dict[str, bool] = {}
    by_name = {c.name: c for c in cells}
    for seed in sorted(by_name):
        if visited.get(seed):
            continue
        queue = [seed]
        visited[seed] = True
        while queue:
            name = queue.pop(0)
            order.append(by_name[name])
            for neighbour in adjacency[name]:
                if not visited.get(neighbour):
                    visited[neighbour] = True
                    queue.append(neighbour)
    return order


def _auto_rows(
    order: Sequence[Cell], technology: Technology, aspect: float = 1.0
) -> int:
    """Pick a row count giving a roughly square core (times ``aspect``)."""
    total_width_um = technology.columns_to_um(
        sum(cell.width for cell in order)
    )
    rows = round(
        aspect * math.sqrt(total_width_um / technology.row_height_um)
    )
    return max(1, rows)


def _fold_into_rows(order: Sequence[Cell], n_rows: int) -> List[List[Cell]]:
    """Split the linear order into width-balanced rows, snaking direction
    row by row so order-neighbours stay physically adjacent."""
    total_width = sum(cell.width for cell in order)
    target = total_width / n_rows
    rows: List[List[Cell]] = [[] for _ in range(n_rows)]
    row, used = 0, 0
    for cell in order:
        if row < n_rows - 1 and used >= target and rows[row]:
            row += 1
            used = 0
        rows[row].append(cell)
        used += cell.width
    for index in range(1, n_rows, 2):
        rows[index].reverse()
    return rows


def _with_feed_runs(row: List[Cell], config: PlacerConfig) -> List[RowItem]:
    """One row's items with its feed columns in the requested style:
    ``ceil(feed_fraction × cells)`` of them, after the last cell
    (``ASIDE``) or spread between the cells (``EVEN``)."""
    count = math.ceil(len(row) * config.feed_fraction)
    if count == 0:
        return list(row)
    if config.feed_style is FeedStyle.ASIDE:
        return list(row) + [count]
    # EVEN: the k-th of ``count`` columns goes before the cell at
    # ``round(k × len / (count + 1))``; several may share one gap.
    runs = [0] * (len(row) + 1)
    for k in range(1, count + 1):
        runs[round(k * len(row) / (count + 1))] += 1
    items: List[RowItem] = []
    for cell, run in zip(row, runs):
        items.extend((run, cell) if run else (cell,))
    if runs[-1]:
        items.append(runs[-1])
    return items
