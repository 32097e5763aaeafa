"""ASCII rendering of a routed chip — a debugging/teaching aid.

Draws rows (cells as ``#``, feed cells as ``:``) and channels (one line
per channel showing trunk occupancy: digits for the local density, with
``*`` marking columns above nine) so a routed placement can be inspected
in a terminal or a bug report.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.result import GlobalRoutingResult
from ..layout.placement import Placement
from ..routegraph.graph import EdgeKind


def render_placement(placement: Placement, max_width: int = 100) -> str:
    """Rows top-to-bottom; ``#`` logic cell, ``:`` feed cell, ``.`` gap."""
    width = max(1, placement.width_columns)
    stride = max(1, width // max_width)
    lines: List[str] = []
    for row_index in range(placement.n_rows - 1, -1, -1):
        cells = [None] * width
        for cell in placement.rows[row_index]:
            _, x = placement.location_of(cell)
            for column in range(x, min(width, x + cell.width)):
                cells[column] = "#"
        for column in placement.feed_columns(row_index):
            cells[column] = ":"
        compressed = "".join(
            cells[column] or "." for column in range(0, width, stride)
        )
        lines.append(f"row {row_index:>2} |{compressed}|")
    return "\n".join(lines)


def render_routed_chip(
    placement: Placement,
    result: GlobalRoutingResult,
    max_width: int = 100,
) -> str:
    """Interleave rows with channel-density strips (digits, ``*`` > 9)."""
    width = max(1, placement.width_columns)
    stride = max(1, width // max_width)
    occupancy: Dict[int, List[int]] = {
        channel: [0] * width for channel in range(placement.n_channels)
    }
    for route in result.routes.values():
        for edge in route.edges:
            if edge.kind is not EdgeKind.TRUNK:
                continue
            lo = edge.interval.lo
            hi = max(lo, edge.interval.hi - 1)
            for column in range(lo, min(width, hi + 1)):
                occupancy[edge.channel][column] += route.width_pitches

    placement_lines = render_placement(placement, max_width).splitlines()
    by_row = {
        int(line.split()[1]): line for line in placement_lines
    }
    # Physical stacking, top to bottom:
    #   channel R | row R-1 | channel R-1 | ... | row 0 | channel 0
    lines: List[str] = []
    for channel in range(placement.n_channels - 1, -1, -1):
        strip = "".join(
            _density_char(occupancy[channel][column])
            for column in range(0, width, stride)
        )
        lines.append(f"ch  {channel:>2} |{strip}|")
        row_index = channel - 1
        if 0 <= row_index < placement.n_rows:
            lines.append(by_row[row_index])
    return "\n".join(lines)


def _density_char(value: int) -> str:
    if value <= 0:
        return " "
    if value > 9:
        return "*"
    return str(value)
