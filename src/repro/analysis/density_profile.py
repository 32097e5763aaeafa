"""Fig. 4 chart data: density profiles and their derived parameters.

The paper's Fig. 4 plots ``d_M(c, x)`` and ``d_m(c, x)`` of one channel
and annotates ``C_M, NC_M, C_m, NC_m`` plus, for one edge, ``D_M, ND_M,
D_m, ND_m``.  :class:`DensityProfile` reproduces all of that from a live
:class:`~repro.core.density.DensityEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.density import ChannelStats, DensityEngine, EdgeDensityParams
from ..routegraph.graph import RouteEdge


@dataclass
class DensityProfile:
    """Profile of one channel, ready for plotting or tabulation."""

    channel: int
    d_max: np.ndarray
    d_min: np.ndarray
    stats: ChannelStats

    @property
    def columns(self) -> int:
        return len(self.d_max)

    def peak_columns(self) -> List[int]:
        """Columns where ``d_M`` reaches ``C_M`` (the NC_M set)."""
        return [
            x for x in range(self.columns)
            if int(self.d_max[x]) == self.stats.c_max
        ]

    def bridge_peak_columns(self) -> List[int]:
        """Columns where ``d_m`` reaches ``C_m`` (the NC_m set)."""
        return [
            x for x in range(self.columns)
            if int(self.d_min[x]) == self.stats.c_min
        ]

    def as_rows(self) -> List[Tuple[int, int, int]]:
        """``(x, d_M, d_m)`` rows — the Fig. 4 step chart."""
        return [
            (x, int(self.d_max[x]), int(self.d_min[x]))
            for x in range(self.columns)
        ]

    def ascii_chart(self, max_width: int = 72) -> str:
        """A terminal rendition of Fig. 4 (``#`` = d_m, ``.`` = d_M)."""
        columns = self.columns
        stride = max(1, columns // max_width)
        peak = max(1, self.stats.c_max)
        lines = []
        for level in range(peak, 0, -1):
            row = []
            for x in range(0, columns, stride):
                d_max = int(self.d_max[x])
                d_min = int(self.d_min[x])
                if d_min >= level:
                    row.append("#")
                elif d_max >= level:
                    row.append(".")
                else:
                    row.append(" ")
            lines.append("".join(row))
        lines.append("-" * min(max_width, (columns + stride - 1) // stride))
        return "\n".join(lines)


def profile_from_engine(
    engine: DensityEngine,
    channel: int,
    edge: Optional[RouteEdge] = None,
) -> Tuple[DensityProfile, Optional[EdgeDensityParams]]:
    """Extract a channel's profile (and, optionally, one edge's params)."""
    d_max, d_min = engine.profile(channel)
    profile = DensityProfile(
        channel=channel,
        d_max=d_max,
        d_min=d_min,
        stats=engine.channel_stats(channel),
    )
    params = engine.edge_params(edge.coverage) if edge is not None else None
    return profile, params
