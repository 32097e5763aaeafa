"""Channel-density bookkeeping (Section 3.3, Fig. 4).

Two density profiles are maintained per channel, per grid column ``x``:

* ``d_M(c, x)`` — the number of *all* alive trunk edges running over ``x``
  (weighted by pitch width).  Its channel maximum ``C_M(c)`` is an upper
  bound on the channel's final density, and ``NC_M(c)`` — the number of
  columns at that maximum — measures how hard the maximum is to reduce.
* ``d_m(c, x)`` — the same count restricted to *bridge* (essential) trunk
  edges, i.e. wiring guaranteed to survive.  ``C_m(c)`` is a lower bound
  on the final density, and because an increase of ``C_m`` can never be
  recovered, keeping it low is the paper's strongest density criterion;
  ``NC_m(c)`` measures how close the channel is to such an increase.

Per candidate edge ``e`` (over the columns it covers) the analogous
``D_M, N D_M, D_m, N D_m`` are defined, feeding the five selection
conditions of Section 3.4.

Coverage convention: a trunk edge spanning columns ``[lo, hi]`` covers the
half-open column range ``lo .. hi-1`` — so two trunks of the same net
meeting at a branching point do not double-count the junction column.
**Zero-span trunks** (``lo == hi``) are the one deliberate exception:
a strictly half-open reading would make them cover *nothing*, so
:func:`coverage_columns` clamps them to cover their single column
``lo``.  The graph builder never emits zero-span trunks (two trunks
meeting at a point share one vertex instead), so the clamp only matters
for hand-built or synthetic graphs — and there it keeps every consumer
consistent: profile updates, per-edge parameter queries, and the
congested-net scan all go through :func:`coverage_columns`, so a
zero-span trunk is counted once, in one column, everywhere (the PR 3
``_congested_nets`` fix locked this in; ``tests/test_improve_internals``
asserts it).  Branch and correspondence edges never contribute to the
profiles (the paper counts trunk edges only), but when the selection
heuristics need density parameters *at* such an edge they are evaluated
over the single column the edge occupies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..routegraph.graph import EdgeKind, RouteEdge


@dataclass(frozen=True)
class ChannelStats:
    """``C_M, NC_M, C_m, NC_m`` of one channel."""

    c_max: int
    nc_max: int
    c_min: int
    nc_min: int


@dataclass(frozen=True)
class EdgeDensityParams:
    """``D_M, ND_M, D_m, ND_m`` of one edge, given its channel's stats."""

    d_max: int
    nd_max: int
    d_min: int
    nd_min: int


def coverage_columns(edge: RouteEdge) -> Tuple[int, int]:
    """Inclusive column range an edge covers for density purposes.

    Trunks use the half-open convention (``hi`` is exclusive); zero-span
    trunks are clamped to cover their single column ``lo`` — see the
    module docstring for why that is the chosen convention.
    """
    if edge.kind is EdgeKind.TRUNK:
        return edge.interval.lo, max(edge.interval.lo, edge.interval.hi - 1)
    return edge.interval.lo, edge.interval.lo


#: Column cap above which :meth:`DensityEngine.snapshot` downsamples the
#: per-column strips (the scalar channel stats stay exact).  512 keeps a
#: full-resolution payload for every hand-sized and standard-suite chip
#: while bounding trace size for the generated scale tier.
SNAPSHOT_MAX_COLUMNS = 512


def downsample_columns(
    values: Sequence[int], max_width: int
) -> List[int]:
    """Windowed-maximum downsample of a column profile to ``max_width``.

    The same reduction ``repro trace heatmap`` applies for display: each
    output cell is the max over a fixed-stride window, so channel peaks
    survive (density is a "worst column" measure — mean-pooling would
    hide exactly the columns the router cares about).
    """
    n = len(values)
    if max_width < 1 or n <= max_width:
        return [int(v) for v in values]
    stride = -(-n // max_width)
    return [
        int(max(values[i : i + stride])) for i in range(0, n, stride)
    ]


class DensityEngine:
    """Incremental ``d_M``/``d_m`` maps with change notification.

    Listeners registered through :meth:`subscribe` are called with
    ``(channel, lo, hi)`` — the inclusive column span whose profile just
    changed — after every update.  The incremental candidate engine uses
    the span to re-key only the candidates whose coverage window it
    overlaps, unless the channel's stats moved too.
    """

    def __init__(self, n_channels: int, width_columns: int):
        if n_channels < 1 or width_columns < 1:
            raise RoutingError("density engine needs >=1 channel and column")
        self.n_channels = n_channels
        self.width_columns = width_columns
        self.d_max = [
            np.zeros(width_columns, dtype=np.int32)
            for _ in range(n_channels)
        ]
        self.d_min = [
            np.zeros(width_columns, dtype=np.int32)
            for _ in range(n_channels)
        ]
        self._stats_cache: Dict[int, ChannelStats] = {}
        self._listeners: List[Callable[[int, int, int], None]] = []
        # Plain-int telemetry: profile updates vs. stats recomputes
        # without putting any instrument call on this hot path.  The
        # router copies these into its metrics registry at run end.
        self.updates = 0
        self.stats_recomputes = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_edge(self, edge: RouteEdge, weight: int = 1) -> None:
        """Count a newly alive trunk edge in ``d_M`` (no-op otherwise)."""
        self._apply(edge, weight, self.d_max)

    def remove_edge(self, edge: RouteEdge, weight: int = 1) -> None:
        """Remove a no-longer-alive trunk edge from ``d_M``."""
        self._apply(edge, -weight, self.d_max)

    def add_bridge(self, edge: RouteEdge, weight: int = 1) -> None:
        """Count a newly essential trunk edge in ``d_m``.

        Fed from ``DeletionResult.newly_essential`` after each deletion.
        Both reclassification paths (incremental bridge maintenance and
        the full-Tarjan reference) report the same *set* of newly
        essential edges, and ``_apply`` is a commutative per-column add,
        so the ``d_m`` profile is independent of reporting order.
        """
        self._apply(edge, weight, self.d_min)

    def remove_bridge(self, edge: RouteEdge, weight: int = 1) -> None:
        """Remove an essential trunk edge from ``d_m`` (rip-up only)."""
        self._apply(edge, -weight, self.d_min)

    def _apply(
        self, edge: RouteEdge, delta: int, maps: List[np.ndarray]
    ) -> None:
        if edge.kind is not EdgeKind.TRUNK or delta == 0:
            return
        channel = edge.channel
        self._check_channel(channel)
        lo, hi = self._checked_coverage(edge)
        window = maps[channel][lo : hi + 1]
        # Validate *before* mutating: the delta is uniform over the
        # window, so the post-update minimum is exactly
        # ``min(window) + delta`` — checking it first means a raised
        # RoutingError leaves the profile, update count, stats cache
        # and listeners all untouched (previously the array was already
        # corrupted when the error propagated).
        if delta < 0 and int(window.min()) + delta < 0:
            raise RoutingError(
                f"negative density in channel {channel} — unbalanced "
                "add/remove"
            )
        window += delta
        self.updates += 1
        self._stats_cache.pop(channel, None)
        if self._listeners:
            for listener in self._listeners:
                listener(channel, lo, hi)

    def _checked_coverage(self, edge: RouteEdge) -> Tuple[int, int]:
        """Coverage columns of ``edge``, bounds-checked against the chip.

        Both the profile updates and the per-edge parameter queries go
        through here, so an out-of-range edge fails identically on both
        paths instead of being counted by one and silently clamped by the
        other.
        """
        lo, hi = coverage_columns(edge)
        if lo < 0 or hi >= self.width_columns:
            raise RoutingError(
                f"{edge.kind.value} edge covers columns {lo}..{hi} beyond "
                f"chip width {self.width_columns}"
            )
        return lo, hi

    # ------------------------------------------------------------------
    # Change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[int, int, int], None]) -> None:
        """Call ``listener(channel, lo, hi)`` after every profile update,
        with the inclusive column span the update changed."""
        self._listeners.append(listener)

    def unsubscribe(
        self, listener: Callable[[int, int, int], None]
    ) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def channel_stats(self, channel: int) -> ChannelStats:
        """``C_M, NC_M, C_m, NC_m`` (cached until the channel changes)."""
        self._check_channel(channel)
        cached = self._stats_cache.get(channel)
        if cached is not None:
            return cached
        self.stats_recomputes += 1
        dM = self.d_max[channel]
        dm = self.d_min[channel]
        c_max = int(dM.max())
        nc_max = int((dM == c_max).sum())
        c_min = int(dm.max())
        nc_min = int((dm == c_min).sum())
        stats = ChannelStats(c_max, nc_max, c_min, nc_min)
        self._stats_cache[channel] = stats
        return stats

    def edge_params(self, edge: RouteEdge) -> EdgeDensityParams:
        """``D_M, ND_M, D_m, ND_m`` of an edge over its coverage.

        ``ND_M`` counts covered columns sitting at the channel's ``C_M``
        (and likewise ``ND_m`` at ``C_m``), matching Fig. 4.
        """
        channel = edge.channel
        self._check_channel(channel)
        stats = self.channel_stats(channel)
        lo, hi = self._checked_coverage(edge)
        window_max = self.d_max[channel][lo : hi + 1]
        window_min = self.d_min[channel][lo : hi + 1]
        return EdgeDensityParams(
            d_max=int(window_max.max()),
            nd_max=int((window_max == stats.c_max).sum()),
            d_min=int(window_min.max()),
            nd_min=int((window_min == stats.c_min).sum()),
        )

    def edge_params_batch(
        self,
        channel: int,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`edge_params` over many coverage windows.

        ``lo``/``hi`` are parallel int arrays of inclusive column ranges
        (already bounds-checked by the caller via coverage columns of
        alive edges).  Returns ``(d_max, nd_max, d_min, nd_min)`` int64
        arrays, elementwise identical to calling :meth:`edge_params` per
        edge: every reduction is an integer max/sum over the same
        columns, so there is no floating-point order sensitivity.

        The windows of one channel are flattened into a single index
        vector and reduced with ``np.maximum.reduceat``/``np.add.reduceat``
        — one pass over ``Σ window widths`` elements instead of ~2
        Python-level array ops per candidate.
        """
        self._check_channel(channel)
        stats = self.channel_stats(channel)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        n = lo.shape[0]
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        lens = hi - lo + 1
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        total = int(starts[-1] + lens[-1])
        # flat[k] = absolute column of the k-th flattened window element.
        flat = np.arange(total, dtype=np.int64)
        flat -= np.repeat(starts, lens)
        flat += np.repeat(lo, lens)
        dM = self.d_max[channel][flat]
        dm = self.d_min[channel][flat]
        d_max = np.maximum.reduceat(dM, starts).astype(np.int64)
        d_min = np.maximum.reduceat(dm, starts).astype(np.int64)
        nd_max = np.add.reduceat(
            (dM == stats.c_max).astype(np.int64), starts
        )
        nd_min = np.add.reduceat(
            (dm == stats.c_min).astype(np.int64), starts
        )
        return d_max, nd_max, d_min, nd_min

    def density_at(self, channel: int, column: int) -> Tuple[int, int]:
        """``(d_M, d_m)`` at one column."""
        self._check_channel(channel)
        if not (0 <= column < self.width_columns):
            raise RoutingError(f"column {column} out of range")
        return (
            int(self.d_max[channel][column]),
            int(self.d_min[channel][column]),
        )

    def total_peak(self) -> int:
        """``Σ_c C_M(c)`` — the router's running area estimate."""
        return sum(
            self.channel_stats(c).c_max for c in range(self.n_channels)
        )

    def max_channel(self) -> int:
        """The channel with the highest ``C_M`` (ties: lowest index)."""
        return max(
            range(self.n_channels),
            key=lambda c: (self.channel_stats(c).c_max, -c),
        )

    def profile(self, channel: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of ``(d_M, d_m)`` for one channel (Fig. 4 chart data)."""
        self._check_channel(channel)
        return self.d_max[channel].copy(), self.d_min[channel].copy()

    def snapshot(
        self, max_columns: int = SNAPSHOT_MAX_COLUMNS
    ) -> Dict[str, object]:
        """JSON-ready snapshot of every channel's profiles and stats.

        The payload of the ``density_snapshot`` trace events the router
        emits at phase boundaries (rendered by ``repro trace heatmap``).

        Chips wider than ``max_columns`` get their column lists
        downsampled by windowed maximum (the same reduction the heatmap
        renderer applies for display), so trace size stays linear in
        design count at the scale tier instead of ballooning with chip
        width.  The scalar ``c_max``/``nc_max``/``c_min``/``nc_min``
        fields are always exact — only the per-column strips lose
        resolution — and the emitted ``column_stride`` records the
        window width (1 = full resolution).
        """
        capped = self.width_columns > max_columns > 0
        channels = []
        for channel in range(self.n_channels):
            stats = self.channel_stats(channel)
            d_max: Sequence[int] = self.d_max[channel]
            d_min: Sequence[int] = self.d_min[channel]
            if capped:
                d_max = downsample_columns(d_max, max_columns)
                d_min = downsample_columns(d_min, max_columns)
            channels.append(
                {
                    "channel": channel,
                    "c_max": stats.c_max,
                    "nc_max": stats.nc_max,
                    "c_min": stats.c_min,
                    "nc_min": stats.nc_min,
                    "d_max": [int(v) for v in d_max],
                    "d_min": [int(v) for v in d_min],
                }
            )
        stride = (
            -(-self.width_columns // max_columns) if capped else 1
        )
        return {
            "width_columns": self.width_columns,
            "column_stride": stride,
            "channels": channels,
        }

    def _check_channel(self, channel: int) -> None:
        if not (0 <= channel < self.n_channels):
            raise RoutingError(f"channel {channel} out of range")

    def __repr__(self) -> str:
        return (
            f"DensityEngine({self.n_channels} channels × "
            f"{self.width_columns} columns, Σ C_M={self.total_peak()})"
        )
