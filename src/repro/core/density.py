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
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..routegraph.graph import Coverage, EdgeKind

_TRUNK = EdgeKind.TRUNK


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


def coverage_columns(coverage: Coverage) -> Tuple[int, int]:
    """Inclusive column range an edge covers for density purposes.

    ``coverage`` is the edge's ``(kind, channel, lo, hi)``
    (``RoutingGraph.coverage``, ``RouteEdge.coverage``).  Trunks use
    the half-open convention (``hi`` is exclusive); zero-span trunks
    are clamped to cover their single column ``lo`` — see the module
    docstring for why that is the chosen convention.
    """
    kind, _, lo, hi = coverage
    if kind is _TRUNK:
        return lo, max(lo, hi - 1)
    return lo, lo


def coverage_windows(
    trunk: Sequence[bool], lo: Sequence[int], hi: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`coverage_columns` of many edges at once.

    ``trunk`` flags the trunks among the edges and ``lo``/``hi`` are
    their coverages' bounds; returns the inclusive ``(lo, hi)`` column
    arrays, elementwise equal to :func:`coverage_columns`.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    return lo, np.where(trunk, np.maximum(lo, hi - 1), lo)


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

    Every update and query takes an edge's coverage ``(kind, channel,
    lo, hi)`` (:data:`~repro.routegraph.graph.Coverage`), never an edge
    object.  Listeners registered through :meth:`subscribe` are called
    with ``(channel, lo, hi)`` — the inclusive column span whose profile
    just changed — after every update.  The incremental candidate engine
    uses the span to tell which candidates' density columns moved: those
    whose coverage window it overlaps, or all of the channel's if its
    stats moved too.
    """

    def __init__(self, n_channels: int, width_columns: int):
        if n_channels < 1 or width_columns < 1:
            raise RoutingError("density engine needs >=1 channel and column")
        self.n_channels = n_channels
        self.width_columns = width_columns
        #: ``d_M`` and ``d_m``, one ``(channels, columns)`` array each:
        #: ``d_max[c]`` is a view of channel ``c``'s profile.
        self.d_max = np.zeros((n_channels, width_columns), dtype=np.int32)
        self.d_min = np.zeros((n_channels, width_columns), dtype=np.int32)
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
    def add_edge(self, coverage: Coverage, weight: int = 1) -> None:
        """Count a newly alive trunk edge in ``d_M`` (no-op otherwise)."""
        self._apply(coverage, weight, self.d_max)

    def remove_edge(self, coverage: Coverage, weight: int = 1) -> None:
        """Remove a no-longer-alive trunk edge from ``d_M``."""
        self._apply(coverage, -weight, self.d_max)

    def add_bridge(self, coverage: Coverage, weight: int = 1) -> None:
        """Count a newly essential trunk edge in ``d_m``.

        Fed from ``DeletionResult.newly_essential`` after each deletion.
        Both reclassification paths (incremental bridge maintenance and
        the full pass) report the same *set* of newly
        essential edges, and ``_apply`` is a commutative per-column add,
        so the ``d_m`` profile is independent of reporting order.
        """
        self._apply(coverage, weight, self.d_min)

    def remove_bridge(self, coverage: Coverage, weight: int = 1) -> None:
        """Remove an essential trunk edge from ``d_m`` (rip-up only)."""
        self._apply(coverage, -weight, self.d_min)

    def add_bulk(
        self, entries: Iterable[Tuple[Coverage, int, bool]]
    ) -> None:
        """Count many edges at once: the router's setup registration.

        Each ``(coverage, weight, essential)`` entry, with ``weight >= 0``,
        does what :meth:`add_edge` and, when ``essential``,
        :meth:`add_bridge` would do — same profiles, same ``updates``
        count, same bounds checks — but each profile takes one
        difference-array pass instead of one window add per edge.
        Every entry is checked before any profile changes, so an
        out-of-range trunk raises :class:`RoutingError` with the engine
        untouched.  It runs before anything subscribes: bulk updates
        notify no listener.
        """
        if self._listeners:
            raise RoutingError("add_bulk runs before any listener subscribes")
        trunks: List[Coverage] = []
        channels: List[int] = []
        los: List[int] = []
        his: List[int] = []
        weights: List[int] = []
        flags: List[bool] = []
        for coverage, weight, essential in entries:
            kind, channel, lo, hi = coverage
            if kind is _TRUNK and weight:
                trunks.append(coverage)
                channels.append(channel)
                los.append(lo)
                his.append(max(lo, hi - 1))
                weights.append(weight)
                flags.append(essential)
        if not trunks:
            return
        channel, lo, hi, weight = (
            np.array(column, dtype=np.int64)
            for column in (channels, los, his, weights)
        )
        essential = np.array(flags, dtype=bool)
        bad = (
            (channel < 0)
            | (channel >= self.n_channels)
            | (lo < 0)
            | (hi >= self.width_columns)
        )
        if bad.any():
            # The first offending entry fails exactly as it would alone.
            coverage = trunks[int(bad.argmax())]
            self._check_channel(coverage[1])
            self._checked_coverage(coverage)
        stride = self.width_columns + 1
        starts = channel * stride + lo
        ends = channel * stride + hi + 1
        for maps, rows in (
            (self.d_max, slice(None)),
            (self.d_min, essential),
        ):
            diff = np.zeros(self.n_channels * stride, dtype=np.int64)
            np.add.at(diff, starts[rows], weight[rows])
            np.add.at(diff, ends[rows], -weight[rows])
            counts = np.cumsum(
                diff.reshape(self.n_channels, stride)[:, :-1], axis=1
            )
            maps += counts.astype(np.int32)
        self.updates += len(trunks) + int(np.count_nonzero(essential))
        for c in set(channels):
            self._stats_cache.pop(c, None)

    def _apply(
        self, coverage: Coverage, delta: int, maps: List[np.ndarray]
    ) -> None:
        if coverage[0] is not _TRUNK or delta == 0:
            return
        channel = coverage[1]
        self._check_channel(channel)
        lo, hi = self._checked_coverage(coverage)
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

    def _checked_coverage(self, coverage: Coverage) -> Tuple[int, int]:
        """Coverage columns of an edge, bounds-checked against the chip.

        Both the profile updates and the per-edge parameter queries go
        through here, so an out-of-range edge fails identically on both
        paths instead of being counted by one and silently clamped by the
        other.
        """
        lo, hi = coverage_columns(coverage)
        if lo < 0 or hi >= self.width_columns:
            raise RoutingError(
                f"{coverage[0].value} edge covers columns {lo}..{hi} beyond "
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
        nc_max = np.count_nonzero(dM == c_max)
        c_min = int(dm.max())
        nc_min = np.count_nonzero(dm == c_min)
        stats = ChannelStats(c_max, nc_max, c_min, nc_min)
        self._stats_cache[channel] = stats
        return stats

    def edge_params(self, coverage: Coverage) -> EdgeDensityParams:
        """``D_M, ND_M, D_m, ND_m`` of an edge over its coverage.

        ``ND_M`` counts covered columns sitting at the channel's ``C_M``
        (and likewise ``ND_m`` at ``C_m``), matching Fig. 4.
        """
        channel = coverage[1]
        self._check_channel(channel)
        stats = self.channel_stats(channel)
        lo, hi = self._checked_coverage(coverage)
        window_max = self.d_max[channel][lo : hi + 1]
        window_min = self.d_min[channel][lo : hi + 1]
        return EdgeDensityParams(
            d_max=int(window_max.max()),
            nd_max=int((window_max == stats.c_max).sum()),
            d_min=int(window_min.max()),
            nd_min=int((window_min == stats.c_min).sum()),
        )

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


class WindowIndex:
    """Coverage windows of many rows, flattened once per channel.

    Built from parallel ``channels``/``lo``/``hi`` sequences (inclusive
    column ranges, as :func:`coverage_columns` gives them) whose rows
    are sorted by channel, so each channel's rows are one contiguous
    range (:meth:`rows`).  Per channel it keeps every row's window as
    one flat array of absolute columns plus each row's segment start in
    it, so :meth:`params` reduces a whole channel with one gather per
    profile and four segment reductions, and nothing is re-derived per
    call.
    """

    __slots__ = ("_lo", "_hi", "_channels")

    def __init__(
        self,
        channels: Sequence[int],
        lo: Sequence[int],
        hi: Sequence[int],
    ):
        channels = np.asarray(channels, dtype=np.int64)
        self._lo = lo = np.asarray(lo, dtype=np.int64)
        self._hi = hi = np.asarray(hi, dtype=np.int64)
        if np.any(channels[1:] < channels[:-1]):
            raise ValueError("window rows must be sorted by channel")
        widths = hi - lo + 1
        ends = np.cumsum(widths)
        starts = ends - widths
        # flat[k] = absolute column of the k-th element of the windows
        # laid end to end.
        flat = np.arange(int(ends[-1]) if ends.size else 0)
        flat -= np.repeat(starts - lo, widths)
        firsts = [0] + (
            np.flatnonzero(channels[1:] != channels[:-1]) + 1
        ).tolist()
        lasts = firsts[1:] + [channels.size]
        self._channels: Dict[
            int, Tuple[int, int, np.ndarray, np.ndarray]
        ] = {}
        if channels.size:
            for channel, a, b in zip(
                channels[firsts].tolist(), firsts, lasts
            ):
                offset = int(starts[a])
                self._channels[channel] = (
                    a, b, flat[offset : ends[b - 1]], starts[a:b] - offset
                )

    def __len__(self) -> int:
        return len(self._channels)

    def channels(self) -> List[int]:
        """The channels that hold rows, ascending."""
        return list(self._channels)

    def rows(self, channel: int) -> Tuple[int, int]:
        """The ``(first, end)`` row range of ``channel``."""
        a, b, _, _ = self._channels[channel]
        return a, b

    def meets(
        self, channel: int, spans: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Which of ``channel``'s rows have a window that meets one of
        the inclusive column ``spans`` (at least one)."""
        a, b, _, _ = self._channels[channel]
        lo = self._lo[a:b]
        hi = self._hi[a:b]
        (span_lo, span_hi), *rest = spans
        hit = (lo <= span_hi) & (hi >= span_lo)
        for span_lo, span_hi in rest:
            hit |= (lo <= span_hi) & (hi >= span_lo)
        return hit

    def params(
        self, density: DensityEngine, channel: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(D_M, D_m, ND_M, ND_m)`` of ``channel``'s rows, as arrays
        elementwise equal to :meth:`DensityEngine.edge_params` over the
        same windows: every reduction is an integer max or count over
        the same columns."""
        _, _, columns, starts = self._channels[channel]
        stats = density.channel_stats(channel)
        d_max = density.d_max[channel][columns]
        d_min = density.d_min[channel][columns]
        return (
            np.maximum.reduceat(d_max, starts),
            np.maximum.reduceat(d_min, starts),
            np.add.reduceat(d_max == stats.c_max, starts, dtype=np.int64),
            np.add.reduceat(d_min == stats.c_min, starts, dtype=np.int64),
        )
