"""Tests for repro.core.density, including a brute-force cross-check."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.density import DensityEngine, coverage_columns
from repro.errors import RoutingError
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind, RouteEdge


def trunk(index, channel, lo, hi):
    return RouteEdge(
        index, EdgeKind.TRUNK, 0, 1, channel, Interval(lo, hi),
        float(hi - lo) * 4.0,
    )


def branch(index, channel, x):
    return RouteEdge(
        index, EdgeKind.BRANCH, 0, 1, channel, Interval(x, x), 64.0
    )


class TestCoverage:
    def test_trunk_half_open(self):
        assert coverage_columns(trunk(0, 0, 3, 7)) == (3, 6)

    def test_trunk_single_span(self):
        assert coverage_columns(trunk(0, 0, 3, 4)) == (3, 3)

    def test_branch_single_column(self):
        assert coverage_columns(branch(0, 0, 5)) == (5, 5)


class TestEngine:
    def test_add_remove_round_trip(self):
        engine = DensityEngine(2, 10)
        edge = trunk(0, 0, 2, 6)
        engine.add_edge(edge)
        assert engine.density_at(0, 2) == (1, 0)
        assert engine.density_at(0, 5) == (1, 0)
        assert engine.density_at(0, 6) == (0, 0)
        engine.remove_edge(edge)
        assert engine.density_at(0, 2) == (0, 0)

    def test_branch_edges_do_not_count(self):
        engine = DensityEngine(2, 10)
        engine.add_edge(branch(0, 0, 3))
        assert engine.density_at(0, 3) == (0, 0)

    def test_weighted_multipitch(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 5), weight=3)
        assert engine.density_at(0, 2) == (3, 0)

    def test_bridge_maps(self):
        engine = DensityEngine(1, 10)
        edge = trunk(0, 0, 1, 4)
        engine.add_edge(edge)
        engine.add_bridge(edge)
        assert engine.density_at(0, 2) == (1, 1)
        engine.remove_bridge(edge)
        assert engine.density_at(0, 2) == (1, 0)

    def test_negative_density_raises(self):
        engine = DensityEngine(1, 10)
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(0, 0, 0, 3))

    def test_out_of_range_channel(self):
        engine = DensityEngine(1, 10)
        with pytest.raises(RoutingError):
            engine.add_edge(trunk(0, 5, 0, 3))

    def test_edge_beyond_width_raises(self):
        engine = DensityEngine(1, 5)
        with pytest.raises(RoutingError):
            engine.add_edge(trunk(0, 0, 0, 9))

    def test_edge_params_beyond_width_raises(self):
        """Regression: ``edge_params`` used to clamp an out-of-range
        coverage window silently (returning stats for the wrong columns)
        while ``_apply`` raised for the very same edge."""
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 4))
        with pytest.raises(RoutingError):
            engine.edge_params(trunk(1, 0, 0, 9))
        with pytest.raises(RoutingError):
            engine.edge_params(branch(2, 0, 7))

    def test_edge_params_in_range_still_works(self):
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 4))
        params = engine.edge_params(trunk(1, 0, 1, 3))
        assert params.d_max == 1

    def test_channel_stats(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 6))
        engine.add_edge(trunk(1, 0, 2, 4))
        stats = engine.channel_stats(0)
        assert stats.c_max == 2
        assert stats.nc_max == 2  # columns 2, 3
        assert stats.c_min == 0
        assert stats.nc_min == 10

    def test_edge_params(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 6))
        engine.add_edge(trunk(1, 0, 2, 4))
        probe = trunk(2, 0, 3, 8)
        params = engine.edge_params(probe)
        assert params.d_max == 2      # column 3 under both
        assert params.nd_max == 1     # only column 3 is at C_M
        assert params.d_min == 0

    def test_listener_receives_changed_span(self):
        engine = DensityEngine(2, 10)
        calls = []
        engine.subscribe(lambda *span: calls.append(span))
        engine.add_edge(trunk(0, 0, 0, 3))
        engine.add_bridge(trunk(1, 1, 4, 9))
        engine.add_edge(trunk(2, 1, 6, 6))
        engine.add_edge(branch(3, 0, 5))
        # (channel, lo, hi) of each update's inclusive coverage; a
        # zero-span trunk covers its one column, a branch changes none.
        assert calls == [(0, 0, 2), (1, 4, 8), (1, 6, 6)]

    def test_total_peak_and_max_channel(self):
        engine = DensityEngine(3, 10)
        engine.add_edge(trunk(0, 0, 0, 3))
        engine.add_edge(trunk(1, 2, 0, 3))
        engine.add_edge(trunk(2, 2, 1, 5))
        assert engine.total_peak() == 1 + 0 + 2
        assert engine.max_channel() == 2

    def test_profile_returns_copies(self):
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 3))
        d_max, d_min = engine.profile(0)
        d_max[0] = 99
        assert engine.density_at(0, 0) == (1, 0)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),      # channel
            st.integers(0, 18),     # lo
            st.integers(1, 10),     # span
            st.integers(1, 3),      # weight
        ),
        min_size=1,
        max_size=25,
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_brute_force(edges_spec, data):
    """Property: after arbitrary adds/removes the engine equals a naive
    recount."""
    width = 30
    engine = DensityEngine(3, width)
    live = []
    reference = np.zeros((3, width), dtype=int)
    edges = []
    for i, (channel, lo, span, weight) in enumerate(edges_spec):
        hi = min(width - 1, lo + span)
        if hi <= lo:
            continue
        edge = trunk(i, channel, lo, hi)
        edges.append((edge, weight))
        engine.add_edge(edge, weight)
        reference[channel, lo:hi] += weight
        live.append((edge, weight))
    # Remove a random subset.
    n_remove = data.draw(st.integers(0, len(live)))
    for edge, weight in live[:n_remove]:
        engine.remove_edge(edge, weight)
        lo, hi = coverage_columns(edge)
        reference[edge.channel, lo : hi + 1] -= weight
    for channel in range(3):
        for column in range(width):
            assert engine.density_at(channel, column)[0] == reference[
                channel, column
            ]
        stats = engine.channel_stats(channel)
        assert stats.c_max == reference[channel].max()
        assert stats.nc_max == int(
            (reference[channel] == reference[channel].max()).sum()
        )


class TestApplyValidation:
    """A failed update must leave the engine exactly as it found it."""

    def _engine_with_edge(self):
        engine = DensityEngine(2, 10)
        engine.add_edge(trunk(0, 0, 2, 6))
        return engine

    def test_failed_remove_leaves_profile_untouched(self):
        engine = self._engine_with_edge()
        before_max = engine.profile(0)[0].copy()
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8), weight=2)
        assert np.array_equal(engine.profile(0)[0], before_max)

    def test_failed_remove_leaves_updates_and_stats(self):
        engine = self._engine_with_edge()
        stats_before = engine.channel_stats(0)
        updates_before = engine.updates
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 1, 9))
        assert engine.updates == updates_before
        assert engine.channel_stats(0) == stats_before

    def test_failed_remove_notifies_no_listener(self):
        engine = self._engine_with_edge()
        calls = []
        engine.subscribe(lambda *span: calls.append(span))
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8), weight=2)
        assert calls == []

    def test_partial_overlap_failure_is_atomic(self):
        # Window [0, 8) overlaps the occupied [2, 6): columns 0..1 are
        # empty so the removal is illegal, and the occupied columns must
        # NOT have been decremented on the way to discovering that.
        engine = self._engine_with_edge()
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8))
        assert engine.density_at(0, 3) == (1, 0)


class TestZeroSpanTrunk:
    """Zero-span trunks (interval lo == hi) count once, in column lo."""

    def test_coverage_clamps_to_single_column(self):
        assert coverage_columns(trunk(0, 0, 4, 4)) == (4, 4)

    def test_density_counts_single_column(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 4, 4))
        assert engine.density_at(0, 4) == (1, 0)
        assert engine.density_at(0, 3) == (0, 0)
        assert engine.density_at(0, 5) == (0, 0)

    def test_params_match_single_column_branch_shape(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 4, 4))
        params = engine.edge_params(trunk(1, 0, 4, 4))
        assert (params.d_max, params.d_min) == (1, 0)


class TestEdgeParamsBatch:
    def _random_engine(self, rng, n_channels=2, width=24):
        engine = DensityEngine(n_channels, width)
        for i in range(rng.randrange(1, 12)):
            channel = rng.randrange(n_channels)
            lo = rng.randrange(width - 1)
            hi = rng.randrange(lo + 1, width)
            engine.add_edge(trunk(i, channel, lo, hi))
        return engine

    def test_empty_batch(self):
        engine = DensityEngine(1, 8)
        empty = np.empty(0, dtype=np.int64)
        for arr in engine.edge_params_batch(0, empty, empty):
            assert arr.shape == (0,)
            assert arr.dtype == np.int64

    def test_matches_scalar_on_random_profiles(self):
        rng = random.Random(7)
        for _ in range(20):
            engine = self._random_engine(rng)
            width = engine.width_columns
            windows = []
            for _ in range(rng.randrange(1, 10)):
                lo = rng.randrange(width)
                hi = rng.randrange(lo, width)
                windows.append((lo, hi))
            channel = rng.randrange(engine.n_channels)
            lo_arr = np.array([w[0] for w in windows], dtype=np.int64)
            hi_arr = np.array([w[1] for w in windows], dtype=np.int64)
            d_max, nd_max, d_min, nd_min = engine.edge_params_batch(
                channel, lo_arr, hi_arr
            )
            for i, (lo, hi) in enumerate(windows):
                scalar = engine.edge_params(
                    trunk(99, channel, lo, hi + 1)
                )
                assert d_max[i] == scalar.d_max
                assert nd_max[i] == scalar.nd_max
                assert d_min[i] == scalar.d_min
                assert nd_min[i] == scalar.nd_min

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_property(self, data):
        width = 16
        engine = DensityEngine(1, width)
        spans = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, width - 2), st.integers(1, 6),
                ),
                max_size=8,
            )
        )
        for i, (lo, span) in enumerate(spans):
            engine.add_edge(trunk(i, 0, lo, min(width, lo + span)))
        windows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, width - 1), st.integers(0, 5),
                ),
                min_size=1,
                max_size=8,
            )
        )
        lo_arr = np.array([w[0] for w in windows], dtype=np.int64)
        hi_arr = np.array(
            [min(width - 1, w[0] + w[1]) for w in windows],
            dtype=np.int64,
        )
        batch = engine.edge_params_batch(0, lo_arr, hi_arr)
        for i in range(len(windows)):
            scalar = engine.edge_params(
                trunk(99, 0, int(lo_arr[i]), int(hi_arr[i]) + 1)
            )
            assert batch[0][i] == scalar.d_max
            assert batch[1][i] == scalar.nd_max
            assert batch[2][i] == scalar.d_min
            assert batch[3][i] == scalar.nd_min


class TestDownsample:
    def test_passthrough_when_narrow(self):
        from repro.core.density import downsample_columns

        assert downsample_columns([3, 1, 2], 8) == [3, 1, 2]

    def test_windowed_max_preserves_peaks(self):
        from repro.core.density import downsample_columns

        values = [0] * 100
        values[57] = 9
        folded = downsample_columns(values, 10)
        assert len(folded) == 10
        assert max(folded) == 9
        assert folded[5] == 9  # stride 10 -> window [50, 60)

    def test_uneven_tail_window(self):
        from repro.core.density import downsample_columns

        # 7 values into max 3 -> stride 3: windows [0:3], [3:6], [6:7].
        assert downsample_columns([1, 2, 3, 4, 5, 6, 7], 3) == [3, 6, 7]

    def test_snapshot_caps_wide_chips(self):
        engine = DensityEngine(1, 100)
        engine.add_edge(trunk(0, 0, 57, 58))
        snap = engine.snapshot(max_columns=10)
        assert snap["column_stride"] == 10
        assert len(snap["channels"][0]["d_max"]) == 10
        assert max(snap["channels"][0]["d_max"]) == 1
        # Scalar stats stay exact even when strips are folded.
        assert snap["channels"][0]["c_max"] == 1

    def test_snapshot_full_resolution_below_cap(self):
        engine = DensityEngine(1, 100)
        snap = engine.snapshot(max_columns=512)
        assert snap["column_stride"] == 1
        assert len(snap["channels"][0]["d_max"]) == 100
