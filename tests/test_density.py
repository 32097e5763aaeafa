"""Tests for repro.core.density, including a brute-force cross-check."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import standard_suite
from repro.bipolar.multipitch import density_weight
from repro.core.density import (
    DensityEngine,
    WindowIndex,
    coverage_columns,
    coverage_windows,
)
from repro.errors import RoutingError
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind, RouteEdge
from tests.test_routegraph_build import assigned_router


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
        assert coverage_columns(trunk(0, 0, 3, 7).coverage) == (3, 6)

    def test_trunk_single_span(self):
        assert coverage_columns(trunk(0, 0, 3, 4).coverage) == (3, 3)

    def test_branch_single_column(self):
        assert coverage_columns(branch(0, 0, 5).coverage) == (5, 5)


class TestEngine:
    def test_add_remove_round_trip(self):
        engine = DensityEngine(2, 10)
        edge = trunk(0, 0, 2, 6)
        engine.add_edge(edge.coverage)
        assert engine.density_at(0, 2) == (1, 0)
        assert engine.density_at(0, 5) == (1, 0)
        assert engine.density_at(0, 6) == (0, 0)
        engine.remove_edge(edge.coverage)
        assert engine.density_at(0, 2) == (0, 0)

    def test_branch_edges_do_not_count(self):
        engine = DensityEngine(2, 10)
        engine.add_edge(branch(0, 0, 3).coverage)
        assert engine.density_at(0, 3) == (0, 0)

    def test_weighted_multipitch(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 5).coverage, weight=3)
        assert engine.density_at(0, 2) == (3, 0)

    def test_bridge_maps(self):
        engine = DensityEngine(1, 10)
        edge = trunk(0, 0, 1, 4)
        engine.add_edge(edge.coverage)
        engine.add_bridge(edge.coverage)
        assert engine.density_at(0, 2) == (1, 1)
        engine.remove_bridge(edge.coverage)
        assert engine.density_at(0, 2) == (1, 0)

    def test_negative_density_raises(self):
        engine = DensityEngine(1, 10)
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(0, 0, 0, 3).coverage)

    def test_out_of_range_channel(self):
        engine = DensityEngine(1, 10)
        with pytest.raises(RoutingError):
            engine.add_edge(trunk(0, 5, 0, 3).coverage)

    def test_edge_beyond_width_raises(self):
        engine = DensityEngine(1, 5)
        with pytest.raises(RoutingError):
            engine.add_edge(trunk(0, 0, 0, 9).coverage)

    def test_edge_params_beyond_width_raises(self):
        """Regression: ``edge_params`` used to clamp an out-of-range
        coverage window silently (returning stats for the wrong columns)
        while ``_apply`` raised for the very same edge."""
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 4).coverage)
        with pytest.raises(RoutingError):
            engine.edge_params(trunk(1, 0, 0, 9).coverage)
        with pytest.raises(RoutingError):
            engine.edge_params(branch(2, 0, 7).coverage)

    def test_edge_params_in_range_still_works(self):
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 4).coverage)
        params = engine.edge_params(trunk(1, 0, 1, 3).coverage)
        assert params.d_max == 1

    def test_channel_stats(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 6).coverage)
        engine.add_edge(trunk(1, 0, 2, 4).coverage)
        stats = engine.channel_stats(0)
        assert stats.c_max == 2
        assert stats.nc_max == 2  # columns 2, 3
        assert stats.c_min == 0
        assert stats.nc_min == 10

    def test_edge_params(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 0, 6).coverage)
        engine.add_edge(trunk(1, 0, 2, 4).coverage)
        probe = trunk(2, 0, 3, 8)
        params = engine.edge_params(probe.coverage)
        assert params.d_max == 2      # column 3 under both
        assert params.nd_max == 1     # only column 3 is at C_M
        assert params.d_min == 0

    def test_listener_receives_changed_span(self):
        engine = DensityEngine(2, 10)
        calls = []
        engine.subscribe(lambda *span: calls.append(span))
        engine.add_edge(trunk(0, 0, 0, 3).coverage)
        engine.add_bridge(trunk(1, 1, 4, 9).coverage)
        engine.add_edge(trunk(2, 1, 6, 6).coverage)
        engine.add_edge(branch(3, 0, 5).coverage)
        # (channel, lo, hi) of each update's inclusive coverage; a
        # zero-span trunk covers its one column, a branch changes none.
        assert calls == [(0, 0, 2), (1, 4, 8), (1, 6, 6)]

    def test_total_peak_and_max_channel(self):
        engine = DensityEngine(3, 10)
        engine.add_edge(trunk(0, 0, 0, 3).coverage)
        engine.add_edge(trunk(1, 2, 0, 3).coverage)
        engine.add_edge(trunk(2, 2, 1, 5).coverage)
        assert engine.total_peak() == 1 + 0 + 2
        assert engine.max_channel() == 2

    def test_profile_returns_copies(self):
        engine = DensityEngine(1, 5)
        engine.add_edge(trunk(0, 0, 0, 3).coverage)
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
        engine.add_edge(edge.coverage, weight)
        reference[channel, lo:hi] += weight
        live.append((edge, weight))
    # Remove a random subset.
    n_remove = data.draw(st.integers(0, len(live)))
    for edge, weight in live[:n_remove]:
        engine.remove_edge(edge.coverage, weight)
        lo, hi = coverage_columns(edge.coverage)
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
        engine.add_edge(trunk(0, 0, 2, 6).coverage)
        return engine

    def test_failed_remove_leaves_profile_untouched(self):
        engine = self._engine_with_edge()
        before_max = engine.profile(0)[0].copy()
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8).coverage, weight=2)
        assert np.array_equal(engine.profile(0)[0], before_max)

    def test_failed_remove_leaves_updates_and_stats(self):
        engine = self._engine_with_edge()
        stats_before = engine.channel_stats(0)
        updates_before = engine.updates
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 1, 9).coverage)
        assert engine.updates == updates_before
        assert engine.channel_stats(0) == stats_before

    def test_failed_remove_notifies_no_listener(self):
        engine = self._engine_with_edge()
        calls = []
        engine.subscribe(lambda *span: calls.append(span))
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8).coverage, weight=2)
        assert calls == []

    def test_partial_overlap_failure_is_atomic(self):
        # Window [0, 8) overlaps the occupied [2, 6): columns 0..1 are
        # empty so the removal is illegal, and the occupied columns must
        # NOT have been decremented on the way to discovering that.
        engine = self._engine_with_edge()
        with pytest.raises(RoutingError):
            engine.remove_edge(trunk(1, 0, 0, 8).coverage)
        assert engine.density_at(0, 3) == (1, 0)


class TestZeroSpanTrunk:
    """Zero-span trunks (interval lo == hi) count once, in column lo."""

    def test_coverage_clamps_to_single_column(self):
        assert coverage_columns(trunk(0, 0, 4, 4).coverage) == (4, 4)

    def test_density_counts_single_column(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 4, 4).coverage)
        assert engine.density_at(0, 4) == (1, 0)
        assert engine.density_at(0, 3) == (0, 0)
        assert engine.density_at(0, 5) == (0, 0)

    def test_params_match_single_column_branch_shape(self):
        engine = DensityEngine(1, 10)
        engine.add_edge(trunk(0, 0, 4, 4).coverage)
        params = engine.edge_params(trunk(1, 0, 4, 4).coverage)
        assert (params.d_max, params.d_min) == (1, 0)


def window_params_match_scalar(engine, channels, lo, hi):
    """Check a WindowIndex over the rows ``(channels, lo, hi)`` (sorted
    by channel, inclusive windows) against ``edge_params`` row by row;
    return the number of rows checked."""
    index = WindowIndex(channels, lo, hi)
    assert index.channels() == sorted(set(channels))
    checked = 0
    for channel in index.channels():
        a, b = index.rows(channel)
        assert all(c == channel for c in channels[a:b])
        d_max, d_min, nd_max, nd_min = index.params(engine, channel)
        for i, row in enumerate(range(a, b)):
            scalar = engine.edge_params(
                trunk(99, channel, lo[row], hi[row] + 1).coverage
            )
            assert (d_max[i], d_min[i], nd_max[i], nd_min[i]) == (
                scalar.d_max, scalar.d_min, scalar.nd_max, scalar.nd_min
            )
            checked += 1
    return checked


class TestWindowIndex:
    def _random_engine(self, rng, n_channels=2, width=24):
        engine = DensityEngine(n_channels, width)
        for i in range(rng.randrange(1, 12)):
            channel = rng.randrange(n_channels)
            lo = rng.randrange(width - 1)
            hi = rng.randrange(lo + 1, width)
            engine.add_edge(trunk(i, channel, lo, hi).coverage)
            if rng.random() < 0.5:
                engine.add_bridge(trunk(i, channel, lo, hi).coverage)
        return engine

    def test_empty_index(self):
        index = WindowIndex([], [], [])
        assert index.channels() == []
        assert len(index) == 0

    def test_rows_must_be_sorted_by_channel(self):
        with pytest.raises(ValueError, match="sorted by channel"):
            WindowIndex([1, 0], [0, 0], [1, 1])

    def test_matches_scalar_on_random_profiles(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(20):
            engine = self._random_engine(rng, n_channels=3)
            width = engine.width_columns
            rows = []
            for _ in range(rng.randrange(1, 10)):
                lo = rng.randrange(width)
                hi = rng.randrange(lo, width)
                rows.append((rng.randrange(engine.n_channels), lo, hi))
            rows.sort(key=lambda row: row[0])
            channels, lo, hi = (list(column) for column in zip(*rows))
            checked += window_params_match_scalar(engine, channels, lo, hi)
        assert checked > 20

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_property(self, data):
        width = 16
        engine = DensityEngine(2, width)
        spans = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 1),
                    st.integers(0, width - 2),
                    st.integers(1, 6),
                    st.booleans(),
                ),
                max_size=8,
            )
        )
        for i, (channel, lo, span, bridge) in enumerate(spans):
            coverage = trunk(i, channel, lo, min(width, lo + span)).coverage
            engine.add_edge(coverage)
            if bridge:
                engine.add_bridge(coverage)
        rows = sorted(
            data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 1),
                        st.integers(0, width - 1),
                        st.integers(0, 5),
                    ),
                    min_size=1,
                    max_size=8,
                )
            ),
            key=lambda row: row[0],
        )
        channels = [channel for channel, _, _ in rows]
        lo = [x for _, x, _ in rows]
        hi = [min(width - 1, x + span) for _, x, span in rows]
        assert window_params_match_scalar(engine, channels, lo, hi) == len(
            rows
        )

    def test_coverage_windows_match_coverage_columns(self):
        rng = random.Random(3)
        edges = [trunk(0, 0, 4, 4), branch(1, 0, 7)]
        for i in range(2, 40):
            if rng.random() < 0.7:
                edges.append(trunk(i, 0, *sorted(rng.sample(range(30), 2))))
            else:
                edges.append(branch(i, 0, rng.randrange(30)))
        coverages = [edge.coverage for edge in edges]
        lo, hi = coverage_windows(
            [c[0] is EdgeKind.TRUNK for c in coverages],
            [c[2] for c in coverages],
            [c[3] for c in coverages],
        )
        assert list(zip(lo.tolist(), hi.tolist())) == [
            coverage_columns(c) for c in coverages
        ]

    def test_meets_counts_any_span(self):
        index = WindowIndex([0, 0, 0, 1], [0, 4, 9, 0], [2, 6, 9, 9])
        assert index.meets(0, [(3, 3)]).tolist() == [False, False, False]
        assert index.meets(0, [(2, 4)]).tolist() == [True, True, False]
        assert index.meets(0, [(7, 8), (9, 12)]).tolist() == [
            False, False, True,
        ]
        assert index.meets(1, [(5, 5)]).tolist() == [True]


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
        engine.add_edge(trunk(0, 0, 57, 58).coverage)
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


# ----------------------------------------------------------------------
# Bulk registration (router setup) ≡ per-edge add_edge/add_bridge
# ----------------------------------------------------------------------
def per_edge(engine, entries):
    for edge, weight, essential in entries:
        engine.add_edge(edge.coverage, weight)
        if essential:
            engine.add_bridge(edge.coverage, weight)


def engine_state(engine):
    return (
        [a.tolist() for a in engine.d_max],
        [a.tolist() for a in engine.d_min],
        engine.updates,
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["trunk", "branch"]),
            st.integers(0, 2),      # channel
            st.integers(0, 18),     # lo
            st.integers(0, 10),     # span (0: zero-span trunk)
            st.integers(0, 3),      # weight (0: no update)
            st.booleans(),          # essential
        ),
        max_size=25,
    )
)
@settings(max_examples=80, deadline=None)
def test_add_bulk_matches_per_edge(spec):
    width = 30
    entries = []
    for i, (kind, channel, lo, span, weight, essential) in enumerate(spec):
        hi = min(width - 1, lo + span)
        edge = (
            trunk(i, channel, lo, hi) if kind == "trunk"
            else branch(i, channel, lo)
        )
        entries.append((edge, weight, essential))
    bulk, single = DensityEngine(3, width), DensityEngine(3, width)
    # A profile that already holds something, as after a rip-up.
    for engine in (bulk, single):
        engine.add_edge(trunk(99, 1, 4, 9).coverage, 2)
        engine.channel_stats(1)
    bulk.add_bulk([(edge.coverage, w, e) for edge, w, e in entries])
    per_edge(single, entries)
    assert engine_state(bulk) == engine_state(single)
    for channel in range(3):
        assert bulk.channel_stats(channel) == single.channel_stats(channel)


class TestAddBulk:
    def test_refuses_while_listeners_subscribe(self):
        engine = DensityEngine(1, 12)
        engine.subscribe(lambda *span: None)
        with pytest.raises(RoutingError, match="before any listener"):
            engine.add_bulk([(trunk(0, 0, 3, 6).coverage, 1, True)])
        assert engine_state(engine) == ([[0] * 12], [[0] * 12], 0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (trunk(7, 5, 1, 3), "channel 5 out of range"),
            (trunk(7, 0, 6, 14), "beyond chip width 10"),
        ],
    )
    def test_out_of_range_trunk_changes_nothing(self, bad, message):
        engine = DensityEngine(2, 10)
        engine.add_edge(trunk(0, 0, 2, 6).coverage)
        engine.channel_stats(0)
        before = engine_state(engine)
        stats = dict(engine._stats_cache)
        with pytest.raises(RoutingError, match=message) as bulk_error:
            engine.add_bulk([
                (trunk(1, 0, 0, 4).coverage, 1, True),
                (bad.coverage, 1, True),
            ])
        assert engine_state(engine) == before
        assert engine._stats_cache == stats
        # The same error the per-edge path raises for that edge.
        with pytest.raises(RoutingError) as single_error:
            DensityEngine(2, 10).add_edge(bad.coverage)
        assert str(bulk_error.value) == str(single_error.value)


@pytest.mark.parametrize(
    "design", [spec.name for spec in standard_suite()] + ["CGP1"]
)
def test_setup_registration_matches_per_edge(design):
    """The router's one bulk call at setup leaves the same ``d_M``,
    ``d_m`` and ``updates`` as registering every net edge by edge."""
    router = assigned_router(design)
    router._build_routing_graphs()
    router._init_density_and_trees()
    single = DensityEngine(
        router.placement.n_channels, max(1, router.placement.width_columns)
    )
    for state in router.states.values():
        weight = density_weight(state.net)
        per_edge(
            single,
            [
                (edge, weight, state.graph.essential[edge.index])
                for edge in state.graph.alive_edges()
            ],
        )
    assert single.updates > 0
    assert engine_state(router.engine) == engine_state(single)
