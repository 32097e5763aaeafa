"""Tests for repro.analysis: density profiles (Fig. 4) and sign-off."""

import pytest

from conftest import route_chain
from repro import Technology
from repro.analysis import profile_from_engine, sign_off
from repro.channelrouter import route_channels
from repro.core.density import DensityEngine
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind, RouteEdge


def trunk(index, channel, lo, hi):
    return RouteEdge(
        index, EdgeKind.TRUNK, 0, 1, channel, Interval(lo, hi),
        float(hi - lo) * 4.0,
    )


class TestDensityProfile:
    def _engine(self):
        engine = DensityEngine(1, 12)
        e1 = trunk(0, 0, 0, 8)
        e2 = trunk(1, 0, 2, 6)
        e3 = trunk(2, 0, 3, 5)
        for e in (e1, e2, e3):
            engine.add_edge(e.coverage)
        engine.add_bridge(e1.coverage)
        return engine, e2

    def test_profile_matches_engine(self):
        engine, edge = self._engine()
        profile, params = profile_from_engine(engine, 0, edge)
        assert profile.stats.c_max == 3
        assert profile.peak_columns() == [3, 4]
        assert profile.stats.c_min == 1
        assert params is not None
        assert params.d_max == 3

    def test_rows_format(self):
        engine, _ = self._engine()
        profile, _ = profile_from_engine(engine, 0)
        rows = profile.as_rows()
        assert len(rows) == 12
        assert rows[3] == (3, 3, 1)

    def test_ascii_chart_dimensions(self):
        engine, _ = self._engine()
        profile, _ = profile_from_engine(engine, 0)
        chart = profile.ascii_chart()
        lines = chart.splitlines()
        assert len(lines) == profile.stats.c_max + 1  # levels + axis
        assert "#" in chart and "." in chart

    def test_bridge_peak_columns(self):
        engine, _ = self._engine()
        profile, _ = profile_from_engine(engine, 0)
        # d_m is 1 on columns 0..7 (bridge e1 covers half-open 0..7).
        assert profile.bridge_peak_columns() == list(range(8))


class TestSignoff:
    def test_report_fields(self, library):
        circuit, placement, constraints, result = route_chain(library)
        tech = Technology()
        channel_result = route_channels(result, placement, tech)
        report = sign_off(
            circuit, placement, result, channel_result, constraints, tech
        )
        assert report.circuit_name == circuit.name
        assert report.critical_delay_ps > 0
        assert report.area_mm2 > 0
        assert report.total_length_mm > 0
        assert set(report.constraint_margins) == {
            c.name for c in constraints
        }
        assert set(report.net_length_um) == set(result.routes)

    def test_final_lengths_include_verticals(self, library):
        circuit, placement, constraints, result = route_chain(library)
        tech = Technology()
        channel_result = route_channels(result, placement, tech)
        report = sign_off(
            circuit, placement, result, channel_result, constraints, tech
        )
        for name, route in result.routes.items():
            expected = route.total_length_um + (
                channel_result.net_vertical_um.get(name, 0.0)
            )
            assert report.net_length_um[name] == pytest.approx(expected)

    def test_signoff_delay_at_least_estimate(self, library):
        # Channel verticals only add wire, so the sign-off delay must be
        # >= the global router's own estimate.
        circuit, placement, constraints, result = route_chain(library)
        tech = Technology()
        channel_result = route_channels(result, placement, tech)
        report = sign_off(
            circuit, placement, result, channel_result, constraints, tech
        )
        assert (
            report.critical_delay_ps >= result.critical_delay_ps - 1e-6
        )

    def test_violations_property(self, library):
        circuit, placement, constraints, result = route_chain(library)
        tech = Technology()
        channel_result = route_channels(result, placement, tech)
        report = sign_off(
            circuit, placement, result, channel_result, constraints, tech
        )
        for name in report.violations:
            assert report.constraint_margins[name] < 0
