"""Tests for the full routing report aggregator."""

import pytest

from conftest import route_chain
from repro import Technology, route_channels, sign_off
from repro.analysis.report import full_report


def routed_report(library, constrained=True, **kwargs):
    """``full_report`` of the chain circuit around its own sign-off."""
    circuit, placement, constraints, result = route_chain(
        library, constrained=constrained
    )
    if not constrained:
        constraints = []
    channel_result = route_channels(result, placement, Technology())
    signoff = sign_off(
        circuit, placement, result, channel_result, constraints,
        Technology(),
    )
    return full_report(
        circuit, placement, result, channel_result, signoff, constraints,
        Technology(), **kwargs,
    )


@pytest.fixture()
def report(library):
    return routed_report(library)


class TestFullReport:
    def test_header_contents(self, report):
        assert "routing report" in report.header
        assert "critical delay" in report.header
        assert "constraints" in report.header

    def test_sections_present(self, report):
        text = report.format()
        assert "--- wires ---" in text
        assert "--- channels ---" in text
        assert "--- critical paths" in text
        assert "tracks per channel" in text

    def test_signoff_consistent(self, report):
        assert (
            f"{report.signoff.critical_delay_ps:10.1f}"
            in report.header
        )

    def test_timing_paths_limit(self, library):
        without_paths = routed_report(library, timing_paths=0)
        assert "--- critical paths" not in without_paths.format()

    def test_no_constraints_variant(self, library):
        report = routed_report(library, constrained=False)
        text = report.format()
        assert "routing report" in text
        assert "--- critical paths" not in text
