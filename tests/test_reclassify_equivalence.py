"""Seed-equivalence of incremental reclassification on real designs.

The graph-level property tests (:mod:`tests.test_routegraph_incremental`)
pin the incremental bridge-maintenance path to the full-Tarjan reference
on random graphs; these tests pin it on every standard-suite design
through the complete Fig. 2 flow — TIMING-mode deletion loop,
rip-up/reroute re-entry, improvement phases — and through a standalone
TIMING-then-AREA loop.  The contract is bit-identity with the reference
mode that ran a full reclassification per deletion: same deletion
sequence (net, edge, criterion, depth, phase, length), same result
metrics, same reported total length.  That mode is retired; its output
is the golden of ``test_edge_deletion_golden.py``, recorded while both
paths agreed on every design, and its number of full passes is pinned
in :data:`REFERENCE_FULL_PASSES`.  These tests read the golden test's
cached runs.
"""

import pytest

from repro.bench.circuits import standard_suite
from tests.test_edge_deletion_golden import (
    RouteMatchesGolden,
    assert_stream_matches,
    fingerprint,
)

DESIGNS = [spec.name for spec in standard_suite()]

#: Full reclassifications the reference mode ran on each design's
#: constrained route (one per graph deletion, mirrors included),
#: recorded before it was retired.
REFERENCE_FULL_PASSES = {
    "C1P1": 228,
    "C1P2": 224,
    "C2P1": 402,
    "C2P2": 410,
    "C3P1": 550,
}


@pytest.mark.parametrize("design", DESIGNS)
class TestFullRouteEquivalence(RouteMatchesGolden):
    def test_incremental_path_actually_ran(self, design):
        run = fingerprint(design, "timing")
        local = run["graph.bridge_local_recomputes"]
        assert local > 0, f"{design}: the local path never ran"
        # Every graph deletion the reference made took exactly one of
        # the two paths here.
        assert (
            local + run["graph.bridge_full_fallbacks"]
            == REFERENCE_FULL_PASSES[design]
        )


@pytest.mark.parametrize("design", DESIGNS)
def test_area_mode_sequence_identical(design, tmp_path_factory):
    assert_stream_matches(design, "timing_area_loop", tmp_path_factory)
