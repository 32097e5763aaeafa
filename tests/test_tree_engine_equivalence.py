"""Seed-equivalence of the tentative-tree engine on every standard-suite
design.

The :class:`~repro.routegraph.tree_engine.TreeEngine`'s contract is
*bit-identical* reproduction of the seed's full per-candidate Dijkstra:
the identical deletion sequence — same net, same edge id, same order,
same winning criterion — and the identical final routing, through the
complete Fig. 2 flow and through a standalone AREA-mode deletion loop.
The full tree engine is retired; its output is the golden of
``test_edge_deletion_golden.py``, recorded while both engines agreed on
every design, and its work is pinned in :data:`FULL_ENGINE_WORK`.
These tests hold the one remaining engine to both, reading the golden
test's cached runs.
"""

import pytest

from repro.bench.circuits import standard_suite
from tests.test_edge_deletion_golden import (
    RouteMatchesGolden,
    assert_stream_matches,
    fingerprint,
    golden,
)

DESIGNS = [spec.name for spec in standard_suite()]

#: Dijkstra work of the full tree engine (one search per candidate) on
#: each design's constrained route, recorded before it was retired.
FULL_ENGINE_WORK = {
    "C1P1": {"tree_dijkstra_runs": 1831, "tree_dijkstra_repeats": 567},
    "C1P2": {"tree_dijkstra_runs": 1795, "tree_dijkstra_repeats": 558},
    "C2P1": {"tree_dijkstra_runs": 3385, "tree_dijkstra_repeats": 1208},
    "C2P2": {"tree_dijkstra_runs": 3490, "tree_dijkstra_repeats": 1227},
    "C3P1": {"tree_dijkstra_runs": 3052, "tree_dijkstra_repeats": 669},
}


@pytest.mark.parametrize("design", DESIGNS)
class TestFullRouteEquivalence(RouteMatchesGolden):
    def test_final_trees_bit_identical(self, design):
        assert (
            fingerprint(design, "timing")["trees_sha256"]
            == golden(design, "timing")["trees_sha256"]
        )

    def test_incremental_never_runs_more_dijkstras(self, design):
        run = fingerprint(design, "timing")
        full = FULL_ENGINE_WORK[design]
        assert run["router.tree_dijkstra_runs"] <= full["tree_dijkstra_runs"]
        assert (
            run["router.tree_dijkstra_repeats"]
            <= full["tree_dijkstra_repeats"]
        )

    def test_fast_path_actually_fires(self, design):
        assert fingerprint(design, "timing")["router.tree_fastpath_hits"] > 0


@pytest.mark.parametrize("design", DESIGNS)
def test_area_mode_sequence_identical(design, tmp_path_factory):
    assert_stream_matches(design, "area_loop", tmp_path_factory)
