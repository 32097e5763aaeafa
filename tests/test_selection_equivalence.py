"""Seed-equivalence of the candidate engine on every standard-suite design.

The ``CandidateEngine``'s contract is *exact* reproduction of the seed's
full rescan, which re-keyed every candidate before each deletion: the
identical deletion sequence — same net, same edge id, same order, same
winning criterion — through the complete Fig. 2 flow and through a
standalone AREA-mode deletion loop.  The rescan selector is retired;
its output is the golden of ``test_edge_deletion_golden.py``, recorded
while both selectors agreed on every design, and its work is pinned in
:data:`RESCAN_WORK`.  These tests hold the one remaining selector to
both, reading the golden test's cached runs.
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

#: Key work of the rescan selector on each design's constrained route,
#: recorded before it was retired: ``router.key_evals`` counted every
#: key it looked at, ``router.key_recomputes`` the ones it recomputed.
RESCAN_WORK = {
    "C1P1": {"key_evals": 61088, "key_recomputes": 33844},
    "C1P2": {"key_evals": 60896, "key_recomputes": 34155},
    "C2P1": {"key_evals": 222984, "key_recomputes": 108660},
    "C2P2": {"key_evals": 223601, "key_recomputes": 109119},
    "C3P1": {"key_evals": 519851, "key_recomputes": 168053},
}


@pytest.mark.parametrize("design", DESIGNS)
class TestFullRouteEquivalence(RouteMatchesGolden):
    def test_incremental_never_evaluates_more_keys(self, design):
        # The engine computes every key row it serves, so its
        # ``router.key_evals`` bounds both rescan counters from below.
        evals = fingerprint(design, "timing")["router.key_evals"]
        assert evals <= RESCAN_WORK[design]["key_evals"]
        assert evals <= RESCAN_WORK[design]["key_recomputes"]

    def test_vectorized_core_is_exercised(self, design):
        """The array-native hot path must actually run (not silently
        fall back to scalar): every design refreshes candidate rows in
        batches, and each batch covers at least one row."""
        run = fingerprint(design, "timing")
        batches = run["router.vectorized_batches"]
        assert batches > 0, f"{design}: vectorized path never ran"
        assert run["router.key_evals"] >= batches


@pytest.mark.parametrize("design", DESIGNS)
def test_area_mode_sequence_identical(design, tmp_path_factory):
    assert_stream_matches(design, "area_loop", tmp_path_factory)


def test_largest_design_key_eval_reduction():
    """The headline speedup claim: ≥5× fewer selection-key evaluations
    per deletion on the largest standard-suite design (C3P1).  Both
    selectors make the same deletions, so the per-deletion ratio is the
    ratio of the totals."""
    run = fingerprint("C3P1", "timing")
    assert run["deletions"] == golden("C3P1", "timing")["deletions"]
    assert RESCAN_WORK["C3P1"]["key_evals"] >= 5.0 * run["router.key_evals"]
