"""Exact output of the edge-deletion router, pinned against a committed golden.

The router's deletion loop (Fig. 2) has one implementation per step:
the array-backed candidate engine picks each edge, the incremental tree
engine scores it and the graph reclassifies bridges around it.  This
test pins what that loop produces, so any change to a selection key, a
tentative tree or a bridge flag shows up as a changed value:

* a sha256 over the traced ``edge_deleted`` stream (net, edge, winning
  criterion and depth, phase, length);
* the routed edges (``routes_sha256``) and a sha256 over every net's
  final ``(cl_pf, tree length, sorted tree edge ids)``;
* deletions, reroutes, total length, critical delay, channel peak
  densities and constraint margins;
* the work counters of the candidate engine, the tree engine and the
  reclassifier, which must not drift either.

Every standard- and small-suite design is pinned as a constrained full
route (``timing``), an unconstrained full route (``area``), the
standalone AREA-mode loop over all lead states right after setup
(``area_loop``) and the standalone TIMING-mode loop followed by that
AREA-mode loop (``timing_area_loop``); the two loops pin the stream
digest and counters only.  X1P1 is pinned constrained.  Every value
must match ``benchmarks/golden/edge_deletion.json`` exactly.

:func:`fingerprint` is cached, so the per-layer checks in
``test_selection_equivalence.py``, ``test_tree_engine_equivalence.py``
and ``test_reclassify_equivalence.py`` read the same traced runs.

A deliberate change of the router's output rewrites the golden with::

    PYTHONPATH=src python -m tests.test_edge_deletion_golden
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.circuits import (
    make_dataset,
    scale_suite,
    small_suite,
    standard_suite,
)
from repro.core import GlobalRouter, RouterConfig
from repro.core.selection import SelectionMode
from repro.obs import MemorySink
from tests.conftest import routes_sha256

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "edge_deletion.json"
)

_SPECS = {
    spec.name: spec
    for spec in standard_suite() + small_suite() + scale_suite()
}

MODES = ("timing", "area", "area_loop", "timing_area_loop")

#: ``(design, mode)`` pairs pinned by the golden.
CASES = tuple(
    (spec.name, mode)
    for spec in standard_suite() + small_suite()
    for mode in MODES
) + (("X1P1", "timing"),)

COUNTERS = (
    "router.key_evals",
    "router.heap_stale",
    "router.vectorized_batches",
    "router.tree_dijkstra_runs",
    "router.tree_dijkstra_repeats",
    "router.tree_fastpath_hits",
    "graph.bridge_local_recomputes",
    "graph.bridge_full_fallbacks",
)


def case_id(name, mode):
    return f"{name}.{mode}"


def _sha256(rows):
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row).encode())
    return digest.hexdigest()


def stream_sha256(sink):
    """sha256 over the ``edge_deleted`` events, in emission order."""
    return _sha256(
        [
            e.data["net"], e.data["edge"], e.data["criterion"],
            e.data["depth"], e.data["phase"], e.data["length_um"],
        ]
        for e in sink.of_kind("edge_deleted")
    )


def trees_sha256(router):
    """sha256 over every net's ``(cl_pf, tree length, sorted tree edge
    ids)``, nets in name order."""
    return _sha256(
        [
            name,
            state.cl_pf,
            state.tree.total_length_um,
            sorted(state.tree.edge_ids),
        ]
        for name, state in sorted(router.states.items())
    )


@functools.lru_cache(maxsize=None)
def golden(name, mode):
    """The committed golden values of one case."""
    return json.loads(GOLDEN.read_text())[case_id(name, mode)]


@functools.lru_cache(maxsize=None)
def fingerprint(name, mode):
    """The pinned values of one traced run (computed once per case)."""
    dataset = make_dataset(_SPECS[name])
    config = RouterConfig()
    if mode == "area":
        config = config.unconstrained()
    sink = MemorySink()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
        trace_sink=sink,
    )
    if mode in ("area_loop", "timing_area_loop"):
        router._build_timing()
        router._assign_pins_and_feedthroughs()
        router._build_routing_graphs()
        router._init_density_and_trees()
        if mode == "timing_area_loop":
            router._deletion_loop(
                router._lead_states(), SelectionMode.TIMING
            )
        router._deletion_loop(router._lead_states(), SelectionMode.AREA)
        values = {"stream_sha256": stream_sha256(sink)}
    else:
        result = router.route()
        values = {
            "stream_sha256": stream_sha256(sink),
            "routes_sha256": routes_sha256(result),
            "trees_sha256": trees_sha256(router),
            "deletions": result.deletions,
            "reroutes": result.reroutes,
            "total_length_um": result.total_length_um,
            "critical_delay_ps": result.critical_delay_ps,
            "channel_peak_density": [
                result.channel_peak_density[channel]
                for channel in sorted(result.channel_peak_density)
            ],
            "constraint_margins": dict(result.constraint_margins),
        }
    flat = router.metrics.flat()
    for counter in COUNTERS:
        values[counter] = int(flat.get(counter, 0))
    return values


@pytest.mark.parametrize(
    "name,mode", CASES, ids=[case_id(*c) for c in CASES]
)
def test_edge_deletion_output_matches_golden(name, mode):
    assert fingerprint(name, mode) == golden(name, mode)


#: Result fields of a full route, as the per-layer checks compare them.
RESULT_FIELDS = (
    "deletions",
    "reroutes",
    "total_length_um",
    "critical_delay_ps",
    "channel_peak_density",
    "constraint_margins",
)


class RouteMatchesGolden:
    """Checks of one design's constrained full route against its golden
    case, shared by the per-layer test classes (which parametrize
    ``design``).  The goldens were recorded while each retired reference
    path — the rescan selector, the full tree engine and the full-Tarjan
    reclassify per deletion — produced the same stream and results."""

    def test_deletion_sequence_identical(self, design):
        assert (
            fingerprint(design, "timing")["stream_sha256"]
            == golden(design, "timing")["stream_sha256"]
        ), f"{design}: deletion stream diverged from the golden"

    def test_results_identical(self, design):
        run, pinned = fingerprint(design, "timing"), golden(design, "timing")
        for field in RESULT_FIELDS:
            assert run[field] == pinned[field], f"{design}: {field}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case_id(*c): fingerprint(*c) for c in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
