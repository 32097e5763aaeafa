"""Exact output of the edge-deletion router, pinned against a committed golden.

The router's deletion loop (Fig. 2) has one implementation per step:
the array-backed candidate engine picks each edge, the incremental tree
engine scores it and the graph reclassifies bridges around it.  This
test pins what that loop produces, so any change to a selection key, a
tentative tree or a bridge flag shows up as a changed value:

* a sha256 over the traced ``edge_deleted`` stream (net, edge, winning
  criterion and depth, phase, length), plus one 16-hex digest per 64
  consecutive deletions (``stream_chunks``);
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

A case that differs is routed once more with every deletion decision
traced (:func:`explain_mismatch`).  The failure names the differing
keys and the first 64-deletion window whose digest differs, lists that
window's fresh deletions, and leaves ``trace.jsonl`` and
``heatmap.txt`` in a ``golden-failure-<case>`` directory under pytest's
basetemp.  The golden holds digests only, so the exact divergent
deletion comes from ``repro-router compare-runs --trace`` against a
trace routed at the commit that recorded the golden.

:func:`fingerprint` is cached, so the per-layer checks in
``test_selection_equivalence.py``, ``test_tree_engine_equivalence.py``
and ``test_reclassify_equivalence.py`` read the same traced runs.

A deliberate change of the router's output rewrites the golden with::

    PYTHONPATH=src python -m tests.test_edge_deletion_golden
"""

import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.bench.circuits import (
    make_dataset,
    scale_suite,
    small_suite,
    standard_suite,
)
from repro.analysis import format_heatmap, snapshots_from_events
from repro.channelrouter import route_channels
from repro.core import GlobalRouter, RouterConfig
from repro.core.selection import SelectionMode
from repro.obs import JsonlTraceSink, MemorySink, read_trace
from tests.channel_reference import reference_row_mismatches
from tests.conftest import channel_fingerprint, routes_sha256

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

#: Deletions per ``stream_chunks`` digest.
CHUNK = 64

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


def stream_rows(events):
    """The ``edge_deleted`` rows the stream digests cover, in emission
    order: net, edge, winning criterion and depth, phase, length."""
    return [
        [
            e.data["net"], e.data["edge"], e.data["criterion"],
            e.data["depth"], e.data["phase"], e.data["length_um"],
        ]
        for e in events
        if e.kind == "edge_deleted"
    ]


def stream_digests(events):
    """``stream_sha256`` over every ``edge_deleted`` row, and
    ``stream_chunks``: a 16-hex sha256 prefix per run of :data:`CHUNK`
    consecutive rows, so a mismatch names the window it starts in."""
    rows = stream_rows(events)
    return {
        "stream_sha256": _sha256(rows),
        "stream_chunks": [
            _sha256(rows[start:start + CHUNK])[:16]
            for start in range(0, len(rows), CHUNK)
        ],
    }


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


def route_case(name, mode, sink, decision_sampling=None):
    """Route one case with its trace going to ``sink``; returns the
    router and the result of a full route (``None`` for the loops)."""
    dataset = make_dataset(_SPECS[name])
    config = RouterConfig()
    if mode == "area":
        config = config.unconstrained()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
        trace_sink=sink,
        decision_sampling=decision_sampling,
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
        return router, None
    return router, router.route()


#: ``case_id -> channel_fingerprint`` of every full route, recorded by
#: :func:`fingerprint` while the route is at hand, so that
#: ``test_channel_golden.py`` pins the channel router on these cases
#: (X1P1 included) without routing them again.
CHANNEL_VALUES = {}

#: ``case_id -> nets`` of every full route whose route-table rows differ
#: from the per-edge walk (``tests/channel_reference.py``), recorded by
#: :func:`fingerprint` for ``test_route_table.py``.
TABLE_MISMATCHES = {}


@functools.lru_cache(maxsize=None)
def fingerprint(name, mode):
    """The pinned values of one traced run (computed once per case)."""
    sink = MemorySink()
    router, result = route_case(name, mode, sink)
    values = stream_digests(sink.events)
    if result is not None:
        TABLE_MISMATCHES[case_id(name, mode)] = reference_row_mismatches(
            router, result
        )
        CHANNEL_VALUES[case_id(name, mode)] = channel_fingerprint(
            route_channels(
                result, router.placement, router.config.technology
            )
        )
        values.update(
            routes_sha256=routes_sha256(result),
            trees_sha256=trees_sha256(router),
            deletions=result.deletions,
            reroutes=result.reroutes,
            total_length_um=result.total_length_um,
            critical_delay_ps=result.critical_delay_ps,
            channel_peak_density=[
                result.channel_peak_density[channel]
                for channel in sorted(result.channel_peak_density)
            ],
            constraint_margins=dict(result.constraint_margins),
        )
    flat = router.metrics.flat()
    for counter in COUNTERS:
        values[counter] = int(flat.get(counter, 0))
    return values


def first_divergent_window(fresh, pinned):
    """Index of the first ``stream_chunks`` digest that differs between
    two runs (a missing digest differs), or ``None``."""
    for index, (a, b) in enumerate(itertools.zip_longest(fresh, pinned)):
        if a != b:
            return index
    return None


def mismatch_message(name, mode, run, pinned, out_dir):
    """Why ``run`` differs from ``pinned``, explained from a re-route of
    the case with every decision traced into ``out_dir``."""
    trace = out_dir / "trace.jsonl"
    with JsonlTraceSink(trace) as sink:
        route_case(name, mode, sink, decision_sampling="all")
    events = read_trace(trace)
    heatmap = out_dir / "heatmap.txt"
    heatmap.write_text(format_heatmap(snapshots_from_events(events)) + "\n")
    rows = stream_rows(events)
    differing = sorted(
        key for key in set(run) | set(pinned)
        if run.get(key) != pinned.get(key)
    )
    lines = [
        f"{case_id(name, mode)} differs from {GOLDEN.name} in: "
        + ", ".join(differing)
    ]
    window = first_divergent_window(
        run["stream_chunks"], pinned.get("stream_chunks", [])
    )
    start = len(rows) if window is None else window * CHUNK
    listed = rows[start:start + CHUNK]
    if window is None:
        lines.append(f"deletion stream as pinned ({len(rows)} deletions)")
    elif not listed:
        lines.append(
            f"first divergent window: deletions {start}– (the fresh "
            f"stream ends at {len(rows)} deletions)"
        )
    else:
        lines.append(
            "first divergent window: deletions "
            f"{start}–{start + len(listed) - 1} of {len(rows)}"
        )
        lines.extend(
            f"  #{index} net {net} edge {edge} {criterion}@{depth} {phase}"
            for index, (net, edge, criterion, depth, phase, _) in enumerate(
                listed, start
            )
        )
    if stream_digests(events)["stream_sha256"] != run["stream_sha256"]:
        lines.append(
            "warning: the traced re-route deleted differently from the "
            "untraced run; the listing is the traced one"
        )
    lines.append(f"fresh trace: {trace} (heatmap: {heatmap})")
    if listed:
        lines.append(
            f"explain: repro-router trace explain {trace} "
            f"--deletion {start}"
        )
    return "\n".join(lines)


_EXPLANATIONS = {}


def explain_mismatch(name, mode, tmp_path_factory):
    """:func:`mismatch_message` for a case that differs from its golden,
    written once per case into a ``golden-failure-<case>`` directory
    under pytest's basetemp."""
    case = case_id(name, mode)
    if case not in _EXPLANATIONS:
        _EXPLANATIONS[case] = mismatch_message(
            name, mode, fingerprint(name, mode), golden(name, mode),
            tmp_path_factory.mktemp(
                f"golden-failure-{case}", numbered=False
            ),
        )
    return _EXPLANATIONS[case]


@pytest.mark.parametrize(
    "name,mode", CASES, ids=[case_id(*c) for c in CASES]
)
def test_edge_deletion_output_matches_golden(name, mode, tmp_path_factory):
    if fingerprint(name, mode) != golden(name, mode):
        pytest.fail(
            explain_mismatch(name, mode, tmp_path_factory), pytrace=False
        )


def assert_stream_matches(name, mode, tmp_path_factory):
    """Fail with :func:`explain_mismatch` unless the case's deletion
    stream matches its golden (the per-layer sequence checks)."""
    if (
        fingerprint(name, mode)["stream_sha256"]
        != golden(name, mode)["stream_sha256"]
    ):
        pytest.fail(
            explain_mismatch(name, mode, tmp_path_factory), pytrace=False
        )


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

    def test_deletion_sequence_identical(self, design, tmp_path_factory):
        assert_stream_matches(design, "timing", tmp_path_factory)

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
