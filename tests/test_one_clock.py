"""One clock per run: every timing a run reports comes from the scopes
of its :class:`~repro.obs.profile.PhaseProfiler`.

Each scope takes one pair of clock reads, and that pair feeds the
profile tree, the ``phase_start``/``phase_end`` events and the timing
histograms.  So, for a flow routed through ``run_flow`` into a trace:

* the tree rebuilt from the trace is the in-process tree without its
  per-call scopes;
* each timing histogram is the sum of its per-call scope's nodes;
* the roots are the flow's five phases, and the trace carries exactly
  one start, one end and one heartbeat for each of them;
* a run's ``cpu_seconds``, ``run_end`` and ``phase_end(route)`` are
  that run's own route time, also when a profiler is shared.
"""

import time
from collections import Counter

import pytest

from repro.bench.circuits import (
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.bench.runner import run_dataset, run_flow
from repro.cli import main
from repro.core.config import RouterConfig
from repro.obs import MemorySink, PhaseProfiler, events_to_jsonl

#: Per-call scope -> the histogram it records into.
PER_CALL = {
    "tree_eval": "router.tree_eval_s",
    "reclassify": "graph.reclassify_s",
    "timing_update": "router.timing_analysis_s",
    "select": "router.select_s",
    "delete": "router.delete_s",
}

#: The deletion loop's scopes, which only the edge-deletion engine opens.
LOOP_SCOPES = ("select", "delete")

#: Roots of a timing-driven flow (the bound is taken on the routed chip).
ROOTS = [
    "route", "build_result", "route_channels", "sign_off", "lower_bound",
]

#: (design, engine) -> trace length without the five root phases'
#: start, end and heartbeat events.
CASES = {
    ("C1P1", "edge-deletion"): 365,
    ("CGP1", "negotiated"): 62,
}

_SPECS = {s.name: s for s in standard_suite() + congestion_suite()}


@pytest.fixture(scope="module", params=sorted(CASES), ids="-".join)
def flow(request):
    design, engine = request.param
    dataset = make_dataset(_SPECS[design])
    sink = MemorySink()
    profiler = PhaseProfiler()
    routed = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(routing_engine=engine),
        trace_sink=sink, profiler=profiler,
    )
    return request.param, sink.events, profiler, routed.router.metrics


def nodes(profiler):
    """``(path, node)`` for every node, depth first in entry order."""
    out = []

    def walk(node, path):
        for child in node.children.values():
            out.append((path + (child.name,), child))
            walk(child, path + (child.name,))

    walk(profiler.root, ())
    return out


def test_trace_rebuilds_the_tree_without_per_call_scopes(flow):
    _, events, profiler, _ = flow
    expected = [
        (path, node) for path, node in nodes(profiler)
        if path[-1] not in PER_CALL
    ]
    rebuilt = nodes(PhaseProfiler.from_events(events))
    assert [p for p, _ in rebuilt] == [p for p, _ in expected]
    for (path, got), (_, want) in zip(rebuilt, expected):
        assert got.calls == want.calls, path
        # phase_end rounds each activation to the microsecond.
        slack = 1e-6 * want.calls
        assert abs(got.wall_s - want.wall_s) <= slack, path
        assert abs(got.cpu_s - want.cpu_s) <= slack, path


def test_timing_histograms_are_the_per_call_scopes(flow):
    (_, engine), _, profiler, metrics = flow
    for scope, name in PER_CALL.items():
        scoped = [n for p, n in nodes(profiler) if p[-1] == scope]
        histogram = metrics.histogram(name)
        assert histogram.count == sum(n.calls for n in scoped)
        if engine == "edge-deletion" or scope not in LOOP_SCOPES:
            assert histogram.count > 0
        assert histogram.total == pytest.approx(
            sum(n.wall_s for n in scoped), rel=1e-9
        )


def test_loop_scopes_hold_the_other_per_call_scopes(flow):
    """Each pick and each deletion of the initial loop is one scope, and
    the tree evaluations, timing updates and reclassifications of the
    loop run inside them."""
    (_, engine), _, profiler, metrics = flow
    initial = profiler.node("route", "initial")
    if engine != "edge-deletion":
        assert initial is None
        return
    select, delete = initial.children["select"], initial.children["delete"]
    # One pick per deletion, and the last one finds no candidate.
    assert select.calls == delete.calls + 1
    assert "timing_update" in select.children
    assert "tree_eval" in select.children
    assert {"tree_eval", "reclassify"} <= set(delete.children)
    # Besides them, only the candidate engine's construction (settling
    # the timings, keying the delay columns) runs per-call scopes.
    assert set(initial.children) == {
        "select", "delete", "timing_update", "tree_eval",
    }


def test_roots_are_the_flow_phases(flow):
    _, _, profiler, _ = flow
    assert list(profiler.root.children) == ROOTS


def test_root_phases_add_one_start_end_and_heartbeat_each(flow):
    case, events, _, _ = flow
    added = Counter(
        (e.kind, e.data["phase"]) for e in events
        if e.kind in ("phase_start", "phase_end", "progress_heartbeat")
        and e.data["phase"] in ROOTS
    )
    assert added == Counter({
        (kind, phase): 1
        for kind in ("phase_start", "phase_end", "progress_heartbeat")
        for phase in ROOTS
    })
    assert len(events) == CASES[case] + 3 * len(ROOTS)
    depths = {
        e.data["phase"]: e.data["depth"]
        for e in events if e.kind == "phase_start"
    }
    assert depths["route"] == depths["build_result"] == 1
    assert depths["setup"] == 2 and depths["timing"] == 3


def test_truncated_trace_summarizes(flow, tmp_path, capsys):
    _, events, _, _ = flow
    cut = next(
        i for i, e in enumerate(events)
        if e.kind == "phase_start" and e.data["phase"] == "setup"
    )
    path = tmp_path / "cut.jsonl"
    path.write_text(events_to_jsonl(events[: cut + 1]))
    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "phases:" in out and "setup" in out


def test_shared_profiler_reports_each_runs_own_time():
    profiler = PhaseProfiler()
    spec = small_suite()[0]
    for _ in range(3):
        sink = MemorySink()
        started = time.perf_counter()
        _, result, _, _ = run_dataset(
            spec, True, trace_sink=sink, profiler=profiler
        )
        outer = time.perf_counter() - started
        own = round(result.cpu_seconds, 6)
        (run_end,) = sink.of_kind("run_end")
        (route_end,) = [
            e for e in sink.of_kind("phase_end")
            if e.data["phase"] == "route"
        ]
        assert own == run_end.data["wall_s"] == route_end.data["wall_s"]
        assert result.cpu_seconds < outer
    assert profiler.node("route").calls == 3
