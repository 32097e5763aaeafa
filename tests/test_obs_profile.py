"""Tests for the phase profiler (the run's one clock) and the run
manifest."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs.profile as profile_module
from repro.bench.runner import RunRecord
from repro.obs.events import MemorySink, TraceEvent, Tracer
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_run_manifest,
    describe_source,
    read_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import HeartbeatEmitter, PhaseProfiler


def bound_profiler():
    """A profiler bound to a recording tracer, a registry and a
    heartbeat emitter, as a router binds its own."""
    sink = MemorySink()
    tracer = Tracer(sink)
    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    profiler.bind(tracer, metrics, HeartbeatEmitter(tracer, metrics))
    return profiler, sink, metrics


class TestPhaseProfiler:
    def test_nested_scopes_build_a_tree(self):
        profiler = PhaseProfiler()
        with profiler.phase("route"):
            with profiler.phase("setup"):
                pass
            with profiler.phase("initial"):
                with profiler.phase("timing_update"):
                    pass
        tree = profiler.to_dict()
        assert set(tree) == {"route"}
        assert set(tree["route"]["children"]) == {"setup", "initial"}
        assert "timing_update" in tree["route"]["children"]["initial"][
            "children"
        ]

    def test_repeated_phases_accumulate(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("p"):
                pass
        node = profiler.node("p")
        assert node.calls == 3
        assert node.wall_s >= 0.0

    def test_parent_wall_covers_children(self):
        profiler = PhaseProfiler()
        with profiler.phase("parent"):
            with profiler.phase("child"):
                sum(range(10000))
        parent = profiler.node("parent")
        child = profiler.node("parent", "child")
        assert parent.wall_s >= child.wall_s

    def test_wall_s_missing_path_is_zero(self):
        assert PhaseProfiler().wall_s("nope") == 0.0

    def test_exception_still_recorded(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("p"):
                raise RuntimeError("boom")
        assert profiler.node("p").calls == 1
        assert profiler.current is profiler.root

    def test_reentered_nested_phase_aggregates_in_one_node(self):
        profiler = PhaseProfiler()
        for _ in range(4):
            with profiler.phase("route"):
                with profiler.phase("timing_update"):
                    pass
                with profiler.phase("timing_update"):
                    pass
        route = profiler.node("route")
        update = profiler.node("route", "timing_update")
        assert route.calls == 4
        assert update.calls == 8
        # Re-entry must not spawn sibling duplicates.
        assert list(route.children) == ["timing_update"]
        assert profiler.node("timing_update") is None

    def test_same_name_under_different_parents_stays_distinct(self):
        profiler = PhaseProfiler()
        with profiler.phase("initial"):
            with profiler.phase("timing_update"):
                pass
        with profiler.phase("improve_delay"):
            with profiler.phase("timing_update"):
                pass
            with profiler.phase("timing_update"):
                pass
        assert profiler.node("initial", "timing_update").calls == 1
        assert profiler.node("improve_delay", "timing_update").calls == 2

    def test_exception_in_nested_phase_closes_all_spans(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("outer"):
                with profiler.phase("inner"):
                    raise RuntimeError("boom")
        assert profiler.current is profiler.root
        assert profiler.node("outer").calls == 1
        assert profiler.node("outer", "inner").calls == 1
        # The profiler must stay usable after the unwind: a new scope
        # lands at the root, not under the phase that blew up.
        with profiler.phase("after"):
            pass
        assert profiler.node("after").calls == 1
        assert "after" not in profiler.node("outer").children

    def test_format_lists_phases_in_order(self):
        profiler = PhaseProfiler()
        with profiler.phase("alpha"):
            pass
        with profiler.phase("beta"):
            pass
        text = profiler.format()
        assert text.index("alpha") < text.index("beta")


class TestOneScope:
    def test_phase_emits_start_heartbeat_and_end(self):
        profiler, sink, metrics = bound_profiler()
        with profiler.phase("route") as route:
            with profiler.phase("setup"):
                pass
        kinds = [(e.kind, e.data.get("phase")) for e in sink.events]
        assert kinds == [
            ("phase_start", "route"), ("progress_heartbeat", "route"),
            ("phase_start", "setup"), ("progress_heartbeat", "setup"),
            ("phase_end", "setup"), ("phase_end", "route"),
        ]
        depths = [e.data["depth"] for e in sink.of_kind("phase_start")]
        assert depths == [1, 2]
        end = sink.of_kind("phase_end")[-1].data
        assert end["wall_s"] == round(route.wall_s, 6)
        assert end["cpu_s"] == round(route.cpu_s, 6)
        assert profiler.node("route").wall_s == route.wall_s
        # A phase records no histogram.
        assert not any(
            isinstance(value, dict) for value in metrics.snapshot().values()
        )

    def test_per_call_scope_feeds_histogram_not_trace(self):
        profiler, sink, metrics = bound_profiler()
        with profiler.phase("initial"):
            for _ in range(2):
                with profiler.phase("tree_eval", "router.tree_eval_s"):
                    sum(range(1000))
        histogram = metrics.histogram("router.tree_eval_s")
        node = profiler.node("initial", "tree_eval")
        assert histogram.count == node.calls == 2
        assert histogram.total == node.wall_s > 0.0
        assert [e.data["phase"] for e in sink.of_kind("phase_start")] == [
            "initial"
        ]

    def test_current_phase_skips_open_per_call_scopes(self):
        profiler = PhaseProfiler()
        assert profiler.current_phase is profiler.root
        with profiler.phase("route"):
            with profiler.phase("initial"):
                initial = profiler.current
                with profiler.phase("delete", "router.delete_s"):
                    with profiler.phase("reclassify", "graph.reclassify_s"):
                        assert profiler.current.name == "reclassify"
                        assert profiler.current_phase is initial
                    assert profiler.current_phase is initial
                assert profiler.current_phase is initial
            assert profiler.current_phase.name == "route"
        assert profiler.current_phase is profiler.root

    def test_raising_bodies_still_close_their_scopes(self):
        profiler, sink, metrics = bound_profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("route"):
                with profiler.phase("timing_update",
                                    "router.timing_analysis_s"):
                    raise RuntimeError("boom")
        assert metrics.histogram("router.timing_analysis_s").count == 1
        assert [e.data["phase"] for e in sink.of_kind("phase_end")] == [
            "route"
        ]
        assert profiler.node("route", "timing_update").calls == 1
        assert profiler.current is profiler.root

    def test_unbound_profiler_only_builds_its_tree(self):
        profiler = PhaseProfiler()
        with profiler.phase("route"):
            with profiler.phase("tree_eval", "router.tree_eval_s"):
                pass
        assert profiler.node("route", "tree_eval").calls == 1

    def test_from_events_rebuilds_the_phases(self):
        profiler, sink, _ = bound_profiler()
        for _ in range(2):
            with profiler.phase("route"):
                with profiler.phase("setup"):
                    with profiler.phase("reclassify", "graph.reclassify_s"):
                        pass
        with profiler.phase("build_result"):
            pass
        rebuilt = PhaseProfiler.from_events(sink.events)
        assert list(rebuilt.to_dict()) == ["route", "build_result"]
        assert rebuilt.node("route", "setup").calls == 2
        assert rebuilt.node("route", "setup").children == {}
        assert rebuilt.wall_s("route") == pytest.approx(
            profiler.wall_s("route"), abs=2e-6
        )

    def test_from_events_tolerates_a_truncated_trace(self):
        events = [
            TraceEvent(1, 0.0, "phase_start", {"phase": "route"}),
            TraceEvent(2, 0.1, "phase_start", {"phase": "setup"}),
            TraceEvent(3, 0.2, "phase_end", {"phase": "setup",
                                             "wall_s": 0.1}),
            TraceEvent(4, 0.3, "phase_start", {"phase": "initial"}),
        ]
        rebuilt = PhaseProfiler.from_events(events)
        assert rebuilt.node("route", "setup").wall_s == 0.1
        assert rebuilt.node("route").calls == 0
        assert rebuilt.node("route", "initial").calls == 0
        assert "initial" in rebuilt.format()

    def test_from_events_nests_each_relayed_job_apart(self):
        def event(seq, kind, phase, job):
            return TraceEvent(seq, 0.0, kind, {
                "phase": phase, "job_id": job, "wall_s": 1.0,
            })

        events = [
            event(1, "phase_start", "route", "a"),
            event(1, "phase_start", "route", "b"),
            event(2, "phase_start", "setup", "a"),
            event(2, "phase_end", "route", "b"),
            event(3, "phase_end", "setup", "a"),
            event(4, "phase_end", "route", "a"),
        ]
        rebuilt = PhaseProfiler.from_events(events)
        assert rebuilt.node("route").calls == 2
        assert rebuilt.node("route", "setup").calls == 1
        assert list(rebuilt.node("route").children) == ["setup"]


class TestGcLedger:
    def test_collection_charged_to_innermost_scope(self):
        profiler = PhaseProfiler()
        with profiler.phase("route"):
            with profiler.phase("setup"):
                gc.collect()
        setup = profiler.node("route", "setup")
        route = profiler.node("route")
        assert setup.gc_collections >= 1
        assert setup.gc_s > 0.0
        assert route.gc_collections == 0 and route.gc_s == 0.0
        tree = profiler.to_dict()["route"]
        assert "gc_s" not in tree and "gc_collections" not in tree
        child = tree["children"]["setup"]
        assert child["gc_collections"] == setup.gc_collections
        assert child["gc_s"] == round(setup.gc_s, 6)

    def test_one_callback_while_scopes_are_open(self):
        before = list(gc.callbacks)
        profiler = PhaseProfiler()
        with profiler.phase("route"):
            with profiler.phase("setup"):
                assert gc.callbacks.count(profiler._gc_hook) == 1
            assert len(gc.callbacks) == len(before) + 1
        assert gc.callbacks == before

    def test_raising_scope_removes_its_callback(self):
        before = list(gc.callbacks)
        profiler, _, _ = bound_profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("route"):
                with profiler.phase("tree_eval", "router.tree_eval_s"):
                    raise RuntimeError("boom")
        assert gc.callbacks == before

    def test_two_routes_leave_the_callbacks_as_they_were(self):
        from repro.bench.circuits import make_dataset, small_suite
        from repro.core import GlobalRouter, RouterConfig

        before = list(gc.callbacks)
        profiler = PhaseProfiler()
        for spec in small_suite()[:2]:
            dataset = make_dataset(spec)
            GlobalRouter(
                dataset.circuit, dataset.placement, dataset.constraints,
                RouterConfig(), profiler=profiler,
            ).route()
            assert gc.callbacks == before
        assert profiler.node("route").calls == 2


class TestPeakRss:
    def test_phase_that_holds_memory_reads_above_its_sibling(self):
        """In a fresh interpreter started by a small one: Linux carries
        the resident size at fork into the child's high-water mark, so a
        child of this process would start at this process's size."""
        code = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.obs.profile import PhaseProfiler\n"
            "profiler = PhaseProfiler()\n"
            "with profiler.phase('route'):\n"
            "    with profiler.phase('small'):\n"
            "        pass\n"
            "    with profiler.phase('large'):\n"
            "        held = b'x' * (32 << 20)\n"
            "print(json.dumps(profiler.to_dict()))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        launcher = (
            "import subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True)"
        )
        child = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", code,
             src],
            capture_output=True, text=True, check=True, timeout=120,
        )
        phases = json.loads(child.stdout)["route"]
        small = phases["children"]["small"]["peak_rss_mb"]
        large = phases["children"]["large"]["peak_rss_mb"]
        # A high-water mark: the import's own peak sits above the live
        # heap, so the rise is less than the 32 MB held.
        assert large > small
        assert phases["peak_rss_mb"] >= large

    def test_one_getrusage_per_phase_exit(self, monkeypatch):
        import resource as real

        calls = []

        class Counting:
            RUSAGE_SELF = real.RUSAGE_SELF

            @staticmethod
            def getrusage(who):
                calls.append(who)
                return real.getrusage(who)

        monkeypatch.setattr(profile_module, "resource", Counting)
        profiler, sink, _ = bound_profiler()
        for _ in range(2):
            with profiler.phase("route"):
                with profiler.phase("setup"):
                    for _ in range(5):
                        with profiler.phase(
                            "reclassify", "graph.reclassify_s"
                        ):
                            pass
        with profiler.phase("build_result"):
            pass
        assert len(calls) == len(sink.of_kind("phase_end")) == 5
        reclassify = profiler.node("route", "setup", "reclassify")
        assert reclassify.peak_rss_mb is None
        assert profiler.node("route", "setup").peak_rss_mb > 0.0


class TestManifest:
    def test_build_and_write(self, tmp_path):
        profiler = PhaseProfiler()
        with profiler.phase("route"):
            pass
        record = RunRecord(
            dataset="demo", constrained=True, delay_ps=100.0,
            area_mm2=1.0, length_mm=2.0, cpu_s=0.1, lower_bound_ps=90.0,
            violations=0, worst_margin_ps=5.0, cells=4, nets=5,
            n_constraints=1, feed_cells_inserted=0, deletions=12,
            reroutes=0, metrics={"router.deletions": 12.0},
        )
        manifest = build_run_manifest(
            config={"timing_driven": True},
            dataset={"circuit": "demo"},
            record=record,
            profiler=profiler,
        )
        path = manifest.write(tmp_path / "run.manifest.json")
        payload = read_manifest(path)
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["dataset"]["circuit"] == "demo"
        phases = payload["results"].pop("phases")
        assert "route" in phases
        assert payload["results"] == record.to_row()
        assert payload["metrics"] == {"router.deletions": 12.0}

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_dataclass_config_serializes(self, tmp_path):
        from repro.core.config import RouterConfig

        manifest = build_run_manifest(config=RouterConfig())
        path = manifest.write(tmp_path / "m.json")
        payload = read_manifest(path)
        assert payload["config"]["timing_driven"] is True
        assert "technology" in payload["config"]

    def test_describe_source_finds_this_repo(self):
        info = describe_source()
        # The test tree is a git repository; outside one, all None is fine.
        assert set(info) == {"ref", "commit", "describe"}
        if info["commit"] is not None:
            assert len(info["commit"]) >= 12
            assert info["describe"]

    def test_describe_source_no_repo(self, tmp_path):
        info = describe_source(tmp_path)
        assert info == {"ref": None, "commit": None, "describe": None}
