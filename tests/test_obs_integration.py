"""Integration tests: observability wired through the router, the bench
runner, and the CLI."""

import json
import time

import pytest

from conftest import build_chain_circuit, route_chain
from repro import (
    GlobalRouter,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.bench.circuits import CircuitSpec, DatasetSpec
from repro.bench.runner import RunRecord, run_dataset
from repro.cli import main
from repro.layout.placer import FeedStyle
from repro.obs import (
    MANIFEST_SCHEMA,
    MemorySink,
    MetricsRegistry,
    PhaseProfiler,
    Tracer,
    read_trace,
    summarize_trace,
)

TINY = DatasetSpec(
    "TINY",
    CircuitSpec(
        "T", n_gates=30, n_flops=5, n_inputs=4, n_outputs=3,
        n_diff_pairs=1, seed=2,
    ),
    FeedStyle.EVEN,
    n_constraints=4,
)


@pytest.fixture(scope="module")
def traced_run():
    sink = MemorySink()
    profiler = PhaseProfiler()
    record, result, report, dataset = run_dataset(
        TINY, True, trace_sink=sink, profiler=profiler
    )
    return sink, profiler, record, result


class TestRouterTracing:
    def test_edge_deleted_count_matches_deletions(self, traced_run):
        sink, _, record, result = traced_run
        deleted = sink.of_kind("edge_deleted")
        assert len(deleted) == result.deletions == record.deletions
        assert result.deletions > 0

    def test_run_lifecycle_events(self, traced_run):
        sink, _, _, result = traced_run
        kinds = [e.kind for e in sink.events]
        assert kinds[0] == "run_start"
        assert "run_end" in kinds
        end = sink.of_kind("run_end")[0]
        assert end.data["deletions"] == result.deletions
        assert end.data["reroutes"] == result.reroutes

    def test_phase_events_are_balanced(self, traced_run):
        sink, _, _, _ = traced_run
        starts = [e.data["phase"] for e in sink.of_kind("phase_start")]
        ends = [e.data["phase"] for e in sink.of_kind("phase_end")]
        assert sorted(starts) == sorted(ends)
        assert {"setup", "initial", "finalize"} <= set(starts)

    def test_edge_deleted_payload_schema(self, traced_run):
        sink, _, _, _ = traced_run
        criteria = {
            "C_d", "Gl", "LD", "trunk", "F_m", "N_m", "F_M", "N_M",
            "length", "tie_break", "sole_candidate",
        }
        for event in sink.of_kind("edge_deleted"):
            assert event.data["criterion"] in criteria
            assert event.data["depth"] >= -1
            assert event.data["phase"]
            assert event.data["net"]

    def test_reroute_events_match_counter(self, traced_run):
        sink, _, _, result = traced_run
        assert len(sink.of_kind("reroute")) == result.reroutes

    def test_metrics_attached_to_record(self, traced_run):
        _, _, record, result = traced_run
        assert record.metrics["router.deletions"] == result.deletions
        assert record.metrics["router.reroutes"] == result.reroutes
        assert "channel.tracks_total" in record.metrics
        assert "density.updates" in record.metrics

    def test_profiler_agrees_with_cpu_seconds(self, traced_run):
        _, profiler, record, result = traced_run
        assert result.cpu_seconds == profiler.wall_s("route")
        assert record.cpu_s == pytest.approx(
            result.cpu_seconds, rel=1e-6, abs=1e-9
        )
        # The profiled phases partition the run.
        route = profiler.node("route")
        child_sum = sum(c.wall_s for c in route.children.values())
        assert child_sum <= route.wall_s + 1e-9

    def test_summarize_renders(self, traced_run):
        sink, _, _, _ = traced_run
        text = summarize_trace(sink.events)
        assert "edge deletions" in text
        assert "by winning criterion" in text
        assert "phases:" in text


class TestRunRecordFields:
    def test_fields_cover_all_scalars(self):
        import dataclasses

        declared = {
            f.name for f in dataclasses.fields(RunRecord)
        } - {"metrics"}
        assert set(RunRecord.fields()) == declared | {"gap_to_bound_pct"}
        assert RunRecord.fields()[-1] == "gap_to_bound_pct"

    def test_json_export_follows_fields(self, traced_run):
        from repro.io.json_report import run_record_to_dict

        _, _, record, _ = traced_run
        payload = run_record_to_dict(record)
        scalar_keys = [k for k in payload if k != "metrics"]
        assert scalar_keys == list(RunRecord.fields())
        assert payload["metrics"] == record.metrics


class TestNullSinkOverhead:
    def test_disabled_tracer_guard_is_cheap(self):
        """Smoke guard: a NullSink run's per-event cost is one attribute
        check.  100k guarded no-ops must be effectively instant (the
        strict <3%-of-runtime assertion lives in benchmarks/)."""
        tracer = Tracer()
        assert not tracer.enabled
        start = time.perf_counter()
        for _ in range(100_000):
            if tracer.enabled:  # pragma: no cover - never taken
                tracer.emit("edge_deleted", net="n", edge=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0

    def test_untraced_route_emits_nothing_and_matches(self, library):
        circuit = build_chain_circuit(library)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
        )
        router = GlobalRouter(circuit, placement, (), RouterConfig())
        assert not router.tracer.enabled
        result = router.route()
        assert result.deletions >= 0
        assert router.tracer._seq == 0  # no events were constructed


class TestCliTrace:
    @pytest.fixture()
    def generated(self, tmp_path):
        netlist = tmp_path / "c.rnl"
        placement = tmp_path / "c.rpl"
        main([
            "generate", "cli_obs",
            "--gates", "30", "--flops", "5",
            "--inputs", "4", "--outputs", "3",
            "--out", str(netlist),
            "--placement-out", str(placement),
        ])
        return netlist, placement

    def test_route_trace_metrics_manifest(
        self, generated, tmp_path, capsys
    ):
        netlist, placement = generated
        trace = tmp_path / "out.jsonl"
        report = tmp_path / "out.json"
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--constraints", "2",
            "--trace", str(trace),
            "--metrics",
            "--json", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert "router.deletions" in out

        events = read_trace(trace)
        reported = json.loads(report.read_text())
        deleted = [e for e in events if e.kind == "edge_deleted"]
        assert len(deleted) == reported["global"]["deletions"]

        manifest = json.loads(
            (tmp_path / "out.manifest.json").read_text()
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["results"]["deletions"] == len(deleted)

        code = main(["trace", "summarize", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "by winning criterion" in out
        assert "phases:" in out

    def test_summarize_prints_the_metrics_phase_table(
        self, generated, tmp_path, capsys
    ):
        """``trace summarize`` rebuilds the ``--metrics`` phase table:
        the same paths and call counts, minus the per-call scopes,
        which emit no events."""

        def rows(text):
            lines = text.splitlines()
            start = max(
                i for i, line in enumerate(lines)
                if line.startswith("phase ") and line.endswith("calls")
            )
            table = []
            for line in lines[start + 1:]:
                if not line.strip():
                    break
                table.append((line[:34].rstrip(), int(line.split()[-1])))
            return table

        netlist, placement = generated
        trace = tmp_path / "out.jsonl"
        assert main([
            "route", str(netlist), "--placement", str(placement),
            "--constraints", "2", "--trace", str(trace), "--metrics",
        ]) == 0
        profiled = rows(capsys.readouterr().out)
        assert main(["trace", "summarize", str(trace)]) == 0
        summarized = rows(capsys.readouterr().out)
        per_call = {"tree_eval", "reclassify", "timing_update"}
        assert summarized == [
            row for row in profiled if row[0].strip() not in per_call
        ]
        assert [name for name, _ in summarized if name == name.strip()] == [
            "route", "build_result", "route_channels", "sign_off",
            "lower_bound",
        ]

    def test_summarize_missing_file_errors(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert code == 2  # unusable input
        assert "cannot read trace" in capsys.readouterr().err


class TestPhaseTree:
    def test_route_opens_setup_and_initial(self, library):
        profiler = PhaseProfiler()
        route_chain(library, profiler=profiler)
        assert {"setup", "initial"} <= set(profiler.node("route").children)
