"""End-to-end tests for `repro-router batch` and CLI error hardening."""

import json

from repro.bench.circuits import small_suite
from repro.bench.runner import RunRecord
from repro.cli import main
from repro.exec import JobSpec, run_batch
from repro.obs.manifest import read_manifest
from repro.obs.metrics import get_registry


def _counting_runner(spec):
    """A job runner that leans on the process-global registry — the
    pattern the batch engine must isolate per job."""
    registry = get_registry()
    registry.counter("test.jobs_seen").inc()
    return RunRecord(
        dataset=spec.dataset.name,
        constrained=spec.constrained,
        delay_ps=1.0, area_mm2=1.0, length_mm=1.0, cpu_s=0.0,
        lower_bound_ps=1.0, violations=0, worst_margin_ps=0.0,
        cells=1, nets=1, n_constraints=0, feed_cells_inserted=0,
        deletions=0, reroutes=0,
        metrics=registry.flat(),
    )


class TestRegistryScoping:
    """run_batch must give every job a fresh global registry: metrics
    recorded via get_registry() in job N must not leak into job N+1."""

    def test_inline_jobs_do_not_share_registry_state(self):
        specs = small_suite()[:3]
        jobs = [JobSpec(spec, True) for spec in specs]
        sweep = run_batch(jobs, workers=0, runner=_counting_runner)
        assert sweep.all_ok
        for record in sweep.records():
            assert record.metrics["test.jobs_seen"] == 1.0

    def test_batch_leaves_the_callers_registry_untouched(self):
        registry = get_registry()
        before = registry.flat().get("test.jobs_seen", 0.0)
        jobs = [JobSpec(spec, True) for spec in small_suite()[:2]]
        run_batch(jobs, workers=0, runner=_counting_runner)
        assert registry.flat().get("test.jobs_seen", 0.0) == before


def run_batch_cli(tmp_path, *extra):
    return main([
        "batch",
        "--suite", "small",
        "--limit", "2",
        "--workers", "0",
        "--cache-dir", str(tmp_path / "cache"),
        *extra,
    ])


class TestBatchCommand:
    def test_cold_then_warm_run_hits_cache(self, tmp_path, capsys):
        code = run_batch_cli(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hits: 0/2" in out
        assert "2 computed" in out

        code = run_batch_cli(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hits: 2/2" in out

    def test_resume_reports_checkpoint_state(self, tmp_path, capsys):
        code = run_batch_cli(tmp_path, "--resume")
        assert code == 0
        out = capsys.readouterr().out
        assert "no prior checkpoint" in out

        code = run_batch_cli(tmp_path, "--resume")
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming sweep from" in out
        assert "cache hits: 2/2" in out

    def test_rollup_manifest_written(self, tmp_path, capsys):
        rollup = tmp_path / "rollup.json"
        code = run_batch_cli(tmp_path, "--out", str(rollup))
        assert code == 0
        payload = read_manifest(rollup)
        assert payload["results"]["failed"] == 0
        assert len(payload["results"]["jobs"]) == 2

    def test_per_job_manifests_written(self, tmp_path, capsys):
        manifests = tmp_path / "manifests"
        code = run_batch_cli(tmp_path, "--manifests", str(manifests))
        assert code == 0
        names = sorted(p.name for p in manifests.glob("*.json"))
        assert any(n.startswith("sweep-") for n in names)
        assert len(names) == 3  # 2 job manifests + 1 rollup

    def test_resume_conflicts_with_no_cache(self, tmp_path, capsys):
        code = run_batch_cli(tmp_path, "--resume", "--no-cache")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_selection_is_an_input_error(self, tmp_path, capsys):
        code = run_batch_cli(tmp_path, "--limit", "0")
        assert code == 2
        assert "no jobs" in capsys.readouterr().err


class TestCliErrorHardening:
    """Missing/empty/malformed inputs: one-line error, exit code 2."""

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "no.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_trace_summarize_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["trace", "summarize", str(empty)])
        assert code == 2
        assert "no events" in capsys.readouterr().err

    def test_trace_summarize_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is { not jsonl\n")
        code = main(["trace", "summarize", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_summarize_skips_unknown_kinds_with_warning(
        self, tmp_path, capsys
    ):
        """A trace written by a newer tool must summarize, not KeyError."""
        trace = tmp_path / "newer.jsonl"
        trace.write_text("\n".join([
            json.dumps({"kind": "run_start", "seq": 0, "t": 0.0,
                        "circuit": "demo", "nets": 3}),
            json.dumps({"kind": "quantum_flux", "seq": 1, "t": 0.1,
                        "entanglement": 0.9}),
            json.dumps({"kind": "run_end", "seq": 2, "t": 0.2,
                        "wall_s": 0.2, "deletions": 0, "reroutes": 0,
                        "violations": 0}),
        ]) + "\n")
        code = main(["trace", "summarize", str(trace)])
        captured = capsys.readouterr()
        assert code == 0
        assert "quantum_flux" in captured.err
        assert "skipping 1 event" in captured.err
        assert "circuit demo" in captured.out

    def test_trace_summarize_all_unknown_kinds_exits_2(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "alien.jsonl"
        trace.write_text("\n".join([
            json.dumps({"kind": "quantum_flux", "seq": 0, "t": 0.0}),
            json.dumps({"kind": "hyper_lane", "seq": 1, "t": 0.1}),
        ]) + "\n")
        code = main(["trace", "summarize", str(trace)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no recognized events" in captured.err.splitlines()[-1]

    def test_compare_runs_missing_manifest(self, tmp_path, capsys):
        missing = tmp_path / "gone.json"
        code = main(["compare-runs", str(missing), str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "gone.json" in err

    def test_compare_runs_malformed_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["compare-runs", str(bad), str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_route_malformed_netlist(self, tmp_path, capsys):
        bad = tmp_path / "bad.rnl"
        bad.write_text("garbage header\n")
        code = main(["route", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_route_malformed_placement(self, tmp_path, capsys):
        netlist = tmp_path / "c.rnl"
        main(["generate", "hard_demo", "--gates", "20",
              "--out", str(netlist)])
        capsys.readouterr()
        bad = tmp_path / "bad.rpl"
        bad.write_text("not a placement\n")
        code = main(["route", str(netlist), "--placement", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
