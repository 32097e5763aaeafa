"""Run-diff regression gates: manifest/trace diffing and the
``compare-runs`` CLI, including the two acceptance scenarios — seed
divergence stays green, an injected density regression goes red — the
one record every manifest carries (the signed-off ``RunRecord`` row),
sweep rollups diffed job by job, and the rejection of unusable inputs
(exit 2)."""

import dataclasses
import json
import re

import pytest

from repro.analysis.run_diff import classify_input, deletion_divergence
from repro.bench.circuits import small_suite
from repro.bench.runner import RunRecord, run_dataset
from repro.cli import main
from repro.exec import JobSpec, execute_job
from repro.obs import (
    MANIFEST_SCHEMA,
    MemorySink,
    build_run_manifest,
    events_to_jsonl,
)

_SPECS = {spec.name: spec for spec in small_suite()}
LOOSE = [
    "--max-delay-pct", "50", "--max-length-pct", "50",
    "--max-peak-delta", "50", "--max-violations-delta", "5",
]


def _route_run(spec):
    sink = MemorySink()
    record = run_dataset(spec, True, trace_sink=sink)[0]
    manifest = build_run_manifest(dataset={"name": spec.name}, record=record)
    return manifest.to_dict(), sink.events


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def seed_pair(tmp_path_factory):
    """The same design routed under two circuit seeds, on disk."""
    base = _SPECS["S1P1"]
    reseeded = dataclasses.replace(
        base,
        circuit=dataclasses.replace(base.circuit, seed=base.circuit.seed + 1),
    )
    root = tmp_path_factory.mktemp("seedpair")
    paths = {}
    for tag, spec in (("a", base), ("b", reseeded)):
        manifest, events = _route_run(spec)
        manifest_path = root / f"manifest_{tag}.json"
        manifest_path.write_text(json.dumps(manifest))
        trace_path = root / f"trace_{tag}.jsonl"
        trace_path.write_text(events_to_jsonl(events))
        paths[tag] = (manifest_path, trace_path, manifest, events)
    return paths


class TestSeedDivergenceAcceptance:
    def test_loose_thresholds_pass_and_report_divergence(
        self, seed_pair, capsys
    ):
        (old_m, old_t, _, _), (new_m, new_t, _, _) = (
            seed_pair["a"], seed_pair["b"],
        )
        code = main([
            "compare-runs", str(old_m), str(new_m),
            "--trace", str(old_t), str(new_t), *LOOSE,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "diverge at deletion #" in out
        assert "OK: all deltas within thresholds" in out

    def test_divergence_point_is_the_first_differing_deletion(
        self, seed_pair
    ):
        (_, _, _, events_a), (_, _, _, events_b) = (
            seed_pair["a"], seed_pair["b"],
        )
        divergence = deletion_divergence(events_a, events_b)
        index = divergence["index"]
        assert index is not None
        deleted_a = [
            (e.data["net"], e.data["edge"])
            for e in events_a if e.kind == "edge_deleted"
        ]
        deleted_b = [
            (e.data["net"], e.data["edge"])
            for e in events_b if e.kind == "edge_deleted"
        ]
        assert deleted_a[:index] == deleted_b[:index]
        assert deleted_a[index] != deleted_b[index]

    def test_identical_runs_have_no_divergence(self, seed_pair):
        (_, _, _, events_a) = seed_pair["a"]
        divergence = deletion_divergence(events_a, events_a)
        assert divergence["index"] is None
        assert divergence["compared"] > 0


class TestInjectedRegression:
    def test_density_regression_fails_the_gate(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["metrics"]["router.peak_density_total"] += 20
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        # Default max_peak_delta (8 tracks) catches the +20 injection.
        code = main([
            "compare-runs", str(manifest_path), str(worse_path),
        ])
        assert code == 1

    def test_delay_regression_fails_the_gate(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["results"]["delay_ps"] *= 2.0
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        code = main([
            "compare-runs", str(manifest_path), str(worse_path), *LOOSE,
        ])
        assert code == 1

    def test_identical_manifests_pass_tight_thresholds(self, seed_pair):
        manifest_path, _, _, _ = seed_pair["a"]
        code = main([
            "compare-runs", str(manifest_path), str(manifest_path),
            "--max-delay-pct", "0.1", "--max-length-pct", "0.1",
            "--max-peak-delta", "0",
        ])
        assert code == 0

    def test_json_report_records_failures(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["results"]["violations"] += 3
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        report_path = tmp_path / "diff.json"
        code = main([
            "compare-runs", str(manifest_path), str(worse_path),
            "--json", str(report_path),
        ])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert any(
            "violations" in failure for failure in payload["failures"]
        )


class TestInputClassification:
    def test_classify_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            classify_input({"schema": "something-else/9"})

    def test_kind_mismatch_is_an_input_error(self, seed_pair, tmp_path):
        manifest_path, _, _, _ = seed_pair["a"]
        bench_path = tmp_path / "bench.json"
        # A retired bench-snapshot schema: compare-runs diffs manifests
        # only.
        bench_path.write_text(json.dumps({
            "schema": "repro-bench-selection/3",
            "designs": {},
        }))
        code = main([
            "compare-runs", str(manifest_path), str(bench_path),
        ])
        assert code == 2

    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys):
        missing = tmp_path / "gone.json"
        code = main(["compare-runs", str(missing), str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------
# One record per run, one differ for runs and sweeps
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_run(tmp_path_factory):
    """One ``batch`` sweep of four small-suite jobs, writing both the
    per-job manifests and the ``--out`` rollup."""
    root = tmp_path_factory.mktemp("batch")
    manifests = root / "manifests"
    rollup = root / "rollup.json"
    assert main([
        "batch", "--suite", "small", "--limit", "4", "--workers", "0",
        "--no-cache", "--manifests", str(manifests), "--out", str(rollup),
    ]) == 0
    jobs = sorted(
        p for p in manifests.glob("*.manifest.json")
        if not p.name.startswith("sweep-")
    )
    assert len(jobs) == 4
    return jobs, rollup


def _job_id(path):
    return path.name.rsplit("-", 1)[0]


class TestOneRecord:
    def test_job_manifest_results_are_the_job_record(self, batch_run):
        jobs, _ = batch_run
        specs = {
            spec.job_id: spec
            for spec in (
                JobSpec(dataset, constrained)
                for dataset in small_suite()
                for constrained in (True, False)
            )
        }
        path = jobs[0]
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA == "repro-run-manifest/2"
        record = execute_job(specs[_job_id(path)])
        expected = record.to_row()
        results = dict(manifest["results"])
        for row in (results, expected):
            row.pop("cpu_s")
        assert results == expected
        assert set(manifest["metrics"]) == set(record.metrics)

    def test_route_manifest_records_the_signed_off_row(
        self, tmp_path, capsys
    ):
        netlist, placement = tmp_path / "d.rnl", tmp_path / "d.rpl"
        assert main([
            "generate", "demo", "--gates", "60", "--flops", "8",
            "--inputs", "5", "--outputs", "4", "--out", str(netlist),
            "--placement-out", str(placement),
        ]) == 0
        manifest_path = tmp_path / "run.manifest.json"
        assert main([
            "route", str(netlist), "--placement", str(placement),
            "--constraints", "3", "--manifest", str(manifest_path),
        ]) == 0
        out = capsys.readouterr().out
        printed = float(
            re.search(r"signed-off delay\s+([0-9.]+) ps", out).group(1)
        )
        area = float(re.search(r"signed-off area\s+([0-9.]+)", out).group(1))
        results = json.loads(manifest_path.read_text())["results"]
        assert sorted(results) == sorted([*RunRecord.fields(), "phases"])
        assert round(results["delay_ps"], 1) == printed
        assert round(results["area_mm2"], 4) == area
        assert results["dataset"] == "demo" and results["constrained"]
        assert "lower_bound" in results["phases"]

    def test_doubled_job_record_fails_the_gate(
        self, batch_run, tmp_path, capsys
    ):
        jobs, _ = batch_run
        manifest = json.loads(jobs[0].read_text())
        for name in ("delay_ps", "length_mm", "area_mm2"):
            manifest["results"][name] *= 2.0
        worse = _write(tmp_path / "worse.json", manifest)
        code = main(["compare-runs", str(jobs[0]), str(worse)])
        out = capsys.readouterr().out
        assert code == 1
        assert "delay_ps grew +100.00%" in out
        assert "length_mm grew +100.00%" in out
        assert re.search(r"area_mm2 .*\[report-only\]", out)

    def test_missing_gated_field_is_an_input_error(
        self, batch_run, tmp_path, capsys
    ):
        jobs, _ = batch_run
        manifest = json.loads(jobs[0].read_text())
        del manifest["results"]["length_mm"]
        broken = _write(tmp_path / "broken.json", manifest)
        code = main(["compare-runs", str(jobs[0]), str(broken)])
        err = capsys.readouterr().err
        assert code == 2
        assert "results.length_mm" in err and "broken.json" in err

    def test_missing_peak_metric_is_an_input_error(
        self, batch_run, tmp_path, capsys
    ):
        jobs, _ = batch_run
        manifest = json.loads(jobs[0].read_text())
        del manifest["metrics"]["router.peak_density_total"]
        broken = _write(tmp_path / "broken.json", manifest)
        code = main(["compare-runs", str(broken), str(jobs[0])])
        err = capsys.readouterr().err
        assert code == 2
        assert "metrics.router.peak_density_total" in err
        assert "broken.json" in err

    def test_schema_1_manifest_is_an_input_error(
        self, batch_run, tmp_path, capsys
    ):
        jobs, _ = batch_run
        manifest = json.loads(jobs[0].read_text())
        manifest["schema"] = "repro-run-manifest/1"
        old = _write(tmp_path / "old.json", manifest)
        code = main(["compare-runs", str(old), str(jobs[0])])
        assert code == 2
        assert "repro-run-manifest/1" in capsys.readouterr().err

    def test_run_against_rollup_is_an_input_error(
        self, batch_run, capsys
    ):
        jobs, rollup = batch_run
        assert main(["compare-runs", str(jobs[0]), str(rollup)]) == 2
        assert main(["compare-runs", str(rollup), str(jobs[0])]) == 2
        assert "rollup" in capsys.readouterr().err

    def test_compare_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "a.json", "b.json"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSweepDiff:
    def test_identical_rollups_pass_with_per_job_lines(
        self, batch_run, capsys
    ):
        _, rollup = batch_run
        jobs = json.loads(rollup.read_text())["results"]["jobs"]
        assert len(jobs) == 4
        assert main(["compare-runs", str(rollup), str(rollup)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("compare-runs (sweep)")
        for job_id in jobs:
            assert f"{job_id}: delay_ps" in out
            assert f"{job_id}: router.peak_density_total" in out
        assert "OK: all deltas within thresholds" in out

    def test_one_slower_job_fails_naming_it(
        self, batch_run, tmp_path, capsys
    ):
        _, rollup = batch_run
        payload = json.loads(rollup.read_text())
        job_id = sorted(payload["results"]["jobs"])[1]
        payload["results"]["jobs"][job_id]["record"]["delay_ps"] *= 1.1
        worse = _write(tmp_path / "worse.json", payload)
        code = main(["compare-runs", str(rollup), str(worse)])
        out = capsys.readouterr().out
        assert code == 1
        failures = out.split("FAILURES:")[1]
        assert f"{job_id}: delay_ps grew +10.00%" in failures
        assert failures.count("delay_ps") == 1

    def test_job_missing_from_new_fails(self, batch_run, tmp_path, capsys):
        _, rollup = batch_run
        payload = json.loads(rollup.read_text())
        job_id = sorted(payload["results"]["jobs"])[0]
        del payload["results"]["jobs"][job_id]
        smaller = _write(tmp_path / "smaller.json", payload)
        assert main(["compare-runs", str(rollup), str(smaller)]) == 1
        assert f"{job_id} ok in OLD, absent in NEW" in capsys.readouterr().out
        # The other way round the extra job is only reported.
        assert main(["compare-runs", str(smaller), str(rollup)]) == 0
        assert re.search(
            rf"{re.escape(job_id)}: status .*\[new job\]",
            capsys.readouterr().out,
        )

    def test_failed_job_in_new_fails(self, batch_run, tmp_path, capsys):
        _, rollup = batch_run
        payload = json.loads(rollup.read_text())
        job_id = sorted(payload["results"]["jobs"])[2]
        job = payload["results"]["jobs"][job_id]
        job.update(status="failed", error="boom")
        del job["record"]
        failed = _write(tmp_path / "failed.json", payload)
        assert main(["compare-runs", str(rollup), str(failed)]) == 1
        assert f"{job_id} ok in OLD, failed in NEW" in capsys.readouterr().out

    def test_missing_record_field_names_job_and_file(
        self, batch_run, tmp_path, capsys
    ):
        _, rollup = batch_run
        payload = json.loads(rollup.read_text())
        job_id = sorted(payload["results"]["jobs"])[0]
        del payload["results"]["jobs"][job_id]["record"]["violations"]
        broken = _write(tmp_path / "broken.json", payload)
        assert main(["compare-runs", str(rollup), str(broken)]) == 2
        err = capsys.readouterr().err
        assert f"results.jobs.{job_id}.record.violations" in err
        assert "broken.json" in err

    def test_trace_with_sweeps_is_an_input_error(
        self, batch_run, seed_pair, capsys
    ):
        _, rollup = batch_run
        _, trace, _, _ = seed_pair["a"]
        code = main([
            "compare-runs", str(rollup), str(rollup),
            "--trace", str(trace), str(trace),
        ])
        assert code == 2
        assert "--trace" in capsys.readouterr().err
