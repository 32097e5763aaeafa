"""Fault-injection tests for repro.exec.pool.

The runners below stand in for real routing jobs; each interprets the
dataset *name* as a little script ("raise", "hang", "die", or a marker
directory for cross-process state), so crash isolation, timeouts, retry
and resume can be exercised in milliseconds.  They are module-level
functions because worker subprocesses must be able to pickle/import
them.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.circuits import CircuitSpec, DatasetSpec, small_suite
from repro.bench.runner import RunRecord
from repro.core.config import RouterConfig
from repro.errors import ConfigError
from repro.io.json_report import run_record_to_dict
from repro.exec import pool as pool_module
from repro.exec import (
    CHECKPOINT_SCHEMA,
    JobSpec,
    ProgressEvent,
    ResultCache,
    SweepReporter,
    run_batch,
)
from repro.layout.placer import FeedStyle
from repro.obs.manifest import read_manifest


def job(name):
    """A JobSpec whose dataset name doubles as a fault script."""
    return JobSpec(
        DatasetSpec(
            name,
            CircuitSpec(
                "F", n_gates=4, n_flops=0, n_inputs=1, n_outputs=1,
                n_diff_pairs=0, seed=1,
            ),
            FeedStyle.EVEN,
            n_constraints=0,
        )
    )


def make_record(name):
    return RunRecord(
        dataset=name,
        constrained=True,
        delay_ps=50.0,
        area_mm2=1.0,
        length_mm=1.0,
        cpu_s=0.0,
        lower_bound_ps=40.0,
        violations=0,
        worst_margin_ps=1.0,
        cells=4,
        nets=4,
        n_constraints=0,
        feed_cells_inserted=0,
        deletions=0,
        reroutes=0,
    )


# ----------------------------------------------------------------------
# Fault runners (module-level: must be reachable from worker processes)
# ----------------------------------------------------------------------
def scripted_runner(spec):
    """Interprets the dataset name: 'verb' or 'verb:<marker-dir>'."""
    name = spec.dataset.name
    verb, _, arg = name.partition(":")
    if verb == "raise":
        raise ValueError("injected failure")
    if verb == "hang":
        time.sleep(60)
    if verb == "die":
        os._exit(23)  # simulates a segfaulted/killed worker
    if verb == "flaky":
        # Fails on the first attempt, succeeds afterwards; the marker
        # file carries state across worker processes.
        marker = Path(arg) / "attempted"
        if not marker.exists():
            marker.touch()
            raise RuntimeError("first attempt fails")
    if verb == "logged":
        # Records every execution so resume tests can count real work.
        directory, _, label = arg.partition(",")
        with open(Path(directory) / "runs.log", "a") as handle:
            handle.write(label + "\n")
        if label == "broken" and not (Path(directory) / "fixed").exists():
            raise RuntimeError("still broken")
        name = label
    return make_record(name)


def executions(tmp_path):
    log = tmp_path / "runs.log"
    if not log.exists():
        return []
    return log.read_text().split()


class TestInlineExecution:
    def test_outcomes_preserve_job_order(self):
        jobs = [job("a"), job("b"), job("c")]
        sweep = run_batch(jobs, workers=0, runner=scripted_runner)
        assert [o.spec.dataset.name for o in sweep.outcomes] == [
            "a", "b", "c",
        ]
        assert sweep.all_ok and sweep.n_ok == 3
        assert all(o.attempts == 1 for o in sweep.outcomes)

    def test_raising_job_fails_without_stopping_the_sweep(self):
        jobs = [job("a"), job("raise"), job("b")]
        sweep = run_batch(jobs, workers=0, runner=scripted_runner)
        statuses = [o.status for o in sweep.outcomes]
        assert statuses == ["ok", "failed", "ok"]
        assert "injected failure" in sweep.outcomes[1].error
        assert not sweep.all_ok

    def test_retry_until_success(self, tmp_path):
        sweep = run_batch(
            [job(f"flaky:{tmp_path}")],
            workers=0,
            retries=1,
            backoff_s=0.0,
            runner=scripted_runner,
        )
        outcome = sweep.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_retries_bounded(self):
        sweep = run_batch(
            [job("raise")],
            workers=0,
            retries=2,
            backoff_s=0.0,
            runner=scripted_runner,
        )
        outcome = sweep.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # 1 initial + 2 retries

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            run_batch([], workers=-1)
        with pytest.raises(ConfigError):
            run_batch([], retries=-1)
        with pytest.raises(ConfigError):
            run_batch([], backoff_s=-0.1)


class TestPoolFaultTolerance:
    def test_parallel_ok(self):
        jobs = [job(f"p{i}") for i in range(4)]
        sweep = run_batch(jobs, workers=2, runner=scripted_runner)
        assert sweep.all_ok
        assert [o.spec.dataset.name for o in sweep.outcomes] == [
            "p0", "p1", "p2", "p3",
        ]

    def test_raising_worker_is_isolated(self):
        jobs = [job("a"), job("raise"), job("b")]
        sweep = run_batch(jobs, workers=2, runner=scripted_runner)
        assert [o.status for o in sweep.outcomes] == [
            "ok", "failed", "ok",
        ]
        assert "ValueError" in sweep.outcomes[1].error

    def test_hung_worker_times_out(self):
        jobs = [job("a"), job("hang"), job("b")]
        started = time.monotonic()
        sweep = run_batch(
            jobs, workers=2, timeout_s=1.0, runner=scripted_runner
        )
        wall = time.monotonic() - started
        assert [o.status for o in sweep.outcomes] == [
            "ok", "failed", "ok",
        ]
        assert "timeout" in sweep.outcomes[1].error
        assert wall < 30.0  # the 60s sleep was cut short

    def test_killed_worker_is_isolated(self):
        jobs = [job("a"), job("die"), job("b")]
        sweep = run_batch(jobs, workers=2, runner=scripted_runner)
        assert [o.status for o in sweep.outcomes] == [
            "ok", "failed", "ok",
        ]
        assert "worker died" in sweep.outcomes[1].error
        assert "23" in sweep.outcomes[1].error

    def test_retry_across_processes(self, tmp_path):
        sweep = run_batch(
            [job(f"flaky:{tmp_path}")],
            workers=1,
            retries=2,
            backoff_s=0.0,
            runner=scripted_runner,
        )
        outcome = sweep.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_scheduler_wakes_on_results_without_sleeping(self, monkeypatch):
        # A job's first poll usually finds no result yet; the scheduler
        # must then block on the workers' pipes and sentinels, not sleep.
        sleeps = []

        class CountingTime:
            def __getattr__(self, name):
                return getattr(time, name)

            def sleep(self, seconds):
                sleeps.append(seconds)
                time.sleep(seconds)

        monkeypatch.setattr(pool_module, "time", CountingTime())
        jobs = [job(f"s{i}") for i in range(5)]
        sweep = run_batch(jobs, workers=1, runner=scripted_runner)
        assert sweep.all_ok and sweep.n_ok == 5
        assert sleeps == []

    def test_failed_job_reported_in_summary(self):
        sweep = run_batch(
            [job("a"), job("raise")], workers=1, runner=scripted_runner
        )
        text = sweep.summary()
        assert "1 failed" in text
        assert "FAILED raise.c.s1" in text


class TestCacheAndResume:
    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [job("a"), job("b")]
        cold = run_batch(
            jobs, workers=0, cache=cache, runner=scripted_runner
        )
        assert cold.n_ok == 2 and cold.n_cached == 0
        warm = run_batch(
            jobs, workers=0, cache=cache, runner=scripted_runner
        )
        assert warm.n_cached == 2 and warm.n_ok == 0
        assert (
            warm.outcomes[0].record.to_row()
            == cold.outcomes[0].record.to_row()
        )

    def test_read_cache_false_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [job(f"logged:{tmp_path},x")]
        run_batch(jobs, workers=0, cache=cache, runner=scripted_runner)
        run_batch(
            jobs,
            workers=0,
            cache=cache,
            read_cache=False,
            runner=scripted_runner,
        )
        assert executions(tmp_path) == ["x", "x"]

    def test_resume_runs_only_unfinished_jobs(self, tmp_path):
        # Sweep 1: two jobs complete, one fails exhaustively.  Sweep 2
        # (after the fix): only the failed job runs again.
        cache = ResultCache(tmp_path / "cache")
        jobs = [
            job(f"logged:{tmp_path},good1"),
            job(f"logged:{tmp_path},broken"),
            job(f"logged:{tmp_path},good2"),
        ]
        first = run_batch(
            jobs, workers=0, cache=cache, runner=scripted_runner
        )
        assert [o.status for o in first.outcomes] == [
            "ok", "failed", "ok",
        ]
        assert executions(tmp_path) == ["good1", "broken", "good2"]

        (tmp_path / "fixed").touch()
        second = run_batch(
            jobs, workers=0, cache=cache, runner=scripted_runner
        )
        assert [o.status for o in second.outcomes] == [
            "cached", "ok", "cached",
        ]
        # Only the previously failed job did any new work.
        assert executions(tmp_path) == [
            "good1", "broken", "good2", "broken",
        ]
        assert second.all_ok

    def test_checkpoint_records_every_job_status(self, tmp_path):
        import json

        cache = ResultCache(tmp_path / "cache")
        jobs = [job("a"), job("raise")]
        sweep = run_batch(
            jobs, workers=0, cache=cache, runner=scripted_runner
        )
        assert sweep.checkpoint_path is not None
        payload = json.loads(sweep.checkpoint_path.read_text())
        assert payload["schema"] == CHECKPOINT_SCHEMA
        statuses = {
            entry["job_id"]: entry["status"]
            for entry in payload["jobs"].values()
        }
        assert statuses["a.c.s1"] == "ok"
        assert statuses["raise.c.s1"] == "failed"


class TestProgressAndManifests:
    def test_event_stream_lifecycle(self, tmp_path):
        events = []
        run_batch(
            [job("a"), job(f"flaky:{tmp_path}")],
            workers=0,
            retries=1,
            backoff_s=0.0,
            runner=scripted_runner,
            on_event=events.append,
        )
        kinds = [(e.job_id, e.kind) for e in events]
        assert ("a.c.s1", "started") in kinds
        assert ("a.c.s1", "ok") in kinds
        flaky_id = f"flaky:{tmp_path}.c.s1"
        assert kinds.count((flaky_id, "started")) == 2
        assert (flaky_id, "retry") in kinds
        assert (flaky_id, "ok") in kinds

    def test_printer_survives_closed_stream(self, tmp_path):
        from repro.exec import ProgressPrinter

        stream = open(tmp_path / "progress.log", "w")
        printer = ProgressPrinter(stream)
        stream.close()  # e.g. stdout piped into `head`
        run_batch(
            [job("a")], workers=0, runner=scripted_runner,
            on_event=printer,
        )  # must not raise

    def test_event_formatting(self):
        event = ProgressEvent(
            kind="failed", job_id="x.c.s1", index=0, total=2,
            attempt=3, error="boom",
        )
        text = event.format()
        assert "x.c.s1" in text and "FAILED" in text and "boom" in text

    def test_sweep_reporter_counts(self, tmp_path):
        reporter = SweepReporter()
        run_batch(
            [job("a"), job("raise"), job(f"flaky:{tmp_path}")],
            workers=0,
            retries=1,
            backoff_s=0.0,
            runner=scripted_runner,
            on_event=reporter,
        )
        flat = reporter.metrics.flat()
        assert flat["sweep.jobs_ok"] == 2
        assert flat["sweep.jobs_failed"] == 1
        assert flat["sweep.job_retries"] >= 1

    def test_manifests_per_job_and_rollup(self, tmp_path):
        manifest_dir = tmp_path / "manifests"
        sweep = run_batch(
            [job("a"), job("raise")],
            workers=0,
            runner=scripted_runner,
            manifest_dir=manifest_dir,
        )
        files = sorted(p.name for p in manifest_dir.glob("*.json"))
        job_manifests = [n for n in files if n.startswith("a.c.s1-")]
        rollups = [n for n in files if n.startswith("sweep-")]
        assert len(job_manifests) == 1
        assert len(rollups) == 1
        rollup = read_manifest(manifest_dir / rollups[0])
        jobs_payload = rollup["results"]["jobs"]
        assert jobs_payload["a.c.s1"]["status"] == "ok"
        assert jobs_payload["raise.c.s1"]["status"] == "failed"
        assert rollup["results"]["failed"] == 1
        assert sweep.sweep_id in rollups[0]

    def test_rollup_keeps_every_job_when_ids_collide(self):
        """One design under both engines shares a job id; the rollup
        keys those jobs apart instead of keeping one record."""
        (spec,) = [s for s in small_suite() if s.name == "S1P1"]
        engines = [
            JobSpec(spec, config=RouterConfig(routing_engine=engine))
            for engine in ("edge-deletion", "negotiated")
        ]
        assert engines[0].job_id == engines[1].job_id
        sweep = run_batch(
            engines + [job("a")], workers=0, runner=scripted_runner
        )
        payload = sweep.rollup.to_dict()
        jobs = payload["results"]["jobs"]
        assert len(jobs) == payload["dataset"]["jobs"] == 3
        assert set(jobs) == {
            engines[0].unique_id, engines[1].unique_id, "a.c.s1"
        }
        assert all(entry["status"] == "ok" for entry in jobs.values())

    def test_one_rollup_per_sweep(self, tmp_path):
        """The rollup written next to the job manifests is the sweep's
        own live-counted rollup, the document ``batch --out`` writes."""
        attempts = []

        def fails_once(spec):
            attempts.append(spec.job_id)
            if len(attempts) == 1:
                raise RuntimeError("first attempt fails")
            return make_record(spec.dataset.name)

        manifest_dir = tmp_path / "manifests"
        sweep = run_batch(
            [job("a")], workers=0, retries=1, backoff_s=0.0,
            runner=fails_once, manifest_dir=manifest_dir,
        )
        (path,) = manifest_dir.glob("sweep-*.manifest.json")
        written = read_manifest(path)
        assert written == json.loads(
            json.dumps(sweep.rollup.to_dict(), default=str)
        )
        assert written["metrics"]["sweep.jobs_started"] == 1
        assert written["metrics"]["sweep.job_retries"] == 1
        job_payload = written["results"]["jobs"]["a.c.s1"]
        assert job_payload["attempts"] == 2
        assert job_payload["record"] == run_record_to_dict(make_record("a"))
