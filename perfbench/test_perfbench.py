"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The end-to-end cases shrink each workload's job set so that a run takes
seconds; the code path is the one the full workload takes.
"""

import json
import re
import time

import pytest

import batch_load
import ledger
import run
import service_load
from repro.bench.circuits import standard_suite

SPEC = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(workloads) == sorted(run.MODULES)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + workloads
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # A run stops at --seconds, plus a few seconds of start-up and checks.
    assert 4 + 22 * len(workloads) <= 3420 / (SPEC["run_seconds"] + 10)


def test_default_seed_keeps_the_committed_designs():
    committed = {spec.name: spec for spec in standard_suite()}
    jobs = batch_load.table2_jobs(0)
    for spec in jobs[:10]:
        assert spec.resolved_dataset() == committed[spec.dataset.name]
    derived = jobs[10:] + batch_load.table2_jobs(7)
    assert all(s.resolved_dataset().circuit.seed > 1000 for s in derived)
    assert len({s.job_id for s in derived}) == len(derived)
    for workload, make in batch_load.JOBS.items():
        expected = ledger.load_expected(workload)
        assert sorted(expected) == sorted(s.job_id for s in make(0))


def test_service_submissions_are_all_cold():
    keys = {
        service_load.job_spec(p).cache_key()
        for p in service_load.submissions(3)
    }
    assert len(keys) == service_load.COLD_JOBS


def test_probe_sampler_stops_its_thread():
    with ledger.ProbeSampler() as sampler:
        time.sleep(0.05)
    assert not sampler._thread.is_alive()
    assert sampler.probes and sampler.mean() > 0
    assert ledger.at_nominal(2.0, 2 * ledger.NOMINAL_PROBE_S) == 1.0


def test_route_sub_phases_add_up():
    spec = batch_load.table2_jobs(0)[0]
    outcome = batch_load.run_flow(spec, ledger.Spans(True, 0.0))
    assert outcome.problems == []
    layers = batch_load.per_layer([outcome])
    assert set(layers) <= {m["name"] for m in SPEC["per_layer"]}
    phases = sum(layers[name] for name in batch_load.ROUTE_TOP_PHASES)
    profile = outcome.profile["route"]
    # Sub-phases cover the profiled route scope; between them run only
    # phase bookkeeping and heartbeats.
    assert phases == pytest.approx(profile["wall_s"], rel=0.02)
    # What the profiler leaves out (engine construction, build_result)
    # is reported, and the flow spans account for the whole flow.
    assert layers["router.unprofiled_s"] >= 0.0
    spans = sum(layers[name] for name in batch_load.FLOW_SPANS)
    assert spans == pytest.approx(outcome.flow_s, rel=0.01)


def test_a_changed_result_fails_the_run():
    spec = batch_load.table2_jobs(0)[0]
    outcome = batch_load.run_flow(spec, ledger.Spans(False, 0.0))
    rnd = batch_load.Round(untraced=[outcome])
    expected = {spec.job_id: outcome.quality}
    assert batch_load.check_rounds([rnd], expected)[:2] == (1, 0)
    expected[spec.job_id] = dict(expected[spec.job_id], deletions=-1)
    assert batch_load.check_rounds([rnd], expected)[:2] == (1, 1)


@pytest.fixture
def small_workloads(monkeypatch):
    table2, negotiated = batch_load.table2_jobs, batch_load.negotiated_jobs
    monkeypatch.setitem(batch_load.JOBS, "table2", lambda s: table2(s)[:2])
    monkeypatch.setitem(
        batch_load.JOBS, "negotiated", lambda s: negotiated(s)[:1]
    )
    monkeypatch.setattr(service_load, "COLD_JOBS", 8)
    monkeypatch.setattr(service_load, "RECHECKED", (0,))


@pytest.mark.parametrize("workload", sorted(run.MODULES))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_end_to_end(small_workloads, capsys, workload, trace):
    args = ["--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "service":
        assert values["service.exec_s_p50"] > 0
    else:
        assert values["router.route_s"] > 0
        assert values["verify.violations"] == 0
    assert json.loads(lines[-2])["seed"] == 5
