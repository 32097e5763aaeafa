"""End-to-end tests for the routing service over real HTTP.

Each test starts a :class:`RoutingService` on an ephemeral loopback
port via :class:`ServiceThread` and talks to it with the stdlib
:class:`ServiceClient`.  Fast tests inject a fake runner; the
trace-fidelity test routes the real ``S1P1`` dataset so the streamed
NDJSON can be compared against an on-disk JSONL trace of the same run.
"""

import asyncio
import gc
import http.client
import json
import os
import socket
import threading
import time
import weakref
from collections import Counter

import pytest

from repro.bench.runner import RunRecord
from repro.exec import JobSpec, ResultCache
from repro.obs import JsonlTraceSink, Tracer, read_trace
from repro.service import (
    JobRequest,
    RoutingService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    build_specs,
    known_datasets,
)
from repro.service.server import _close_connection


def fake_record(spec: JobSpec, delay=250.0) -> RunRecord:
    return RunRecord(
        dataset=spec.dataset.name,
        constrained=spec.constrained,
        delay_ps=delay,
        area_mm2=1.0,
        length_mm=2.0,
        cpu_s=0.001,
        lower_bound_ps=200.0,
        violations=0,
        worst_margin_ps=10.0,
        cells=5,
        nets=6,
        n_constraints=2,
        feed_cells_inserted=0,
        deletions=1,
        reroutes=0,
    )


class FakeRunner:
    """Counts calls; optionally blocks until released (coalescing and
    shutdown tests need a job pinned mid-flight)."""

    def __init__(self, gate: threading.Event = None):
        self.gate = gate
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, spec, *, trace_sink=None, decision_sampling=None):
        with self.lock:
            self.calls.append(spec.job_id)
        if self.gate is not None:
            assert self.gate.wait(timeout=60.0)
        tracer = Tracer.of(trace_sink)
        tracer.emit(
            "margin_attribution", constraint="P1", margin_ps=5.5
        )
        tracer.emit("deletion_decision", deletion_index=0)
        return fake_record(spec)


def paced_runner(spec, *, trace_sink=None, decision_sampling=None):
    """About 0.5 s for S1P1 and 4 s for anything else (module-level so a
    pool worker can run it)."""
    time.sleep(0.5 if spec.dataset.name == "S1P1" else 4.0)
    return fake_record(spec)


def make_service(tmp_path=None, runner=None, **overrides) -> RoutingService:
    settings = dict(port=0, workers=2, isolation=False)
    settings.update(overrides)
    config = ServiceConfig(**settings)
    cache = (
        ResultCache(tmp_path / "cache") if tmp_path is not None else None
    )
    return RoutingService(
        config, cache=cache, runner=runner or FakeRunner()
    )


def raw_request(client: ServiceClient, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(
        client.host, client.port, timeout=30.0
    )
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestJobLifecycle:
    def test_submit_wait_result(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            assert job["status"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout_s=30)
            assert final["status"] == "done"
            assert final["cached"] is False
            result = client.result(job["id"])
            assert result["result"]["record"]["dataset"] == "S1P1"
            assert result["result"]["record"]["delay_ps"] == 250.0

    def test_result_while_pending_is_202(self, tmp_path):
        gate = threading.Event()
        with ServiceThread(
            make_service(tmp_path, FakeRunner(gate))
        ) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 202
            gate.set()
            client.wait(job["id"], timeout_s=30)
            assert client.result(job["id"])["status"] == "done"

    def test_unknown_job_is_404(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            with pytest.raises(ServiceError) as excinfo:
                client.job("deadbeef")
            assert excinfo.value.status == 404

    def test_compare_job_returns_pair_and_delta(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "compare", "dataset": "S2P1"})
            client.wait(job["id"], timeout_s=30)
            result = client.result(job["id"])["result"]
            assert result["constrained"]["constrained"] is True
            assert result["unconstrained"]["constrained"] is False
            assert set(result["delta"]) >= {
                "delay_ps", "delay_pct", "area_mm2", "violations",
            }

    def test_explain_job_carries_attribution(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "explain", "dataset": "S1P1"})
            client.wait(job["id"], timeout_s=30)
            result = client.result(job["id"])["result"]
            assert result["decision_records"] == 1
            [attribution] = result["margin_attribution"]
            assert attribution["constraint"] == "P1"
            assert attribution["margin_ps"] == 5.5

    def test_failed_job_reports_500_with_error(self, tmp_path):
        def broken(spec, *, trace_sink=None, decision_sampling=None):
            raise ValueError("router exploded")

        with ServiceThread(make_service(tmp_path, broken)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            final = client.wait(job["id"], timeout_s=30)
            assert final["status"] == "failed"
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 500
            assert "router exploded" in client.job(job["id"])["error"]


class TestHttpEdges:
    def test_bad_json_body_is_400(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            status, _, _ = raw_request(
                client, "POST", "/jobs", body=b"{nope"
            )
            assert status == 400

    def test_unknown_dataset_is_404(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "route", "dataset": "XXXX"})
            assert excinfo.value.status == 404

    def test_unknown_path_404_wrong_method_405(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            assert raw_request(client, "GET", "/nope")[0] == 404
            assert raw_request(client, "PUT", "/healthz")[0] == 405

    def test_healthz_and_stats_shapes(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["workers"] == 2
            stats = client.stats()
            assert stats["schema"] == "repro-service-stats/1"
            assert isinstance(stats["metrics"], dict)
            assert stats["cache"]["entries"] == 0
            assert stats["quotas"] == {}


class TestCoalescing:
    def test_identical_submissions_share_one_execution(self, tmp_path):
        gate = threading.Event()
        runner = FakeRunner(gate)
        with ServiceThread(make_service(tmp_path, runner)) as thread:
            client = ServiceClient(thread.base_url)
            payload = {"kind": "route", "dataset": "S1P1"}
            first = client.submit(payload)
            others = [client.submit(payload) for _ in range(3)]
            assert all(o["id"] == first["id"] for o in others)
            assert all(o["coalesced"] for o in others)
            assert not first.get("coalesced")
            gate.set()
            client.wait(first["id"], timeout_s=30)
            assert len(runner.calls) == 1
            metrics = client.stats()["metrics"]
            assert metrics["service.jobs_coalesced"] == 3.0
            assert metrics["service.pool_executions"] == 1.0

    def test_delivery_fields_coalesce_too(self, tmp_path):
        # tenant/priority shape delivery, not identity.
        gate = threading.Event()
        runner = FakeRunner(gate)
        with ServiceThread(make_service(tmp_path, runner)) as thread:
            client = ServiceClient(thread.base_url)
            first = client.submit({"kind": "route", "dataset": "S1P1"})
            second = client.submit({
                "kind": "route", "dataset": "S1P1",
                "tenant": "other", "priority": 9,
            })
            assert second["id"] == first["id"]
            gate.set()
            client.wait(first["id"], timeout_s=30)
            assert len(runner.calls) == 1


class TestCacheIntegration:
    def test_warm_resubmission_is_instant_cache_hit(self, tmp_path):
        runner = FakeRunner()
        with ServiceThread(make_service(tmp_path, runner)) as thread:
            client = ServiceClient(thread.base_url)
            payload = {"kind": "route", "dataset": "S1P1"}
            cold = client.submit(payload)
            cold_final = client.wait(cold["id"], timeout_s=30)
            assert cold_final["cached"] is False

            warm = client.submit(payload)
            # Terminal immediately: served from the result cache, no
            # queue, no pool execution, a fresh job id.
            assert warm["status"] == "done"
            assert warm["cached"] is True
            assert warm["id"] != cold["id"]
            record = client.result(warm["id"])["result"]["record"]
            assert record["dataset"] == "S1P1"

            assert len(runner.calls) == 1
            metrics = client.stats()["metrics"]
            assert metrics["service.cache_hits"] == 1.0
            assert metrics["service.pool_executions"] == 1.0

    def test_cache_shared_across_restarts(self, tmp_path):
        runner = FakeRunner()
        with ServiceThread(make_service(tmp_path, runner)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            client.wait(job["id"], timeout_s=30)
        # New server process-equivalent, same artifact store on disk.
        with ServiceThread(make_service(tmp_path, runner)) as thread:
            client = ServiceClient(thread.base_url)
            warm = client.submit({"kind": "route", "dataset": "S1P1"})
            assert warm["status"] == "done" and warm["cached"]
            assert len(runner.calls) == 1


class TestQuotasAndBackpressure:
    def test_over_quota_is_429_with_retry_after(self, tmp_path):
        with ServiceThread(
            make_service(tmp_path, quota_capacity=1.0)
        ) as thread:
            client = ServiceClient(thread.base_url)
            client.submit({"kind": "route", "dataset": "S1P1"})
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "route", "dataset": "S1P2"})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s >= 1.0
            status, headers, _ = raw_request(
                client, "POST", "/jobs",
                body=json.dumps(
                    {"kind": "route", "dataset": "S2P1"}
                ).encode(),
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            metrics = client.stats()["metrics"]
            assert metrics["service.quota_rejected"] == 2.0

    def test_other_tenant_unaffected(self, tmp_path):
        with ServiceThread(
            make_service(tmp_path, quota_capacity=1.0)
        ) as thread:
            client = ServiceClient(thread.base_url)
            client.submit({"kind": "route", "dataset": "S1P1"})
            ok = client.submit({
                "kind": "route", "dataset": "S1P2", "tenant": "ci",
            })
            assert ok["status"] in ("queued", "running", "done")

    def test_full_queue_is_429(self, tmp_path):
        gate = threading.Event()
        try:
            with ServiceThread(
                make_service(
                    tmp_path, FakeRunner(gate),
                    workers=1, max_queue_depth=1,
                )
            ) as thread:
                client = ServiceClient(thread.base_url)
                # One running (pinned by the gate), one queued = full.
                client.submit({"kind": "route", "dataset": "S1P1"})
                deadline = time.monotonic() + 10.0
                queued = None
                while time.monotonic() < deadline:
                    try:
                        queued = client.submit(
                            {"kind": "route", "dataset": "S1P2"}
                        )
                    except ServiceError:
                        continue
                    break
                assert queued is not None
                with pytest.raises(ServiceError) as excinfo:
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        client.submit(
                            {"kind": "route", "dataset": "S2P1"}
                        )
                        time.sleep(0.01)
                assert excinfo.value.status == 429
        finally:
            gate.set()


class TestEventStreaming:
    def test_ndjson_replays_the_jsonl_trace_kinds(self, tmp_path):
        # The acceptance check: the event stream a client receives is
        # the same trace a local --trace run writes to disk.
        from repro.exec.jobs import execute_job

        service = RoutingService(
            ServiceConfig(port=0, workers=1, isolation=False),
            cache=ResultCache(tmp_path / "cache"),
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({
                "kind": "route", "dataset": "S1P1", "trace": True,
            })
            streamed = list(client.events(job["id"]))
            assert client.job(job["id"])["status"] == "done"

        trace_path = tmp_path / "local.jsonl"
        sink = JsonlTraceSink(trace_path)
        [spec] = build_specs(JobRequest(kind="route", dataset="S1P1"))
        try:
            execute_job(spec, trace_sink=sink)
        finally:
            sink.close()
        local_kinds = [e.kind for e in read_trace(trace_path)]
        streamed_kinds = [e["kind"] for e in streamed]
        assert streamed_kinds == local_kinds
        assert "margin_attribution" in streamed_kinds

    def test_stream_of_finished_job_replays_buffer(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({
                "kind": "route", "dataset": "S1P1", "trace": True,
            })
            client.wait(job["id"], timeout_s=30)
            first = list(client.events(job["id"]))
            second = list(client.events(job["id"]))
            assert [e["kind"] for e in first] == [
                "margin_attribution", "deletion_decision",
            ]
            assert first == second

    def test_untraced_job_streams_nothing(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            client.wait(job["id"], timeout_s=30)
            assert list(client.events(job["id"])) == []

    def test_stream_closes_while_another_worker_runs(self, tmp_path):
        # Every pool worker is forked from the server and holds a copy of
        # each socket open at fork time, so a stream must end with a
        # half-close: a plain close() sends no FIN while the slow job's
        # worker lives.
        service = make_service(tmp_path, paced_runner, isolation=True)
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            fast = client.submit({"kind": "route", "dataset": "S1P1"})
            ended = {}

            def follow():
                try:
                    list(client.events(fast["id"]))
                    ended["t"] = time.time()
                except Exception as exc:  # noqa: BLE001 - asserted below
                    ended["error"] = exc

            follower = threading.Thread(target=follow)
            follower.start()
            deadline = time.monotonic() + 5.0
            while (
                not service.jobs[fast["id"]].subscribers
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert service.jobs[fast["id"]].subscribers
            # Forks its worker while the fast job's stream is open.
            client.submit({"kind": "route", "dataset": "S2P1"})
            follower.join(timeout=10.0)
            assert not follower.is_alive()
            assert "error" not in ended, ended.get("error")
            finished_t = client.job(fast["id"])["finished_t"]
            assert ended["t"] - finished_t < 2.0


def read_to_eof(port: int, timeout_s: float = 5.0) -> int:
    """Bytes read from a fresh loopback connection until EOF; raises
    ``socket.timeout`` when no EOF comes within ``timeout_s``."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(timeout_s)
        sock.connect(("127.0.0.1", port))
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return total
            total += len(chunk)


def serve_once(handle) -> int:
    """Run ``handle(reader, writer)`` for one connection; the bytes the
    client read before EOF."""

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await asyncio.to_thread(read_to_eof, port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


class TestConnectionClose:
    """``_close_connection`` against a second holder of the socket, the
    way every forked pool worker holds one."""

    def test_full_write_buffer_is_flushed_then_half_closed(self):
        payload = b"x" * (1 << 20)
        held = []

        async def handle(reader, writer):
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            held.append(os.dup(sock.fileno()))
            writer.write(payload)  # far more than the socket takes
            await _close_connection(writer)

        try:
            assert serve_once(handle) == len(payload)
        finally:
            for fd in held:
                os.close(fd)

    def test_gone_peer_still_closes_the_transport(self):
        closed = []

        async def handle(reader, writer):
            writer.transport.abort()  # the connection is already lost
            await _close_connection(writer)
            closed.append(writer.transport.is_closing())

        assert serve_once(handle) == 0
        assert closed == [True]


class TestGracefulShutdown:
    def test_drain_checkpoints_backlog_and_restart_resumes(
        self, tmp_path
    ):
        gate = threading.Event()
        blocked = FakeRunner(gate)
        service = make_service(
            tmp_path, blocked, workers=1, max_queue_depth=16
        )
        checkpoint = service.checkpoint_path
        thread = ServiceThread(service).start()
        try:
            client = ServiceClient(thread.base_url)
            running = client.submit({"kind": "route", "dataset": "S1P1"})
            deadline = time.monotonic() + 10.0
            while (
                client.job(running["id"])["status"] != "running"
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            queued = [
                client.submit({"kind": "route", "dataset": "S1P2"}),
                client.submit({
                    "kind": "compare", "dataset": "S2P1", "priority": 2,
                }),
            ]
            assert all(j["status"] == "queued" for j in queued)
            # Release the pinned job once the drain has started, so
            # shutdown can finish it while the backlog checkpoints.
            threading.Timer(0.3, gate.set).start()
        finally:
            thread.stop(drain=True)

        assert checkpoint.is_file()
        payloads = json.loads(checkpoint.read_text())["jobs"]
        assert sorted(p["dataset"] for p in payloads) == ["S1P2", "S2P1"]
        # The in-flight job completed (drained), never checkpointed.
        assert all(p["dataset"] != "S1P1" for p in payloads)

        resumed = FakeRunner()
        with ServiceThread(
            make_service(tmp_path, resumed, workers=2)
        ) as thread:
            client = ServiceClient(thread.base_url)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                jobs = client.stats()["jobs"]
                if jobs.get("done", 0) == 2:
                    break
                time.sleep(0.05)
            assert client.stats()["jobs"].get("done", 0) == 2
            # compare runs two specs, route runs one.
            assert len(resumed.calls) == 3
            assert not checkpoint.is_file()  # consumed on restore

    @pytest.mark.parametrize("drain", [True, False])
    def test_stopped_service_is_freed_without_the_cycle_collector(
        self, tmp_path, drain
    ):
        gc.disable()
        try:
            service = make_service(tmp_path)
            thread = ServiceThread(service).start()
            try:
                client = ServiceClient(thread.base_url)
                for payload in (
                    {"kind": "route", "dataset": "S1P1", "trace": True},
                    {"kind": "route", "dataset": "S1P2"},
                ):
                    job = client.submit(payload)
                    list(client.events(job["id"]))
                    assert client.wait(job["id"])["status"] == "done"
            finally:
                thread.stop(drain=drain)
            alive = weakref.ref(service)
            del service, thread
            assert alive() is None
        finally:
            gc.enable()

    def test_submission_during_drain_is_503(self, tmp_path):
        service = make_service(tmp_path)
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            # Flip draining directly; the socket is still open.
            service.draining = True
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "route", "dataset": "S1P1"})
            assert excinfo.value.status == 503
            service.draining = False


class TestDatasets:
    def test_every_advertised_dataset_is_submittable(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            for name in known_datasets():
                job = client.submit({"kind": "route", "dataset": name})
                assert job["dataset"] == name


class TestMetricsEndpoints:
    def test_metrics_is_valid_prometheus_exposition(self, tmp_path):
        import re

        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            client.wait(job["id"], timeout_s=30)
            status, headers, body = raw_request(
                client, "GET", "/metrics"
            )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        assert "# TYPE repro_service_jobs_submitted counter" in text
        assert "repro_service_jobs_submitted 1" in text
        assert "# TYPE repro_cache_entries gauge" in text
        name = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
        sample = re.compile(
            rf'^{name}(\{{quantile="[0-9.]+"\}})? '
            r"(-?[0-9.eE+-]+|NaN|\+Inf)$"
        )
        for line in text.strip().splitlines():
            assert line.startswith("# TYPE ") or sample.match(line), line

    def test_job_metrics_endpoint_shape(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({"kind": "route", "dataset": "S1P1"})
            client.wait(job["id"], timeout_s=30)
            payload = client.job_metrics(job["id"])
        assert payload["schema"] == "repro-job-metrics/1"
        assert payload["id"] == job["id"]
        assert payload["status"] == "done"
        assert "live" in payload and "heartbeat" in payload
        assert payload["final"] == {}  # fake records carry no metrics

    def test_job_metrics_unknown_job_is_404(self, tmp_path):
        with ServiceThread(make_service(tmp_path)) as thread:
            client = ServiceClient(thread.base_url)
            with pytest.raises(ServiceError) as excinfo:
                client.job_metrics("nope")
            assert excinfo.value.status == 404


class TestTracedJobsThroughPool:
    """The relay acceptance path: a traced service job executes in a
    real worker subprocess (crash-isolated, timeout-enforced) and its
    events stream back live with full schema-6 context."""

    def test_traced_job_with_isolation_streams_relayed_events(
        self, tmp_path
    ):
        from repro.exec.jobs import execute_job

        service = RoutingService(
            ServiceConfig(port=0, workers=1, isolation=True),
            cache=ResultCache(tmp_path / "cache"),
            runner=execute_job,
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            job = client.submit({
                "kind": "route", "dataset": "S1P1", "trace": True,
            })
            streamed = list(client.events(job["id"]))
            status = client.wait(job["id"], timeout_s=60)
            live = client.job_metrics(job["id"])
        assert status["status"] == "done"
        kinds = [e["kind"] for e in streamed]
        assert "run_start" in kinds and "run_end" in kinds
        assert "progress_heartbeat" in kinds
        # control records are filtered out of the replayable stream...
        assert "metrics_snapshot" not in kinds
        # ...but land in the live metrics view
        assert live["live"].get("router.deletions", 0) > 0
        assert live["heartbeat"] is not None
        assert live["final"]["router.deletions"] > 0
        # every event is stamped with relay context; the worker is a
        # real subprocess, not the service process
        for event in streamed:
            assert event["job_id"].startswith("S1P1.c.")
            assert isinstance(event["worker"], int)
            assert event["worker"] != os.getpid()

    def test_traced_job_same_kinds_as_inline(self, tmp_path):
        from repro.exec.jobs import execute_job

        kinds = {}
        for label, isolation in (("pool", True), ("inline", False)):
            service = RoutingService(
                ServiceConfig(port=0, workers=1, isolation=isolation),
                cache=ResultCache(tmp_path / f"cache-{label}"),
                runner=execute_job,
            )
            with ServiceThread(service) as thread:
                client = ServiceClient(thread.base_url)
                job = client.submit({
                    "kind": "route", "dataset": "S1P1", "trace": True,
                })
                streamed = list(client.events(job["id"]))
                assert client.wait(job["id"])["status"] == "done"
            kinds[label] = Counter(e["kind"] for e in streamed)
        assert kinds["pool"] == kinds["inline"]
