"""The routing service: a long-lived asyncio HTTP/JSON job server.

Stdlib only — raw ``asyncio`` sockets speaking a deliberately small
slice of HTTP/1.1 (one request per connection, ``Connection: close``),
because the point is the serving semantics, not a web framework:

* ``POST /jobs`` — submit a job (see :mod:`~repro.service.api` for the
  payload schema).  Submission is **idempotent by job key**: a payload
  whose canonical identity matches a queued/running/finished job
  returns that job instead of spawning another, so N identical
  concurrent submissions coalesce into one pool execution.  An
  untraced ``route`` submission whose result already sits in the
  :class:`~repro.exec.cache.ResultCache` completes instantly, without
  ever touching the queue.  Per-tenant token buckets and a queue-depth
  cap reject with ``429`` + ``Retry-After``.
* ``GET /jobs/{id}`` — job status; ``GET /jobs/{id}/result`` — the
  result payload (``202`` while pending, ``500`` for a failed job).
* ``GET /jobs/{id}/events`` — the run's obs trace as NDJSON: buffered
  events replayed first, then live events until the job finishes.  The
  lines are exactly the JSONL trace format ``--trace`` writes (since
  schema 6 each event carries ``run_id``/``job_id``/``worker`` relay
  context).
* ``GET /jobs/{id}/metrics`` — the job's live metrics snapshot (relayed
  out of the worker mid-run), last heartbeat, and final record metrics.
* ``GET /healthz``, ``GET /stats`` — liveness and the service metrics
  (``service.*`` counters/gauges), queue depth, cache occupancy.
* ``GET /metrics`` — Prometheus text exposition: ``service.*``
  counters/gauges/histograms (with p50/p90/p99 quantiles), fleet-merged
  per-job ``router.*``/``graph.*``/``negotiate.*`` counters
  (``jobs.*`` prefix), cache occupancy, queue depth.

Execution rides the PR 2 batch engine: every job attempt goes through
:func:`~repro.exec.pool.run_batch` (crash isolation, per-job timeout,
bounded retries, cache write-through) from a worker thread, one thread
per concurrent job.  Traced jobs run through the exact same pool path:
the worker subprocess spools its events to disk, the pool tails and
stamps them (:mod:`~repro.obs.relay`), and a per-job
:class:`~repro.obs.relay.CallbackSink` forwards each one across the
thread boundary into the event loop — so watching a run no longer
trades away isolation or timeouts.

Graceful shutdown drains: submissions start failing with ``503``,
in-flight jobs run to completion, and the still-queued backlog is
checkpointed to ``<cache>/service/queue.json`` — the next start
re-validates and re-enqueues it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.attribution import attributions_from_events
from ..bench.runner import RunRecord, pair_records
from ..exec.cache import ResultCache
from ..exec.jobs import JobSpec, execute_job
from ..exec.pool import run_batch
from ..io.json_report import run_record_to_dict
from ..obs.events import TraceEvent
from ..obs.metrics import (
    MetricsRegistry,
    merge_flat,
    prometheus_exposition,
)
from ..obs.relay import CallbackSink
from .api import (
    ApiError,
    JobRequest,
    SERVICE_SCHEMA,
    build_specs,
    job_key_of,
    parse_job_request,
)
from .queue import (
    PriorityJobQueue,
    load_queue_checkpoint,
    write_queue_checkpoint,
)
from .quotas import QuotaManager

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

#: Terminal job states.
_TERMINAL = ("done", "failed")


@dataclass
class ServiceConfig:
    """Operator knobs of one :class:`RoutingService`."""

    host: str = "127.0.0.1"
    port: int = 8177                     # 0 = ephemeral (tests)
    workers: int = 2                     # concurrent jobs
    isolation: bool = True               # subprocess per untraced attempt
    job_timeout_s: Optional[float] = None
    retries: int = 0
    quota_capacity: float = 0.0          # tokens; <= 0 disables quotas
    quota_refill_per_s: float = 1.0
    max_queue_depth: int = 256
    keep_finished: int = 512             # finished jobs kept in memory


class ServiceJobError(RuntimeError):
    """A job whose every attempt failed on the pool."""


@dataclass
class Job:
    """Server-side state of one accepted submission."""

    id: str
    key: str
    request: JobRequest
    specs: List[JobSpec]
    status: str = "queued"     # queued | running | done | failed
    cached: bool = False
    created_t: float = field(default_factory=time.time)
    started_t: Optional[float] = None
    finished_t: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    # Live telemetry (loop-thread only): the worker's latest relayed
    # metrics_snapshot and the most recent progress_heartbeat payload.
    metrics_live: Dict[str, Any] = field(default_factory=dict)
    last_heartbeat: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_status(self) -> Dict[str, Any]:
        return {
            "schema": SERVICE_SCHEMA,
            "id": self.id,
            "key": self.key,
            "kind": self.request.kind,
            "dataset": self.request.dataset,
            "engine": self.request.engine,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "traced": self.request.traced,
            "status": self.status,
            "cached": self.cached,
            "created_t": self.created_t,
            "started_t": self.started_t,
            "finished_t": self.finished_t,
            "error": self.error,
            "events_buffered": len(self.events),
            "phase": (self.last_heartbeat or {}).get("phase"),
        }


class RoutingService:
    """One server instance: queue, workers, HTTP front-end, metrics.

    ``runner`` is the per-spec job runner (tests inject fakes); it must
    accept ``(spec, *, trace_sink=None, decision_sampling=None)`` like
    :func:`~repro.exec.jobs.execute_job`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        cache: Optional[ResultCache] = None,
        runner: Callable[..., RunRecord] = execute_job,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.cache = cache
        self.runner = runner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.quotas = QuotaManager(
            self.config.quota_capacity, self.config.quota_refill_per_s
        )
        self.jobs: Dict[str, Job] = {}          # by public id
        self.jobs_by_key: Dict[str, Job] = {}   # latest job per job key
        # Fleet totals: every computed job's final record.metrics merged
        # (merge_flat) — the router.*/graph.*/negotiate.* families on
        # /metrics.
        # Written from worker threads, read from the loop: lock-guarded.
        self.fleet_metrics: Dict[str, float] = {}
        self._fleet_lock = threading.Lock()
        self.queue = PriorityJobQueue()
        self.port: Optional[int] = None
        self.started_t: Optional[float] = None
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._workers: List[asyncio.Task] = []
        self._handlers: set = set()
        self._finished_order: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Optional[Path]:
        if self.cache is None:
            return None
        return self.cache.root / "service" / "queue.json"

    async def start(self) -> None:
        """Bind, spawn workers, restore the queue checkpoint."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-service",
        )
        self._workers = [
            asyncio.create_task(self._worker_loop())
            for _ in range(max(1, self.config.workers))
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_t = time.time()
        await self._restore_checkpoint()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, finish in-flight work, checkpoint the rest.

        ``drain=False`` skips waiting for in-flight jobs (their worker
        threads still run to completion in the executor, but the server
        returns immediately and their results are discarded).
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        queued = [
            job for job in self.queue.snapshot() if isinstance(job, Job)
        ]
        await self.queue.close()
        if drain:
            await asyncio.gather(*self._workers, return_exceptions=True)
        else:
            for task in self._workers:
                task.cancel()
        self._checkpoint(queued)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
        for task in list(self._handlers):
            task.cancel()
        # Both point back at this service, through the server's protocol
        # factory (the bound _handle_connection) and through a cancelled
        # worker task's traceback: cycles only the collector would free.
        self._server = None
        self._workers = []

    def _checkpoint(self, queued: List[Job]) -> None:
        path = self.checkpoint_path
        if path is None:
            return
        if not queued:
            try:
                path.unlink()
            except OSError:
                pass
            return
        write_queue_checkpoint(
            path, [job.request.to_payload() for job in queued]
        )

    async def _restore_checkpoint(self) -> None:
        path = self.checkpoint_path
        if path is None:
            return
        payloads = load_queue_checkpoint(path)
        try:
            path.unlink()
        except OSError:
            pass
        for payload in payloads:
            try:
                self.submit_request(parse_job_request(payload))
            except ApiError:
                continue  # stale dataset name etc.: drop, don't crash

    async def serve_until_stopped(self) -> None:
        """Run (after :meth:`start`) until SIGINT/SIGTERM, then drain."""
        import signal

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await self.shutdown(drain=True)

    async def serve_forever(self) -> None:
        """CLI entry: start, run until SIGINT/SIGTERM, drain, exit."""
        await self.start()
        await self.serve_until_stopped()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_request(
        self, request: JobRequest
    ) -> Tuple[Job, bool]:
        """Admit one validated request; ``(job, newly_created)``.

        Raises :class:`ApiError` for quota/backpressure rejections.
        Runs entirely on the event loop thread, so the coalescing check
        and the registration are atomic.
        """
        specs = build_specs(request)
        key = job_key_of(request, specs)
        existing = self.jobs_by_key.get(key)
        if existing is not None and not existing.terminal:
            # Coalesce onto the in-flight job: N identical concurrent
            # submissions share one execution.  A *finished* job does
            # not coalesce — resubmission makes a fresh job that is
            # served from the result cache instead.
            self.metrics.counter("service.jobs_coalesced").inc()
            return existing, False

        admitted, retry_after = self.quotas.admit(request.tenant)
        if not admitted:
            self.metrics.counter("service.quota_rejected").inc()
            error = ApiError(
                f"tenant {request.tenant!r} over quota", status=429
            )
            error.retry_after_s = retry_after
            raise error

        job = Job(
            id=uuid.uuid4().hex[:16],
            key=key,
            request=request,
            specs=specs,
        )

        # Instant path: an untraced route whose record is already in the
        # shared artifact store never touches the queue (and is exempt
        # from queue backpressure — it consumes no queue space).
        if (
            request.kind == "route"
            and not request.traced
            and self.cache is not None
        ):
            record = self.cache.get_record(specs[0].cache_key())
            if record is not None:
                job.status = "done"
                job.cached = True
                job.started_t = job.finished_t = time.time()
                job.result = {"record": run_record_to_dict(record)}
                self.jobs[job.id] = job
                self.jobs_by_key[key] = job
                self.metrics.counter("service.jobs_submitted").inc()
                self.metrics.counter("service.cache_hits").inc()
                self.metrics.counter("service.jobs_completed").inc()
                self._remember_finished(job)
                return job, True

        if self.queue.depth() >= self.config.max_queue_depth:
            error = ApiError("queue full", status=429)
            error.retry_after_s = 5.0
            raise error
        self.jobs[job.id] = job
        self.jobs_by_key[key] = job
        self.metrics.counter("service.jobs_submitted").inc()
        asyncio.ensure_future(self._enqueue_job(job, request.priority))
        self._set_queue_depth()
        return job, True

    async def _enqueue_job(self, job: Job, priority: int) -> None:
        try:
            await self.queue.put(job, priority)
        except RuntimeError:
            # Shutdown closed the queue between admission and this task.
            job.status = "failed"
            job.error = "server shut down before the job was queued"
            job.finished_t = time.time()
            self.metrics.counter("service.jobs_failed").inc()
            self._finish_job(job)

    def _set_queue_depth(self) -> None:
        self.metrics.gauge("service.queue_depth").set(self.queue.depth())

    def _remember_finished(self, job: Job) -> None:
        """Bound the in-memory registry of finished jobs."""
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.config.keep_finished:
            old_id = self._finished_order.pop(0)
            old = self.jobs.get(old_id)
            if old is None or not old.terminal:
                continue
            del self.jobs[old_id]
            if self.jobs_by_key.get(old.key) is old:
                del self.jobs_by_key[old.key]

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            if job is None:
                return
            self._set_queue_depth()
            job.status = "running"
            job.started_t = time.time()
            try:
                payload, computed, hits = await loop.run_in_executor(
                    self._executor, self._execute_sync, job
                )
            except Exception as exc:  # noqa: BLE001 - job-level isolation
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self.metrics.counter("service.jobs_failed").inc()
            else:
                job.status = "done"
                job.result = payload
                job.cached = computed == 0
                self.metrics.counter("service.jobs_completed").inc()
                if computed:
                    self.metrics.counter("service.pool_executions").inc(
                        computed
                    )
                if hits:
                    self.metrics.counter("service.cache_hits").inc(hits)
            job.finished_t = time.time()
            self.metrics.histogram("service.job_seconds").record(
                job.finished_t - job.started_t
            )
            self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        """Terminal bookkeeping on the loop thread: close every live
        event stream (their queues get the ``None`` sentinel)."""
        self._remember_finished(job)
        for queue in list(job.subscribers):
            queue.put_nowait(None)

    # ---- thread side -------------------------------------------------
    def _execute_sync(
        self, job: Job
    ) -> Tuple[Dict[str, Any], int, int]:
        """Run every spec of ``job`` on the batch engine (worker
        thread); returns ``(result_payload, computed, cache_hits)``."""
        sink: Optional[CallbackSink] = None
        if job.request.traced:
            assert self._loop is not None
            sink = CallbackSink(self._make_publisher(job))
        computed = hits = 0
        records: List[RunRecord] = []
        fresh: List[RunRecord] = []
        for spec in job.specs:
            outcome = self._run_one(job, spec, sink)
            if outcome.status == "failed":
                raise ServiceJobError(
                    f"{spec.job_id} failed after {outcome.attempts} "
                    f"attempt(s): {outcome.error}"
                )
            if outcome.status == "ok":
                computed += 1
                fresh.append(outcome.record)
            else:
                hits += 1
            records.append(outcome.record)
        # Fleet aggregation: only freshly computed records (a cache hit
        # repeats no routing work, so it must not inflate the totals).
        with self._fleet_lock:
            for record in fresh:
                if record is not None and record.metrics:
                    merge_flat(self.fleet_metrics, record.metrics)
        return self._result_payload(job, records, sink), computed, hits

    def _make_publisher(
        self, job: Job
    ) -> Callable[[Dict[str, Any]], None]:
        """A thread-safe bridge into the loop for one job's events."""
        loop = self._loop
        publish = functools.partial(self._publish_event, job)

        def forward(payload: Dict[str, Any]) -> None:
            try:
                loop.call_soon_threadsafe(publish, payload)
            except RuntimeError:
                pass  # loop shut down mid-run; keep the local buffer

        return forward

    def _run_one(self, job: Job, spec: JobSpec, sink):
        """One spec through ``run_batch`` — the pool's retry, cache
        write-through and crash-isolation/timeout semantics apply to
        traced and untraced jobs alike.  A traced run skips the read
        side of the cache (a cached record has no events to stream);
        its events cross the process boundary via the relay spool."""
        if sink is not None:
            sweep = run_batch(
                [spec],
                workers=1 if self.config.isolation else 0,
                timeout_s=self.config.job_timeout_s,
                retries=self.config.retries,
                cache=self.cache,
                read_cache=False,
                runner=self.runner,
                trace_sink=sink,
                decision_sampling=(
                    "all" if job.request.kind == "explain" else None
                ),
            )
        else:
            sweep = run_batch(
                [spec],
                workers=1 if self.config.isolation else 0,
                timeout_s=self.config.job_timeout_s,
                retries=self.config.retries,
                cache=self.cache,
                read_cache=True,
                runner=self.runner,
            )
        return sweep.outcomes[0]

    def _result_payload(
        self,
        job: Job,
        records: List[RunRecord],
        sink: Optional[CallbackSink],
    ) -> Dict[str, Any]:
        if job.request.kind == "compare":
            with_c, without_c = pair_records(records[0], records[1])
            return {
                "constrained": run_record_to_dict(with_c),
                "unconstrained": run_record_to_dict(without_c),
                "delta": _compare_delta(with_c, without_c),
            }
        payload: Dict[str, Any] = {
            "record": run_record_to_dict(records[0])
        }
        if job.request.kind == "explain":
            events = [
                TraceEvent.from_dict(d) for d in (sink.events if sink else [])
            ]
            payload["margin_attribution"] = attributions_from_events(
                events
            )
            payload["decision_records"] = sum(
                1 for e in events if e.kind == "deletion_decision"
            )
        return payload

    # ---- loop side ---------------------------------------------------
    def _publish_event(self, job: Job, payload: Dict[str, Any]) -> None:
        kind = payload.get("kind")
        if kind == "metrics_snapshot":
            # Transport control record: update the live view, keep it
            # out of the replayable event stream (it is interval-based,
            # so its count would vary run to run).
            job.metrics_live = dict(payload.get("metrics") or {})
            return
        if kind == "progress_heartbeat":
            job.last_heartbeat = payload
        job.events.append(payload)
        self.metrics.counter("service.events_streamed").inc(
            len(job.subscribers)
        )
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    # ------------------------------------------------------------------
    # HTTP front-end
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._handle_request(reader, writer)
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        except Exception as exc:  # noqa: BLE001 - never kill the server
            try:
                _respond(writer, 500, {"error": f"internal: {exc}"})
            except Exception:
                pass
        finally:
            self._handlers.discard(task)
            await _close_connection(writer)

    async def _handle_request(self, reader, writer) -> None:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return _respond(writer, 400, {"error": "malformed request"})
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return _respond(writer, 413, {"error": "body too large"})
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0].rstrip("/") or "/"

        if path == "/jobs" and method == "POST":
            return self._post_jobs(writer, body)
        if path == "/healthz" and method == "GET":
            return _respond(writer, 200, self._healthz())
        if path == "/stats" and method == "GET":
            return _respond(writer, 200, self._stats())
        if path == "/metrics" and method == "GET":
            return _respond_text(writer, 200, self._metrics_text())
        segments = path.lstrip("/").split("/")
        if len(segments) >= 2 and segments[0] == "jobs":
            job = self.jobs.get(segments[1])
            if job is None:
                return _respond(
                    writer, 404, {"error": f"no job {segments[1]!r}"}
                )
            if method != "GET":
                return _respond(writer, 405, {"error": "GET only"})
            if len(segments) == 2:
                return _respond(writer, 200, job.to_status())
            if segments[2] == "result" and len(segments) == 3:
                return self._get_result(writer, job)
            if segments[2] == "events" and len(segments) == 3:
                return await self._stream_events(writer, job)
            if segments[2] == "metrics" and len(segments) == 3:
                return _respond(writer, 200, self._job_metrics(job))
        allowed = path in ("/jobs", "/healthz", "/stats", "/metrics")
        status = 405 if allowed else 404
        return _respond(
            writer, status, {"error": f"{method} {path} unsupported"}
        )

    def _post_jobs(self, writer, body: bytes) -> None:
        if self.draining:
            return _respond(writer, 503, {"error": "shutting down"})
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            return _respond(writer, 400, {"error": "body is not JSON"})
        try:
            request = parse_job_request(payload)
            job, created = self.submit_request(request)
        except ApiError as exc:
            error_payload: Dict[str, Any] = {"error": str(exc)}
            headers = {}
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after is not None:
                error_payload["retry_after_s"] = retry_after
                headers["Retry-After"] = str(int(retry_after))
            return _respond(
                writer, exc.status, error_payload, headers=headers
            )
        status = job.to_status()
        status["coalesced"] = not created
        code = 200 if not created or job.terminal else 202
        return _respond(writer, code, status)

    def _get_result(self, writer, job: Job) -> None:
        if not job.terminal:
            return _respond(writer, 202, job.to_status())
        if job.status == "failed":
            payload = job.to_status()
            return _respond(writer, 500, payload)
        payload = job.to_status()
        payload["result"] = job.result
        return _respond(writer, 200, payload)

    async def _stream_events(self, writer, job: Job) -> None:
        # Snapshot + subscribe without an await in between: nothing can
        # slip between the replayed prefix and the live tail.
        backlog = list(job.events)
        live: Optional[asyncio.Queue] = None
        if not job.terminal:
            live = asyncio.Queue()
            job.subscribers.append(live)
        _send_headers(
            writer, 200, {"Content-Type": "application/x-ndjson"}
        )
        try:
            for payload in backlog:
                writer.write(_ndjson_line(payload))
            await writer.drain()
            if live is None:
                return
            while True:
                payload = await live.get()
                if payload is None:
                    return
                writer.write(_ndjson_line(payload))
                await writer.drain()
        finally:
            if live is not None:
                try:
                    job.subscribers.remove(live)
                except ValueError:
                    pass

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": (
                round(time.time() - self.started_t, 3)
                if self.started_t
                else 0.0
            ),
            "queue_depth": self.queue.depth(),
            "workers": self.config.workers,
        }

    def _stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        self._set_queue_depth()
        return {
            "schema": "repro-service-stats/1",
            "uptime_s": (
                round(time.time() - self.started_t, 3)
                if self.started_t
                else 0.0
            ),
            "queue_depth": self.queue.depth(),
            "jobs": by_status,
            "metrics": self.metrics.flat(),
            "quotas": self.quotas.snapshot(),
            # "is not None": an empty ResultCache is falsy (__len__).
            "cache": (
                self.cache.stats() if self.cache is not None else None
            ),
        }

    def _metrics_text(self) -> str:
        """Prometheus text exposition of the whole fleet's telemetry."""
        self._set_queue_depth()
        extra: Dict[str, float] = {}
        if self.started_t:
            extra["uptime_s"] = round(time.time() - self.started_t, 3)
        if self.cache is not None:
            for name, value in self.cache.stats().items():
                if isinstance(value, (int, float)):
                    extra[f"cache.{name}"] = value
        for name, value in self.quotas.snapshot().items():
            if isinstance(value, (int, float)):
                extra[f"quota.{name}"] = value
        with self._fleet_lock:
            # "jobs." keeps router.*/negotiate.* families from
            # colliding with same-named entries in self.metrics.
            for name, value in self.fleet_metrics.items():
                extra[f"jobs.{name}"] = value
        return prometheus_exposition(self.metrics, extra_flat=extra)

    def _job_metrics(self, job: Job) -> Dict[str, Any]:
        """Live (relayed) + final metrics view of one job."""
        final = None
        if job.status == "done" and isinstance(job.result, dict):
            record = job.result.get("record")
            if isinstance(record, dict):
                final = record.get("metrics")
        return {
            "schema": "repro-job-metrics/1",
            "id": job.id,
            "status": job.status,
            "live": job.metrics_live,
            "heartbeat": job.last_heartbeat,
            "final": final,
        }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _send_headers(
    writer, status: int, headers: Dict[str, str]
) -> None:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", "Connection: close"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


def _respond(
    writer,
    status: int,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> None:
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    all_headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
    }
    if headers:
        all_headers.update(headers)
    _send_headers(writer, status, all_headers)
    writer.write(body)


def _respond_text(writer, status: int, text: str) -> None:
    body = text.encode("utf-8")
    _send_headers(
        writer,
        status,
        {
            # Prometheus text exposition format version 0.0.4.
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            "Content-Length": str(len(body)),
        },
    )
    writer.write(body)


async def _close_connection(writer) -> None:
    """Half-close, then close.

    Every pool worker is forked from this process and holds a copy of
    each socket open at fork time, so ``close()`` alone sends no FIN
    while any of them lives.  ``write_eof()`` is ``shutdown(SHUT_WR)``,
    which sends it at once — but only from an empty write buffer: with
    data still queued it is deferred, and a ``close()`` that follows
    drops it.  So the buffer is flushed completely first.
    """
    try:
        if writer.can_write_eof():
            writer.transport.set_write_buffer_limits(0)
            await writer.drain()
            writer.write_eof()
    except OSError:
        pass  # the peer is gone: nothing left to flush or half-close
    finally:
        writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


def _ndjson_line(payload: Dict[str, Any]) -> bytes:
    return (
        json.dumps(payload, sort_keys=False, default=str) + "\n"
    ).encode("utf-8")


def _compare_delta(
    with_c: RunRecord, without_c: RunRecord
) -> Dict[str, float]:
    """Constrained-minus-unconstrained deltas (the Table 2 story: what
    did honoring the constraints cost in area/length, buy in delay)."""

    def pct(new: float, old: float) -> float:
        return 100.0 * (new - old) / old if old else 0.0

    return {
        "delay_ps": round(with_c.delay_ps - without_c.delay_ps, 3),
        "delay_pct": round(pct(with_c.delay_ps, without_c.delay_ps), 3),
        "area_mm2": round(with_c.area_mm2 - without_c.area_mm2, 6),
        "area_pct": round(pct(with_c.area_mm2, without_c.area_mm2), 3),
        "length_mm": round(with_c.length_mm - without_c.length_mm, 4),
        "length_pct": round(
            pct(with_c.length_mm, without_c.length_mm), 3
        ),
        "violations": with_c.violations - without_c.violations,
    }


# ----------------------------------------------------------------------
# Thread harness (tests, smoke scripts, embedding)
# ----------------------------------------------------------------------
class ServiceThread:
    """Runs a :class:`RoutingService` on a dedicated event-loop thread.

    ``start()`` blocks until the socket is bound (so ``base_url`` is
    immediately usable); ``stop()`` performs the graceful drain from
    outside the loop.  Use as a context manager in tests.
    """

    def __init__(self, service: RoutingService):
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.error: Optional[BaseException] = None

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self.error is not None:
            raise RuntimeError(
                f"service failed to start: {self.error}"
            ) from self.error
        return self

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.service.port}"

    def stop(self, drain: bool = True) -> None:
        if self._loop is None or self._stop_event is None:
            return
        self.drain = drain
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            return
        if self._thread is not None:
            self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.drain = True
        try:
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.service.shutdown(drain=self.drain)
