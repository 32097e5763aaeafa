"""Fault-tolerant parallel execution of batch jobs.

``run_batch`` fans a list of :class:`~repro.exec.jobs.JobSpec`s out
across ``workers`` OS processes (one process per in-flight job — a
crashed, killed, or hung worker takes down *that job only*, never the
sweep), with:

* a **content-addressed cache** consulted before any work is scheduled
  and updated after every success, so a warm re-run does no routing and
  an interrupted sweep restarts from its completed jobs;
* a **per-job timeout** — an overdue worker is terminated and the
  attempt counts as failed;
* **bounded retry with exponential backoff** — each failed attempt
  requeues the job until ``retries`` extra attempts are exhausted, after
  which the job is reported as failed in the sweep summary;
* a **sweep checkpoint** (when a cache is attached) recording every
  job's status, rewritten atomically as the sweep progresses;
* **progress events** for every state change (see
  :mod:`~repro.exec.progress`), counted live into the sweep's one
  rollup manifest (:attr:`SweepResult.rollup`), and optional per-job
  run manifests.

``workers=0`` runs jobs inline in the calling process — same cache,
retry and reporting semantics, no subprocesses (and therefore no crash
isolation and no timeout enforcement); it is the default for library
callers like :func:`repro.bench.runner.run_suite` so single-threaded
behaviour stays identical to the historical serial path.

**Tracing across the pool** (``trace_sink=``): each worker writes its
run's events to a per-attempt NDJSON spool (:mod:`~repro.obs.relay`);
the parent tails every live spool from its existing poll loop and
replays the events into ``trace_sink``, stamped with
``run_id``/``job_id``/``worker`` context — so a traced job keeps full
crash isolation and timeout enforcement.  Inline mode stamps and
forwards directly.  Cache hits produce no events (nothing ran).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..bench.runner import RunRecord
from ..errors import ConfigError
from ..io.fsutil import atomic_write_text
from ..io.json_report import run_record_to_dict
from ..obs.events import TraceSink
from ..obs.manifest import RunManifest, build_run_manifest
from ..obs.metrics import MetricsRegistry, get_registry, scoped_registry
from ..obs.relay import (
    SPOOL_SUFFIX,
    SpoolSink,
    SpoolTailer,
    StampSink,
    stamp_event,
)
from .cache import ResultCache
from .jobs import JobSpec, execute_job
from .progress import ProgressEvent, SweepReporter, tee

PathLike = Union[str, Path]
Runner = Callable[[JobSpec], RunRecord]
EventConsumer = Callable[[ProgressEvent], None]

CHECKPOINT_SCHEMA = "repro-exec-sweep/1"

#: Longest scheduler wait between passes, seconds.
_POLL_S = 0.02
#: Grace period before a terminated worker is SIGKILLed.
_KILL_GRACE_S = 2.0


@dataclass
class JobOutcome:
    """Final state of one job in a sweep."""

    spec: JobSpec
    index: int
    status: str               # "ok" | "cached" | "failed"
    record: Optional[RunRecord] = None
    error: Optional[str] = None
    attempts: int = 0
    duration_s: float = 0.0   # wall seconds actually spent computing
    spool_path: Optional[Path] = None  # last attempt's relay spool

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class SweepResult:
    """Everything one ``run_batch`` call produced; ``metrics`` holds the
    ``sweep.*`` counters its :class:`SweepReporter` counted live."""

    outcomes: List[JobOutcome]
    wall_s: float
    sweep_id: str = ""
    checkpoint_path: Optional[Path] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def all_ok(self) -> bool:
        return self.n_failed == 0

    def records(self) -> List[Optional[RunRecord]]:
        """Records in job order (``None`` for failed jobs)."""
        return [outcome.record for outcome in self.outcomes]

    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def summary(self) -> str:
        """One-paragraph human summary (the sweep's closing report)."""
        lines = [
            f"sweep {self.sweep_id or '(anonymous)'}: "
            f"{len(self.outcomes)} job(s) in {self.wall_s:.2f}s wall — "
            f"{self.n_ok} computed, {self.n_cached} cached, "
            f"{self.n_failed} failed"
        ]
        for outcome in self.failed():
            lines.append(
                f"  FAILED {outcome.spec.job_id} "
                f"after {outcome.attempts} attempt(s): {outcome.error}"
            )
        return "\n".join(lines)

    @functools.cached_property
    def rollup(self) -> RunManifest:
        """The sweep's one rollup manifest: per-job statuses, each
        finished job's record (what ``compare-runs`` diffs job by job)
        and the live ``sweep.*`` metrics.

        Jobs are keyed by :attr:`JobSpec.job_id`; ids shared by jobs
        that differ in config (one design under two engines) take the
        :attr:`JobSpec.unique_id` form instead, so no record is lost.
        """
        ids = Counter(outcome.spec.job_id for outcome in self.outcomes)
        jobs: Dict[str, Any] = {}
        for outcome in self.outcomes:
            spec = outcome.spec
            key = spec.job_id if ids[spec.job_id] == 1 else spec.unique_id
            job = jobs[key] = {
                "status": outcome.status,
                "attempts": outcome.attempts,
                "duration_s": round(outcome.duration_s, 4),
                "error": outcome.error,
            }
            if outcome.record is not None:
                job["record"] = run_record_to_dict(outcome.record)
        return RunManifest(
            dataset={"kind": "sweep", "jobs": len(self.outcomes)},
            results={
                "ok": self.n_ok,
                "cached": self.n_cached,
                "failed": self.n_failed,
                "wall_s": round(self.wall_s, 4),
                "jobs": jobs,
            },
            metrics=self.metrics.snapshot(),
        )


def sweep_id_of(jobs: Sequence[JobSpec]) -> str:
    """Deterministic identity of a job list (order-sensitive)."""
    digest = hashlib.sha256()
    for spec in jobs:
        digest.update(spec.cache_key().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    runner: Runner,
    spec: JobSpec,
    spool_path: Optional[Path] = None,
    decision_sampling: Optional[str] = None,
) -> None:
    """Subprocess entry point: run one job, ship the result back.

    The job runs under a fresh scoped registry: a forked worker inherits
    whatever the parent accumulated in the process-global
    ``get_registry()``, which must not bleed into this job's counts.

    With ``spool_path`` set (a traced sweep), the run's events are
    appended to that NDJSON spool via a :class:`SpoolSink` — interleaved
    with this registry's periodic ``metrics_snapshot`` records — and the
    parent tails the file live.
    """
    try:
        with scoped_registry():
            if spool_path is not None:
                sink = SpoolSink(spool_path, registry=get_registry())
                try:
                    record = runner(
                        spec,
                        trace_sink=sink,
                        decision_sampling=decision_sampling,
                    )
                finally:
                    sink.close()
            else:
                record = runner(spec)
        message = ("ok", record)
    except BaseException as exc:  # noqa: BLE001 — isolate *everything*
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except Exception:
        # Unpicklable result/exception: downgrade to a plain error.
        try:
            conn.send(("error", "result not transferable from worker"))
        except Exception:
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Scheduler internals
# ----------------------------------------------------------------------
@dataclass
class _Task:
    index: int
    spec: JobSpec
    key: str
    attempt: int = 0          # completed attempts so far
    not_before: float = 0.0   # monotonic time gate (retry backoff)
    spent_s: float = 0.0      # wall seconds across failed attempts
    spool_path: Optional[Path] = None  # latest attempt's relay spool


@dataclass
class _Running:
    task: _Task
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]
    tailer: Optional[SpoolTailer] = None


class _Sweep:
    """One run_batch invocation's mutable state."""

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        *,
        workers: int,
        timeout_s: Optional[float],
        retries: int,
        backoff_s: float,
        cache: Optional[ResultCache],
        runner: Runner,
        on_event: Optional[EventConsumer],
        manifest_dir: Optional[Path],
        trace_sink: Optional[TraceSink] = None,
        spool_dir: Optional[Path] = None,
        decision_sampling: Optional[str] = None,
    ):
        self.jobs = list(jobs)
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.cache = cache
        self.runner = runner
        self.on_event = on_event
        self.manifest_dir = manifest_dir
        self.trace_sink = trace_sink
        self.spool_dir = spool_dir
        self.decision_sampling = decision_sampling
        self.keys = [spec.cache_key() for spec in self.jobs]
        self.sweep_id = sweep_id_of(self.jobs)
        self.outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        self.checkpoint_path: Optional[Path] = None
        if cache is not None:
            self.checkpoint_path = (
                cache.root / "sweeps" / f"sweep-{self.sweep_id}.json"
            )

    # ------------------------------------------------------------------
    def emit(self, kind: str, task: _Task, **kw: Any) -> None:
        if self.on_event is None:
            return
        self.on_event(
            ProgressEvent(
                kind=kind,
                job_id=task.spec.job_id,
                index=task.index,
                total=len(self.jobs),
                **kw,
            )
        )

    def finalize(self, outcome: JobOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        self.write_checkpoint()

    def write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        jobs: Dict[str, Any] = {}
        for index, spec in enumerate(self.jobs):
            outcome = self.outcomes[index]
            jobs[self.keys[index]] = {
                "job_id": spec.job_id,
                "status": outcome.status if outcome else "pending",
                "attempts": outcome.attempts if outcome else 0,
                "error": outcome.error if outcome else None,
            }
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "sweep": self.sweep_id,
            "total": len(self.jobs),
            "jobs": jobs,
        }
        atomic_write_text(
            self.checkpoint_path,
            json.dumps(payload, indent=2, sort_keys=True),
        )

    # ------------------------------------------------------------------
    def job_succeeded(
        self, task: _Task, record: RunRecord, duration_s: float
    ) -> None:
        if self.cache is not None:
            self.cache.put(task.key, task.spec, record)
        self.write_job_manifest(task.spec, record)
        self.emit(
            "ok", task, attempt=task.attempt + 1, duration_s=duration_s
        )
        self.finalize(
            JobOutcome(
                spec=task.spec,
                index=task.index,
                status="ok",
                record=record,
                attempts=task.attempt + 1,
                duration_s=task.spent_s + duration_s,
                spool_path=task.spool_path,
            )
        )

    def job_attempt_failed(
        self, task: _Task, error: str, duration_s: float, now: float
    ) -> Optional[_Task]:
        """Returns the requeued task, or None when the job is spent."""
        task.spent_s += duration_s
        task.attempt += 1
        if task.attempt <= self.retries:
            self.emit("retry", task, attempt=task.attempt, error=error)
            task.not_before = now + self.backoff_s * (
                2 ** (task.attempt - 1)
            )
            return task
        self.emit("failed", task, attempt=task.attempt, error=error)
        self.finalize(
            JobOutcome(
                spec=task.spec,
                index=task.index,
                status="failed",
                error=error,
                attempts=task.attempt,
                duration_s=task.spent_s,
                spool_path=task.spool_path,
            )
        )
        return None

    def write_job_manifest(self, spec: JobSpec, record: RunRecord) -> None:
        if self.manifest_dir is None:
            return
        manifest = build_run_manifest(
            config=spec.resolved_config(),
            dataset=spec.describe(),
            record=record,
        )
        name = f"{spec.unique_id}.manifest.json"
        manifest.write(Path(self.manifest_dir) / name)


# ----------------------------------------------------------------------
# Execution strategies
# ----------------------------------------------------------------------
def _run_inline(sweep: _Sweep, pending: List[_Task]) -> None:
    """workers=0: run every task in-process (no isolation/timeout).

    Every job still gets a fresh scoped registry — all inline jobs share
    this process, so a runner using ``get_registry()`` would otherwise
    accumulate counts across jobs.
    """
    for task in pending:
        while True:
            sweep.emit("started", task, attempt=task.attempt + 1)
            started = time.monotonic()
            try:
                with scoped_registry():
                    if sweep.trace_sink is not None:
                        stamped = StampSink(
                            sweep.trace_sink,
                            run_id=sweep.sweep_id,
                            job_id=task.spec.job_id,
                            worker="inline",
                        )
                        record = sweep.runner(
                            task.spec,
                            trace_sink=stamped,
                            decision_sampling=sweep.decision_sampling,
                        )
                    else:
                        record = sweep.runner(task.spec)
            except Exception as exc:  # noqa: BLE001
                duration = time.monotonic() - started
                error = f"{type(exc).__name__}: {exc}"
                requeued = sweep.job_attempt_failed(
                    task, error, duration, time.monotonic()
                )
                if requeued is None:
                    break
                delay = requeued.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                continue
            sweep.job_succeeded(task, record, time.monotonic() - started)
            break


def _mp_context():
    """Fork where the platform has it (cheap, inherits the loaded
    package), spawn elsewhere.

    A forked worker also inherits every descriptor open in the parent
    at fork time, sockets included: a server that forks workers must
    half-close its connections, since closing its own copy sends no FIN
    while a worker holds another (see ``repro.service.server``)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _reap(running: _Running) -> None:
    """Make sure a finished/overdue worker is fully gone."""
    process = running.process
    process.join(timeout=_KILL_GRACE_S)
    if process.is_alive():
        process.terminate()
        process.join(timeout=_KILL_GRACE_S)
    if process.is_alive():  # pragma: no cover - last resort
        process.kill()
        process.join()
    running.conn.close()


def _run_pool(sweep: _Sweep, pending: List[_Task]) -> None:
    """workers>=1: one subprocess per in-flight job.

    A pass that finds nothing to do blocks until a running worker sends
    its result or exits.  ``_POLL_S`` bounds that wait, and with it how
    often a traced job's spool is relayed and how late a deadline is
    noticed.  Only while no worker runs (a retry waiting out its
    backoff) does the scheduler sleep."""
    ctx = _mp_context()
    queue: List[_Task] = list(pending)
    running: Dict[int, _Running] = {}

    def launch(task: _Task, now: float) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        spool_path = None
        tailer = None
        if sweep.trace_sink is not None:
            # Fresh spool per attempt: a failed attempt's partial spool
            # must never mix with its retry's events.
            spool_path = sweep.spool_dir / (
                f"{task.index:03d}-{task.spec.job_id}"
                f".a{task.attempt + 1}{SPOOL_SUFFIX}"
            )
            task.spool_path = spool_path
            tailer = SpoolTailer(spool_path)
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                sweep.runner,
                task.spec,
                spool_path,
                sweep.decision_sampling,
            ),
            daemon=True,
        )
        sweep.emit("started", task, attempt=task.attempt + 1)
        process.start()
        child_conn.close()
        deadline = (
            now + sweep.timeout_s if sweep.timeout_s is not None else None
        )
        running[task.index] = _Running(
            task=task,
            process=process,
            conn=parent_conn,
            started=now,
            deadline=deadline,
            tailer=tailer,
        )

    def relay(run: _Running, final: bool) -> None:
        """Forward newly spooled events into the sweep's trace sink,
        stamped with run/job/worker context.  ``final`` drains through
        the last complete line (a worker killed mid-write leaves one
        truncated line, counted and skipped by the tailer)."""
        if run.tailer is None:
            return
        events = run.tailer.finish() if final else run.tailer.poll()
        for event in events:
            sweep.trace_sink.emit(
                stamp_event(
                    event,
                    run_id=sweep.sweep_id,
                    job_id=run.task.spec.job_id,
                    worker=run.process.pid,
                )
            )

    try:
        while queue or running:
            now = time.monotonic()
            # Launch every eligible task while worker slots are free.
            queue.sort(key=lambda t: (t.not_before, t.index))
            while queue and len(running) < sweep.workers:
                if queue[0].not_before > now:
                    break
                launch(queue.pop(0), now)

            progressed = False
            for index in list(running):
                run = running[index]
                task = run.task
                relay(run, final=False)
                message = None
                died = False
                if run.conn.poll():
                    try:
                        message = run.conn.recv()
                    except (EOFError, OSError):
                        died = True
                elif not run.process.is_alive():
                    # One final drain: the worker may have sent its
                    # result between our poll and its exit.
                    if run.conn.poll():
                        try:
                            message = run.conn.recv()
                        except (EOFError, OSError):
                            died = True
                    else:
                        died = True

                duration = now - run.started
                if message is not None:
                    progressed = True
                    del running[index]
                    _reap(run)
                    relay(run, final=True)
                    status, payload = message
                    if status == "ok":
                        sweep.job_succeeded(task, payload, duration)
                    else:
                        requeued = sweep.job_attempt_failed(
                            task, str(payload), duration, now
                        )
                        if requeued is not None:
                            queue.append(requeued)
                elif died:
                    progressed = True
                    del running[index]
                    exitcode = run.process.exitcode
                    _reap(run)
                    relay(run, final=True)
                    error = f"worker died (exit code {exitcode})"
                    requeued = sweep.job_attempt_failed(
                        task, error, duration, now
                    )
                    if requeued is not None:
                        queue.append(requeued)
                elif run.deadline is not None and now > run.deadline:
                    progressed = True
                    del running[index]
                    run.process.terminate()
                    _reap(run)
                    relay(run, final=True)
                    error = f"timeout after {sweep.timeout_s:g}s"
                    requeued = sweep.job_attempt_failed(
                        task, error, duration, now
                    )
                    if requeued is not None:
                        queue.append(requeued)

            if not progressed:
                if running:
                    multiprocessing.connection.wait(
                        [
                            handle
                            for run in running.values()
                            for handle in (run.conn, run.process.sentinel)
                        ],
                        timeout=_POLL_S,
                    )
                else:
                    time.sleep(_POLL_S)
    finally:
        # The sweep is being torn down (normal exit or KeyboardInterrupt):
        # never leave orphan workers behind.
        for run in running.values():
            if run.process.is_alive():
                run.process.terminate()
        for run in running.values():
            _reap(run)
            if run.tailer is not None:
                run.tailer.close()


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def run_batch(
    jobs: Sequence[JobSpec],
    *,
    workers: int = 0,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    cache: Optional[ResultCache] = None,
    read_cache: bool = True,
    runner: Runner = execute_job,
    on_event: Optional[EventConsumer] = None,
    manifest_dir: Optional[PathLike] = None,
    trace_sink: Optional[TraceSink] = None,
    trace_spool_dir: Optional[PathLike] = None,
    decision_sampling: Optional[str] = None,
) -> SweepResult:
    """Execute ``jobs`` and return one :class:`JobOutcome` per job.

    Args:
        jobs: the job list; outcomes come back in the same order.
        workers: subprocess count; ``0`` runs inline in this process.
        timeout_s: per-attempt wall budget (enforced only with
            ``workers >= 1``, where an overdue worker can be killed).
        retries: extra attempts after a failed one (``2`` means a job
            may run three times before being reported as failed).
        backoff_s: base delay before attempt *n*'s retry
            (``backoff_s * 2**(n-1)``).
        cache: optional :class:`ResultCache`.  Successes are always
            written through; with ``read_cache`` (the default) hits are
            returned without scheduling any work — this is also how an
            interrupted sweep resumes from its completed jobs.
        read_cache: set ``False`` to force recomputation (results still
            land in the cache for the next run).
        runner: the callable executed for each spec (tests inject fault
            runners here); must be importable from a subprocess.  With
            ``trace_sink`` set it is called as ``runner(spec,
            trace_sink=..., decision_sampling=...)`` like
            :func:`~repro.exec.jobs.execute_job`.
        on_event: progress callback (see :mod:`~repro.exec.progress`);
            the sweep's own :class:`SweepReporter` sees the same events.
        manifest_dir: when given, every successful job writes a run
            manifest there and the sweep writes its
            :attr:`SweepResult.rollup` as ``sweep-<id>.manifest.json``.
        trace_sink: receives every job's trace events, stamped with
            ``run_id``/``job_id``/``worker`` context.  With
            ``workers >= 1`` the events are relayed live out of the
            worker subprocesses through NDJSON spools (plus periodic
            ``metrics_snapshot`` control records); cache hits emit
            nothing.  The sink is *not* closed by the sweep.
        trace_spool_dir: directory for the relay spools.  Defaults to a
            temporary directory that is removed when the sweep ends;
            pass an explicit directory to keep the spools (their paths
            land in :attr:`JobOutcome.spool_path`).
    """
    if workers < 0:
        raise ConfigError("run_batch: workers must be >= 0")
    if retries < 0:
        raise ConfigError("run_batch: retries must be >= 0")
    if backoff_s < 0:
        raise ConfigError("run_batch: backoff_s must be >= 0")

    spool_dir: Optional[Path] = None
    spool_dir_is_temp = False
    if trace_sink is not None and workers >= 1:
        if trace_spool_dir is not None:
            spool_dir = Path(trace_spool_dir)
            spool_dir.mkdir(parents=True, exist_ok=True)
        else:
            spool_dir = Path(tempfile.mkdtemp(prefix="repro-spools-"))
            spool_dir_is_temp = True

    reporter = SweepReporter()
    sweep = _Sweep(
        jobs,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        cache=cache,
        runner=runner,
        on_event=tee(reporter, on_event),
        manifest_dir=Path(manifest_dir) if manifest_dir else None,
        trace_sink=trace_sink,
        spool_dir=spool_dir,
        decision_sampling=decision_sampling,
    )
    started = time.monotonic()

    # Cache pre-pass: satisfied jobs never reach the scheduler.
    pending: List[_Task] = []
    for index, spec in enumerate(sweep.jobs):
        task = _Task(index=index, spec=spec, key=sweep.keys[index])
        record = None
        if cache is not None and read_cache:
            record = cache.get_record(task.key)
        if record is not None:
            sweep.emit("cached", task)
            sweep.outcomes[index] = JobOutcome(
                spec=spec,
                index=index,
                status="cached",
                record=record,
                attempts=0,
            )
        else:
            pending.append(task)
    sweep.write_checkpoint()

    if pending:
        try:
            if workers == 0:
                _run_inline(sweep, pending)
            else:
                _run_pool(sweep, pending)
        finally:
            if spool_dir_is_temp:
                shutil.rmtree(spool_dir, ignore_errors=True)

    wall = time.monotonic() - started
    result = SweepResult(
        outcomes=[outcome for outcome in sweep.outcomes if outcome],
        wall_s=wall,
        sweep_id=sweep.sweep_id,
        checkpoint_path=sweep.checkpoint_path,
        metrics=reporter.metrics,
    )
    if sweep.manifest_dir is not None:
        result.rollup.write(
            sweep.manifest_dir / f"sweep-{sweep.sweep_id}.manifest.json"
        )
    return result
