"""Live progress reporting and sweep-level observability.

The pool emits one :class:`ProgressEvent` per job state change; anything
callable can consume them.  Two consumers ship here:

* :class:`ProgressPrinter` — one human-readable line per event, suitable
  for a terminal (the ``repro-router batch`` command uses it);
* :class:`SweepReporter` — aggregates events into a
  :class:`~repro.obs.metrics.MetricsRegistry`; every ``run_batch``
  sweep counts its own events with one, live, into the ``metrics`` of
  its rollup manifest (:attr:`~repro.exec.pool.SweepResult.rollup`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TextIO

from ..obs.metrics import MetricsRegistry

#: Event kinds, in lifecycle order.
EVENT_KINDS = ("started", "cached", "ok", "retry", "failed")


@dataclass(frozen=True)
class ProgressEvent:
    """One job state change inside a sweep."""

    kind: str                 # one of EVENT_KINDS
    job_id: str
    index: int                # position in the submitted job list
    total: int                # number of jobs in the sweep
    attempt: int = 1          # 1-based attempt number
    duration_s: float = 0.0   # wall seconds of this attempt (end events)
    error: Optional[str] = None

    def format(self) -> str:
        done = f"[{self.index + 1}/{self.total}]"
        if self.kind == "started":
            suffix = (
                "" if self.attempt == 1 else f" (attempt {self.attempt})"
            )
            return f"{done} {self.job_id} started{suffix}"
        if self.kind == "cached":
            return f"{done} {self.job_id} cached"
        if self.kind == "ok":
            return f"{done} {self.job_id} ok in {self.duration_s:.2f}s"
        if self.kind == "retry":
            return (
                f"{done} {self.job_id} attempt {self.attempt} failed "
                f"({self.error}); retrying"
            )
        return (
            f"{done} {self.job_id} FAILED after {self.attempt} "
            f"attempt(s): {self.error}"
        )


class ProgressPrinter:
    """Prints one line per event to a stream (default: stdout).

    A closed stream (e.g. stdout piped into ``head``) silences the
    printer instead of failing the sweep.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream
        self._closed = False

    def __call__(self, event: ProgressEvent) -> None:
        if self._closed:
            return
        try:
            print(event.format(), file=self.stream, flush=True)
        except (BrokenPipeError, ValueError):
            self._closed = True


class SweepReporter:
    """Aggregates progress events into sweep-level metrics: counters
    and the job-duration histogram land in a :class:`MetricsRegistry`
    under the ``sweep.`` prefix."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == "started" and event.attempt == 1:
            self.metrics.counter("sweep.jobs_started").inc()
        elif event.kind == "cached":
            self.metrics.counter("sweep.jobs_cached").inc()
        elif event.kind == "ok":
            self.metrics.counter("sweep.jobs_ok").inc()
            self.metrics.histogram("sweep.job_seconds").record(
                event.duration_s
            )
        elif event.kind == "retry":
            self.metrics.counter("sweep.job_retries").inc()
        elif event.kind == "failed":
            self.metrics.counter("sweep.jobs_failed").inc()


def tee(*consumers) -> Any:
    """Compose several event consumers into one callback."""
    active = [consumer for consumer in consumers if consumer is not None]

    def dispatch(event: ProgressEvent) -> None:
        for consumer in active:
            consumer(event)

    return dispatch
