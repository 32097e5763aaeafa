"""Structured trace events and sinks (zero-dependency event bus).

The router and its satellites emit a flat stream of typed events; sinks
decide what happens to them.  The default :data:`NULL_SINK` makes every
emission a single attribute check, so an uninstrumented run pays
effectively nothing.

Event stream contract
---------------------
Every event carries a monotonically increasing ``seq``, a ``t_s``
timestamp (seconds since the owning :class:`Tracer` was created, from
``time.perf_counter``), a ``kind`` drawn from :data:`EVENT_KINDS`, and a
``kind``-specific payload dict.  The JSONL wire format flattens the
payload into the top-level object::

    {"seq": 17, "t": 0.0123, "kind": "edge_deleted", "net": "n3", ...}

Kinds and their payloads (see ``docs/OBSERVABILITY.md`` for the full
schema):

``run_start``
    ``circuit``, ``nets``, ``cells``, ``constraints``, ``timing_driven``.
``run_end``
    ``deletions``, ``reroutes``, ``violations``, ``wall_s``.
``phase_start`` / ``phase_end``
    ``phase``, ``depth`` (nesting level, ``route`` = 1); ``phase_end``
    adds this activation's ``wall_s`` and ``cpu_s``.  Emitted by every
    traced :meth:`~repro.obs.profile.PhaseProfiler.phase` that is not a
    per-call scope.
``edge_deleted``
    ``net``, ``edge``, ``channel``, ``edge_kind``, ``length_um``,
    ``criterion`` (the Section 3.4 condition that decided the selection),
    ``depth`` (lexicographic tie-break depth, ``-1`` for a sole
    candidate), ``phase``.
``reroute``
    ``net``, ``mode``, ``kept``, ``phase``.
``violation_found`` / ``violation_cleared``
    ``constraint``; ``violation_found`` adds ``margin_ps``.
``feed_cell_inserted``
    ``cells``, ``widened_columns``.
``pair_broken``
    ``net``, ``partner``.
``channel_routed``
    ``channel``, ``tracks``, ``constraint_breaks``, ``dogleg_splits``.
``deletion_decision``
    Sampled Section 3.4 audit record: ``net``, ``edge``, ``channel``,
    ``phase``, ``deletion_index``, ``mode``, ``criterion``,
    ``criterion_depth``, ``winner_key`` (named lexicographic
    conditions), ``runner_up`` (same shape, or ``null`` for a sole
    candidate).
``density_snapshot``
    Per-channel ``d_M``/``d_m`` profiles at a phase boundary:
    ``label`` (``initial`` / ``post_deletion`` / ``post_recovery`` /
    ``post_improvement``), ``width_columns``, ``channels``.
``margin_attribution``
    Per-constraint slack breakdown at run end: ``constraint``,
    ``limit_ps``, ``worst_delay_ps``, ``margin_ps``,
    ``source_offset_ps``, ``nets`` (critical-path contributions).
``cache_corrupt``
    A malformed result-cache entry was quarantined (renamed to
    ``*.corrupt``) instead of being served: ``key``, ``path``,
    ``reason``.
``negotiation_iteration``
    One rip-up-and-reroute round of the negotiated-congestion engine:
    ``iteration`` (1-based), ``pn`` (present-congestion multiplier used
    this round), ``rerouted`` (nets re-routed), ``overused_columns``,
    ``overused_nets`` (both after the round), ``cap_relaxations``
    (channels whose capacity budget was lifted; non-zero only on the
    final round).
``progress_heartbeat``
    Periodic liveness pulse during long routes (one per phase entry,
    then every N deletions / every negotiation iteration): ``phase``,
    ``deletions``, ``key_evals``, ``reroutes``, ``peak_density``, plus
    loop-specific extras (``iteration``, ``overused_columns``, ``pn``
    from the negotiated engine).  Triggered by deterministic work
    counts, never by wall time, so two runs of the same job produce the
    same heartbeat sequence.
``metrics_snapshot``
    Transport-layer control record written by the cross-process relay
    (see :mod:`~repro.obs.relay`): the producing worker's full metrics
    registry snapshot under ``metrics``, so a parent can show live
    per-job metrics without waiting for the final record.  Carries
    ``seq=0`` (it is fabricated by the spool sink, not the run's
    tracer) and is interval-based, so it is *excluded* from event
    replay buffers and parity comparisons.

Cross-process context (schema 6): events relayed out of a pool worker
are stamped with ``run_id`` (the sweep id), ``job_id``, and ``worker``
(child pid, or ``"inline"`` for workers=0) by the parent before fanout,
so a multiplexed stream stays attributable per job.

Consumers must tolerate kinds they do not know (a newer producer):
skip them, never raise.  :data:`TRACE_SCHEMA_VERSION` is carried in the
``run_start`` payload as ``trace_schema``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Optional, Union

EVENT_KINDS = (
    "run_start",
    "run_end",
    "phase_start",
    "phase_end",
    "edge_deleted",
    "deletion_decision",
    "density_snapshot",
    "margin_attribution",
    "reroute",
    "violation_found",
    "violation_cleared",
    "feed_cell_inserted",
    "pair_broken",
    "channel_routed",
    "cache_corrupt",
    "negotiation_iteration",
    "progress_heartbeat",
    "metrics_snapshot",
)

TRACE_SCHEMA_VERSION = 7
"""Bumped whenever the event vocabulary grows or a payload changes
shape (v7: the flow's root phases, ``depth`` from the root; v6:
heartbeats, metrics snapshots, relay context; see ``docs/FORMATS.md``).
Readers warn-and-skip unknown kinds rather than fail, so older tools
keep working on newer traces."""

_RESERVED_KEYS = ("seq", "t", "kind")

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event of a run trace."""

    seq: int
    t_s: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dict (payload merged into the top level)."""
        payload = {"seq": self.seq, "t": round(self.t_s, 6), "kind": self.kind}
        payload.update(self.data)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False, default=str)

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "TraceEvent":
        data = {
            key: value
            for key, value in payload.items()
            if key not in _RESERVED_KEYS
        }
        if "kind" not in payload:
            raise ValueError(f"trace event without a kind: {payload!r}")
        # seq/t default rather than raise: a newer producer may move
        # them, and losing ordering info must not make the file
        # unreadable (the kind-specific payload is what matters).
        return TraceEvent(
            seq=int(payload.get("seq", 0)),
            t_s=float(payload.get("t", 0.0)),
            kind=str(payload["kind"]),
            data=data,
        )


class TraceSink:
    """Protocol for event consumers.

    Duck-typed on purpose (the hot path must not pay for ABC dispatch):
    a sink is anything with ``emit(event)``, ``close()``, and a truthy
    or falsy ``enabled`` attribute.  ``enabled`` is read once by
    :class:`Tracer` at attach time — a disabled sink means event objects
    are never even constructed.
    """

    enabled = True

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class NullSink(TraceSink):
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


NULL_SINK = NullSink()


class MemorySink(TraceSink):
    """Ring-buffered in-memory sink for tests and interactive use.

    ``capacity=None`` keeps everything; otherwise the oldest events are
    dropped once the buffer is full (``dropped`` counts them).
    """

    def __init__(self, capacity: Optional[int] = None):
        self._buffer: deque = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._buffer)

    def emit(self, event: TraceEvent) -> None:
        if (
            self.capacity is not None
            and len(self._buffer) == self.capacity
        ):
            self.dropped += 1
        self._buffer.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._buffer if e.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)


class FanoutSink(TraceSink):
    """Broadcasts every event to a dynamic set of subscriber sinks.

    The subscription surface the service layer streams through: one
    producer (a router run) emits once, every currently subscribed sink
    sees the event.  Subscribers may attach and detach while a run is in
    flight, and emitters may live on a different thread than
    subscribers, so the subscriber list is guarded by a lock and
    snapshotted per emission.  A subscriber that raises is dropped (a
    slow or dead consumer must never fail the producing run).
    """

    def __init__(self, *sinks: TraceSink):
        import threading

        self._lock = threading.Lock()
        self._sinks: List[TraceSink] = [
            sink for sink in sinks if getattr(sink, "enabled", True)
        ]

    def subscribe(self, sink: TraceSink) -> TraceSink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: TraceSink) -> bool:
        with self._lock:
            try:
                self._sinks.remove(sink)
                return True
            except ValueError:
                return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._sinks)

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.emit(event)
            except Exception:
                self.unsubscribe(sink)

    def close(self) -> None:
        with self._lock:
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()


class JsonlTraceSink(TraceSink):
    """Appends one JSON object per event to a file (the trace format the
    CLI's ``--trace`` flag and ``trace summarize`` subcommand speak).

    Line-buffered so every event reaches the filesystem as soon as it is
    emitted: ``repro-router trace tail`` can follow a live ``--trace``
    file without waiting for block-buffer flushes.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh: Optional[IO[str]] = self.path.open(
            "w", encoding="utf-8", buffering=1
        )
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"trace sink {self.path} is closed")
        self._fh.write(event.to_json())
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Sequencing/timestamping front-end shared by all emitters of a run.

    The one rule for hot paths: guard with ``if tracer.enabled:`` so a
    :class:`NullSink` run never constructs event objects or keyword
    dicts.  ``emit`` re-checks ``enabled`` anyway, so cold paths may call
    it unconditionally.
    """

    __slots__ = ("sink", "enabled", "_seq", "_t0")

    def __init__(self, sink: Optional[TraceSink] = None):
        self.sink = sink if sink is not None else NULL_SINK
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self._seq = 0
        self._t0 = time.perf_counter()

    @staticmethod
    def of(source: Union["Tracer", TraceSink, None]) -> "Tracer":
        """Coerce a sink (or an existing tracer, or None) into a tracer."""
        if isinstance(source, Tracer):
            return source
        return Tracer(source)

    def emit(self, kind: str, **data: Any) -> None:
        if not self.enabled:
            return
        self._seq += 1
        self.sink.emit(
            TraceEvent(self._seq, time.perf_counter() - self._t0, kind, data)
        )

    def close(self) -> None:
        self.sink.close()


def read_trace(path: PathLike) -> List[TraceEvent]:
    """Parse a JSONL trace file back into events (blank lines skipped)."""
    events: List[TraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events to the JSONL wire format (for tests/tools)."""
    return "".join(e.to_json() + "\n" for e in events)
