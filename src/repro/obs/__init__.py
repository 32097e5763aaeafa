"""Observability: structured tracing, metrics, profiling, manifests.

The subsystem the router's per-iteration telemetry flows through:

* :mod:`~repro.obs.events` — typed trace events, sinks (JSONL, memory
  ring buffer, null), and the :class:`Tracer` front-end;
* :mod:`~repro.obs.metrics` — counters/gauges/histograms (with
  p50/p90/p99), Prometheus text exposition, fleet-merge helpers;
* :mod:`~repro.obs.profile` — :class:`PhaseProfiler`, the run's one
  clock: each scope feeds the wall/CPU phase tree, the
  ``phase_start``/``phase_end`` events and the timing histograms, and
  announces phases through the :class:`HeartbeatEmitter` behind
  ``progress_heartbeat``;
* :mod:`~repro.obs.relay` — cross-process NDJSON spools, tailers, and
  context stamping (how pool workers' events reach the parent);
* :mod:`~repro.obs.manifest` — machine-readable run manifests;
* :mod:`~repro.obs.summarize` — trace-file analysis for the CLI.

Everything defaults off: a router built without a sink runs against
:data:`NULL_SINK`, where tracing is a single attribute check.
"""

from .events import (
    EVENT_KINDS,
    FanoutSink,
    JsonlTraceSink,
    MemorySink,
    NULL_SINK,
    NullSink,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceSink,
    Tracer,
    events_to_jsonl,
    read_trace,
)
from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_run_manifest,
    describe_source,
    read_manifest,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_flat,
    prometheus_exposition,
    scoped_registry,
)
from .profile import HeartbeatEmitter, PhaseNode, PhaseProfiler
from .relay import (
    CallbackSink,
    SPOOL_SUFFIX,
    SpoolSink,
    SpoolTailer,
    StampSink,
    format_event_line,
    read_spool,
    stamp_event,
)
from .summarize import partition_events, summarize_trace
# Imported last: decisions lazily reaches into repro.core, which itself
# imports the modules above.
from .decisions import (
    DECISION_SAMPLING_DEFAULT,
    DecisionPolicy,
    SelectionOutcome,
    decision_payload,
)

__all__ = [
    "CallbackSink",
    "Counter",
    "DECISION_SAMPLING_DEFAULT",
    "DecisionPolicy",
    "EVENT_KINDS",
    "FanoutSink",
    "Gauge",
    "HeartbeatEmitter",
    "Histogram",
    "JsonlTraceSink",
    "MANIFEST_SCHEMA",
    "MemorySink",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "PhaseNode",
    "PhaseProfiler",
    "RunManifest",
    "SPOOL_SUFFIX",
    "SelectionOutcome",
    "SpoolSink",
    "SpoolTailer",
    "StampSink",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "build_run_manifest",
    "decision_payload",
    "describe_source",
    "events_to_jsonl",
    "format_event_line",
    "get_registry",
    "merge_flat",
    "partition_events",
    "prometheus_exposition",
    "read_manifest",
    "read_spool",
    "read_trace",
    "scoped_registry",
    "stamp_event",
    "summarize_trace",
]
