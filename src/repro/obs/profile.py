"""One clock per run: phase scopes that feed the profile tree, the trace
and the timing histograms.

Every scope of a run is a :meth:`PhaseProfiler.phase`.  Nested scopes
(e.g. every incremental ``timing_update`` inside the initial loop)
become children of the enclosing phase, so the report answers directly
where a run spent its time::

    route                     1.234s wall  1.101s cpu  (1 call)
      setup                   0.120s ...
        timing                0.030s ...
      initial                 0.800s ...
        timing_update         0.350s ...  (41 calls)
      improve_area            0.200s ...
    build_result              0.010s ...

Each activation reads ``time.perf_counter`` and ``time.process_time``
once on entry and once on exit.  That one pair feeds the tree node and,
once :meth:`PhaseProfiler.bind` has attached a run's tracer, metrics
registry and heartbeat emitter, either

* a **per-call scope** (``histogram=`` given): the same wall delta goes
  into that histogram and no trace event is emitted (these open tens of
  thousands of times per run), or
* a **phase**: with tracing on, ``phase_start`` plus one forced
  heartbeat on entry and ``phase_end`` with this activation's wall and
  CPU time on exit, also when the body raises.

:meth:`PhaseProfiler.from_events` rebuilds the tree of phases from a
trace, so ``trace summarize`` prints the table ``route --metrics`` does.

Two more columns ride on the tree nodes, for ``to_dict()`` (manifests'
``phases``, perfbench's traced profiles); the trace and :meth:`format`
do not carry them:

* **cyclic GC** — while any scope is open the profiler keeps one entry
  in ``gc.callbacks``, and charges each collection to the innermost
  scope open when it starts, as ``gc_s`` (its wall time) and
  ``gc_collections``;
* **peak RSS** — each phase exit reads the process's ``ru_maxrss``
  once (per-call scopes never do) and keeps the maximum over the
  phase's activations as ``peak_rss_mb``: the high-water mark of the
  process by the time the phase last ended.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from .events import TraceEvent
from .metrics import MetricsRegistry

try:
    import resource
except ImportError:  # pragma: no cover - not on this platform
    resource = None  # type: ignore[assignment]

#: ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
_RSS_BYTES = 1 if sys.platform == "darwin" else 1024


def peak_rss_mb() -> Optional[float]:
    """The process's peak resident set so far, in MB (None where the
    platform has no ``resource`` module)."""
    if resource is None:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss * _RSS_BYTES / (1024 * 1024)


class PhaseNode:
    """Accumulated timings of one phase (and its children)."""

    __slots__ = ("name", "parent", "depth", "per_call", "wall_s", "cpu_s",
                 "calls", "gc_s", "gc_collections", "peak_rss_mb",
                 "children")

    def __init__(self, name: str, parent: Optional["PhaseNode"] = None,
                 per_call: bool = False):
        self.name = name
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.per_call = per_call
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.calls = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.peak_rss_mb: Optional[float] = None
        self.children: Dict[str, "PhaseNode"] = {}

    def child(self, name: str, per_call: bool = False) -> "PhaseNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = PhaseNode(name, self, per_call)
        return node

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "calls": self.calls,
        }
        if self.gc_collections:
            payload["gc_s"] = round(self.gc_s, 6)
            payload["gc_collections"] = self.gc_collections
        if self.peak_rss_mb is not None:
            payload["peak_rss_mb"] = round(self.peak_rss_mb, 1)
        if self.children:
            payload["children"] = {
                name: node.to_dict()
                for name, node in self.children.items()
            }
        return payload


class _Scope:
    """One activation of :meth:`PhaseProfiler.phase`; after exit,
    ``wall_s``/``cpu_s`` hold this activation's time."""

    __slots__ = ("profiler", "name", "histogram", "wall_s", "cpu_s",
                 "_wall0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str,
                 histogram: Optional[str]):
        self.profiler = profiler
        self.name = name
        self.histogram = histogram

    def __enter__(self) -> "_Scope":
        profiler = self.profiler
        if not profiler._open:
            gc.callbacks.append(profiler._gc_hook)
        profiler._open += 1
        node = profiler.current = profiler.current.child(
            self.name, self.histogram is not None
        )
        tracer = profiler._tracer
        if tracer is not None and self.histogram is None:
            tracer.emit("phase_start", phase=self.name, depth=node.depth)
            if profiler._heartbeat is not None:
                profiler._heartbeat.beat(self.name, force=True)
        # The wall reads nest inside the (slower) CPU reads, so a
        # per-call scope's wall time excludes the CPU clock's cost.
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        wall = self.wall_s = time.perf_counter() - self._wall0
        cpu = self.cpu_s = time.process_time() - self._cpu0
        profiler = self.profiler
        node = profiler.current  # scopes close innermost first
        node.wall_s += wall
        node.cpu_s += cpu
        node.calls += 1
        profiler.current = node.parent
        try:
            if self.histogram is not None:
                profiler._metrics.histogram(self.histogram).record(wall)
                return
            rss = peak_rss_mb()
            if rss is not None and (
                node.peak_rss_mb is None or rss > node.peak_rss_mb
            ):
                node.peak_rss_mb = rss
            if profiler._tracer is not None:
                profiler._tracer.emit(
                    "phase_end", phase=self.name, depth=node.depth,
                    wall_s=round(wall, 6), cpu_s=round(cpu, 6),
                )
        finally:
            profiler._open -= 1
            if not profiler._open:
                gc.callbacks.remove(profiler._gc_hook)


class PhaseProfiler:
    """Tree of :class:`PhaseNode` scopes; ``current`` is the innermost
    open one (``root`` when none is open)."""

    def __init__(self):
        self.root = PhaseNode("")
        self.current = self.root
        # Open scopes; ``_gc_hook`` sits in ``gc.callbacks`` while any is.
        self._open = 0
        self._gc_hook = self._on_gc
        self._gc_node: Optional[PhaseNode] = None
        self._gc_t0 = 0.0
        # Unbound: no trace, and histograms nobody reads.
        self.bind(None, MetricsRegistry())

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """``gc.callbacks`` entry: charge one collection's wall time to
        the innermost scope open when it started."""
        if phase == "start":
            self._gc_node = self.current
            self._gc_t0 = time.perf_counter()
        elif self._gc_node is not None:
            self._gc_node.gc_s += time.perf_counter() - self._gc_t0
            self._gc_node.gc_collections += 1
            self._gc_node = None

    @property
    def current_phase(self) -> PhaseNode:
        """The innermost open phase: ``current`` less the per-call scopes
        open inside it (``root`` when no phase is open)."""
        node = self.current
        while node.per_call:
            node = node.parent
        return node

    def bind(self, tracer: Any, metrics: MetricsRegistry,
             heartbeat: Optional["HeartbeatEmitter"] = None) -> None:
        """Route this profiler's scopes into a run's tracer (when it is
        enabled), metrics registry and heartbeat emitter.  A router
        binds its profiler at construction; binding again (a profiler
        shared across runs) replaces the previous run's targets."""
        self._tracer = tracer if getattr(tracer, "enabled", False) else None
        self._metrics = metrics
        self._heartbeat = heartbeat

    def phase(self, name: str, histogram: Optional[str] = None) -> _Scope:
        """Time one activation of ``name`` under the innermost open scope.

        With ``histogram``, a per-call scope: its wall time is also
        recorded in that histogram of the bound registry, and it emits
        no trace event.  Without, a phase: traced as
        ``phase_start``/``phase_end`` and announced by a heartbeat.
        """
        return _Scope(self, name, histogram)

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "PhaseProfiler":
        """The tree of phases a trace's ``phase_start``/``phase_end``
        events describe.

        Per-call scopes emit no events, so they are absent.  A phase
        that never closed (a truncated trace) appears with no calls, and
        an end that matches no open phase is skipped.  Events relayed
        from several jobs nest per ``job_id`` and add up in one tree.
        """
        profiler = cls()
        root = profiler.root
        open_nodes: Dict[Any, PhaseNode] = {}  # job_id -> innermost
        for event in events:
            data = event.data
            job, name = data.get("job_id"), data.get("phase", "?")
            node = open_nodes.get(job, root)
            if event.kind == "phase_start":
                open_nodes[job] = node.child(name)
            elif (event.kind == "phase_end" and node is not root
                  and node.name == name):
                node.wall_s += float(data.get("wall_s", 0.0))
                node.cpu_s += float(data.get("cpu_s", 0.0))
                node.calls += 1
                open_nodes[job] = node.parent
        return profiler

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def node(self, *path: str) -> Optional[PhaseNode]:
        """The node at ``path`` (from the root), or None."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def wall_s(self, *path: str) -> float:
        node = self.node(*path)
        return node.wall_s if node is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            name: node.to_dict()
            for name, node in self.root.children.items()
        }

    def format(self) -> str:
        """Indented text report, phases in first-entered order."""
        lines: List[str] = [
            f"{'phase':<34s} {'wall_s':>10s} {'cpu_s':>10s} {'calls':>7s}"
        ]

        def walk(node: PhaseNode, indent: int) -> None:
            label = "  " * indent + node.name
            lines.append(
                f"{label:<34s} {node.wall_s:>10.4f} "
                f"{node.cpu_s:>10.4f} {node.calls:>7d}"
            )
            for child in node.children.values():
                walk(child, indent + 1)

        for child in self.root.children.values():
            walk(child, 0)
        return "\n".join(lines)


class HeartbeatEmitter:
    """Emits ``progress_heartbeat`` events during long routing phases.

    A silent two-minute X2 route becomes a readable stream: every traced
    phase entry forces one beat (:meth:`PhaseProfiler.phase`, once the
    router has bound its profiler to this emitter), so even instant
    phases appear, and the router asks for one per deletion /
    negotiation iteration, which the emitter throttles to every
    ``every_deletions`` units of work.

    Throttling is keyed on the ``router.deletions`` counter — a
    deterministic work count, never wall time — so two runs of the same
    job emit bit-identical heartbeat sequences and traced service
    streams stay comparable with local ``--trace`` files.
    """

    __slots__ = ("tracer", "metrics", "every_deletions", "enabled",
                 "peak_density_fn", "_next_at", "_m_deletions",
                 "_m_key_evals", "_m_reroutes")

    def __init__(
        self,
        tracer: Any,
        metrics: MetricsRegistry,
        *,
        every_deletions: int = 25,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.every_deletions = max(1, every_deletions)
        self.enabled = bool(getattr(tracer, "enabled", False))
        #: Optional zero-arg callable returning the current chip-wide
        #: peak density; only invoked when a beat actually fires.
        self.peak_density_fn: Optional[Any] = None
        self._next_at = 0
        self._m_deletions = metrics.counter("router.deletions")
        self._m_key_evals = metrics.counter("router.key_evals")
        self._m_reroutes = metrics.counter("router.reroutes")

    def beat(
        self, phase: str, *, force: bool = False, **extra: Any
    ) -> None:
        """Maybe emit one heartbeat for ``phase``.

        ``force`` bypasses the deletion-count throttle (phase entries,
        negotiation iterations); ``extra`` fields ride along verbatim.
        """
        if not self.enabled:
            return
        deletions = self._m_deletions.value
        if not force and deletions < self._next_at:
            return
        self._next_at = deletions + self.every_deletions
        if self.peak_density_fn is not None and "peak_density" not in extra:
            try:
                extra["peak_density"] = int(self.peak_density_fn())
            except Exception:
                pass  # a beat must never fail the run
        self.tracer.emit(
            "progress_heartbeat",
            phase=phase,
            deletions=deletions,
            key_evals=self._m_key_evals.value,
            reroutes=self._m_reroutes.value,
            **extra,
        )
