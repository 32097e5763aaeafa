"""Process-local metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` is created per router run (the bench runner
attaches its snapshot to the :class:`~repro.bench.runner.RunRecord`), and
a module-level registry is available via :func:`get_registry` for code
that has no run context to thread one through.

Everything is synchronous and allocation-light: a counter increment is
one attribute add, so instruments can live on hot paths.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values with percentile estimates.

    Deliberately no buckets: the router's distributions are inspected
    through traces; the registry needs cheap aggregates plus the
    p50/p90/p99 that operators actually read off ``/metrics``.  The
    percentiles come from a bounded ring of the most recent
    ``SAMPLE_CAP`` observations (deterministic, allocation-light), so
    for long-running instruments they describe recent behaviour rather
    than all of history — which is what a live endpoint wants anyway.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    #: Most-recent observations kept for percentile estimation.
    SAMPLE_CAP = 2048

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        samples = self._samples
        if len(samples) < self.SAMPLE_CAP:
            samples.append(value)
        else:
            samples[(self.count - 1) % self.SAMPLE_CAP] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the sample
        window; 0.0 when nothing was recorded."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, min(len(ordered),
                          math.ceil(q / 100.0 * len(ordered))))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Create-or-get instrument store keyed by dotted metric name."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_name(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_name(name)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_name(name)
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def _check_name(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(
                f"metric {name!r} already registered with a different type"
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Nested dict export: scalars for counters/gauges, summary dicts
        for histograms."""
        payload: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            payload[name] = counter.value
        for name, gauge in self._gauges.items():
            payload[name] = gauge.value
        for name, histogram in self._histograms.items():
            payload[name] = histogram.summary()
        return payload

    def flat(self) -> Dict[str, float]:
        """Fully flattened export, histograms expanded to dotted keys."""
        payload: Dict[str, float] = {}
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                for stat, number in value.items():
                    payload[f"{name}.{stat}"] = float(number)
            else:
                payload[name] = float(value)
        return payload

    def format(self) -> str:
        """Sorted ``name value`` lines for terminal output."""
        lines = []
        flat = self.flat()
        for name in sorted(flat):
            value = flat[name]
            if float(value).is_integer():
                lines.append(f"{name:<40s} {int(value)}")
            else:
                lines.append(f"{name:<40s} {value:.6f}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet aggregation + Prometheus export
# ----------------------------------------------------------------------
_UNMERGEABLE_STATS = (".mean", ".p50", ".p90", ".p99")


def merge_flat(target: Dict[str, float], flat: Dict[str, float]) -> None:
    """Fold one run's :meth:`MetricsRegistry.flat` export into ``target``.

    The service uses this to aggregate per-job router metrics into fleet
    totals: counters and histogram ``.count``/``.total`` sum, ``.min``
    and ``.max`` take the extreme, and per-run means/percentiles are
    dropped (they do not compose across runs — recompute the mean from
    the merged total/count, and read live percentiles off the service's
    own histograms instead).
    """
    for name, value in flat.items():
        if name.endswith(_UNMERGEABLE_STATS):
            continue
        if name.endswith(".min"):
            previous = target.get(name)
            target[name] = value if previous is None else min(previous,
                                                              value)
        elif name.endswith(".max"):
            previous = target.get(name)
            target[name] = value if previous is None else max(previous,
                                                              value)
        else:
            target[name] = target.get(name, 0.0) + value


def _prom_name(name: str, namespace: str) -> str:
    """Dotted metric name -> Prometheus-legal ``namespace_a_b_c``."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    full = f"{namespace}_{cleaned}" if namespace else cleaned
    if full and full[0].isdigit():
        full = "_" + full
    return full


def _prom_value(value: float) -> str:
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_exposition(
    registry: MetricsRegistry,
    *,
    extra_flat: Optional[Dict[str, float]] = None,
    namespace: str = "repro",
) -> str:
    """Render a registry (plus optional pre-flattened extras) in the
    Prometheus text exposition format (version 0.0.4).

    Counters become ``counter`` families, gauges ``gauge``, histograms
    ``summary`` families with ``quantile`` labels for p50/p90/p99 plus
    the conventional ``_sum``/``_count`` children.  ``extra_flat``
    entries (fleet-merged per-job metrics, cache occupancy, queue depth)
    are typed ``gauge`` — the reader cannot tell a merged counter from a
    level, and a gauge is the honest default.
    """
    lines: List[str] = []

    def family(name: str, kind: str) -> str:
        prom = _prom_name(name, namespace)
        lines.append(f"# TYPE {prom} {kind}")
        return prom

    for name in sorted(registry._counters):
        prom = family(name, "counter")
        lines.append(
            f"{prom} {_prom_value(registry._counters[name].value)}"
        )
    for name in sorted(registry._gauges):
        prom = family(name, "gauge")
        lines.append(
            f"{prom} {_prom_value(registry._gauges[name].value)}"
        )
    for name in sorted(registry._histograms):
        histogram = registry._histograms[name]
        stats = histogram.summary()
        prom = family(name, "summary")
        for q, stat in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            lines.append(
                f'{prom}{{quantile="{q}"}} {_prom_value(stats[stat])}'
            )
        lines.append(f"{prom}_sum {_prom_value(stats['total'])}")
        lines.append(f"{prom}_count {_prom_value(stats['count'])}")
    for name in sorted(extra_flat or {}):
        prom = family(name, "gauge")
        lines.append(f"{prom} {_prom_value((extra_flat or {})[name])}")
    return "\n".join(lines) + "\n"


_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None
_SCOPE_DEPTH = 0


def get_registry() -> MetricsRegistry:
    """The shared process-local registry (created on first use)."""
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY


def current_scoped_registry() -> Optional[MetricsRegistry]:
    """The active job-scoped registry, or ``None`` outside any scope.

    Lets a run publish its counters into the batch engine's per-job
    scope (where the relay's ``metrics_snapshot`` records read them)
    without ever leaking into the true process-global registry when no
    scope is active.
    """
    return get_registry() if _SCOPE_DEPTH > 0 else None


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Swap the process-global registry for the duration of a block.

    The batch engine wraps every job execution in one of these so a
    runner that reaches for :func:`get_registry` gets a fresh, job-local
    registry instead of accumulating counts across jobs — both in inline
    mode (``workers=0``, where every job shares one process) and in
    forked workers (which inherit the parent's global registry state).
    The previous registry is restored on exit, even on error.
    """
    global _GLOBAL_REGISTRY, _SCOPE_DEPTH
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry if registry is not None else MetricsRegistry()
    _SCOPE_DEPTH += 1
    try:
        yield _GLOBAL_REGISTRY
    finally:
        _GLOBAL_REGISTRY = previous
        _SCOPE_DEPTH -= 1
