"""Pluggable routing engines (see :mod:`repro.engines.base`).

The registry maps ``RouterConfig.routing_engine`` values to engine
classes; :func:`make_engine` is the single dispatch point, called by
:func:`repro.bench.runner.run_flow` for the CLI, the bench runner and
the batch/service layers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Type

from ..core.config import RouterConfig
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..obs.events import TraceSink
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..timing.constraint import PathConstraint
from .base import RoutingEngine
from .edge_deletion import EdgeDeletionEngine
from .negotiated import NegotiatedEngine

ENGINES: Dict[str, Type[RoutingEngine]] = {
    EdgeDeletionEngine.name: EdgeDeletionEngine,
    NegotiatedEngine.name: NegotiatedEngine,
}


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, registry order (default first)."""
    return tuple(ENGINES)


def make_engine(
    circuit: Circuit,
    placement: Placement,
    constraints: Sequence[PathConstraint] = (),
    config: RouterConfig = RouterConfig(),
    *,
    trace_sink: Optional[TraceSink] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[PhaseProfiler] = None,
    decision_sampling: Optional[str] = None,
) -> RoutingEngine:
    """Build the engine selected by ``config.routing_engine``.

    ``RouterConfig`` validates the engine name at construction, so an
    unknown name can only appear here through a stale registry — treated
    as a programming error.
    """
    try:
        engine_cls = ENGINES[config.routing_engine]
    except KeyError:
        raise ValueError(
            f"unknown routing engine {config.routing_engine!r}; "
            f"known: {', '.join(ENGINES)}"
        ) from None
    return engine_cls(
        circuit,
        placement,
        constraints,
        config,
        trace_sink=trace_sink,
        metrics=metrics,
        profiler=profiler,
        decision_sampling=decision_sampling,
    )


__all__ = [
    "ENGINES",
    "RoutingEngine",
    "EdgeDeletionEngine",
    "NegotiatedEngine",
    "engine_names",
    "make_engine",
]
