"""The pluggable routing-engine interface.

A *routing engine* is anything that turns a design (circuit, placement,
constraints) into a :class:`~repro.core.result.GlobalRoutingResult`
while sharing the seed's nets, feedthrough assignment, density
accounting, timing model, and sign-off.  Two engines ship today:

* :class:`~repro.engines.edge_deletion.EdgeDeletionEngine` — the paper's
  global greedy edge-deletion loop (wraps
  :class:`~repro.core.router.GlobalRouter` unchanged, bit-identical to
  the seed);
* :class:`~repro.engines.negotiated.NegotiatedEngine` — PathFinder-style
  negotiated congestion (iterative rip-up-and-reroute with present and
  history costs; legal but not bit-identical).

Every engine is constructed with the :class:`GlobalRouter` signature and
exposes the attributes the flow reads off a router after routing
(``gd``, ``assignment``, ``metrics``, ``margin_attribution``), so callers
can swap engines without branching; anything else lives on the inner
``router``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import RouterConfig
from ..core.result import GlobalRoutingResult
from ..core.router import GlobalRouter
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..obs.events import TraceSink
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..timing.constraint import PathConstraint


class RoutingEngine:
    """Base class: owns an inner :class:`GlobalRouter` for shared state.

    The inner router performs the common setup (pins, feedthroughs,
    routing graphs, density profiles, timing) and materializes the final
    result; subclasses decide how the per-net graphs converge to trees,
    as the body :meth:`GlobalRouter.route` runs inside its frame.
    """

    name: str = "abstract"

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        constraints: Sequence[PathConstraint] = (),
        config: RouterConfig = RouterConfig(),
        *,
        trace_sink: Optional[TraceSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
        decision_sampling: Optional[str] = None,
    ):
        self.router = GlobalRouter(
            circuit,
            placement,
            constraints,
            config,
            trace_sink=trace_sink,
            metrics=metrics,
            profiler=profiler,
            decision_sampling=decision_sampling,
        )

    # -- the attributes the flow reads after routing -------------------
    @property
    def gd(self):
        return self.router.gd

    @property
    def assignment(self):
        return self.router.assignment

    @property
    def metrics(self) -> MetricsRegistry:
        return self.router.metrics

    def margin_attribution(self):
        return self.router.margin_attribution()

    def route(self) -> GlobalRoutingResult:
        raise NotImplementedError
