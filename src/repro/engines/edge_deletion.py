"""The paper's edge-deletion algorithm as a :class:`RoutingEngine`.

A thin adapter: :meth:`route` delegates to
:meth:`repro.core.router.GlobalRouter.route` unchanged
(``tests/test_edge_deletion_golden.py`` pins its output).  The adapter
exists so every caller — CLI, bench runner, service — selects engines
uniformly through :func:`repro.engines.make_engine`.
"""

from __future__ import annotations

from ..core.result import GlobalRoutingResult
from .base import RoutingEngine


class EdgeDeletionEngine(RoutingEngine):
    """Global greedy edge deletion plus the Section 3.5 phases."""

    name = "edge-deletion"

    def route(self) -> GlobalRoutingResult:
        return self.router.route()
