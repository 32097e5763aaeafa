"""Static timing analysis on ``G_D`` and the constraint graphs ``G_d(P)``.

The router needs three things from timing analysis, all cheap enough to sit
in its inner loop:

* per-constraint longest-path values ``lp(v)`` / ``lq(v)`` (longest path
  from the sources to ``v``, and from ``v`` to the sinks) under the current
  wire-capacitance estimates,
* the margin ``M(P) = δ_P − (critical path delay)`` of every constraint, and
* per-net *slack* values for net ordering (Section 3.1 orders feedthrough
  assignment by ascending slack from a zero-interconnect analysis).

Wire capacitances are passed around as a :class:`WireCaps` mapping so the
same analyzer serves zero-wire analysis, tentative-tree estimates during
routing, and post-channel-routing sign-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TimingError
from ..netlist.circuit import Net
from .constraint import ConstraintGraph
from .delay_graph import DelayArc, GlobalDelayGraph

NEG_INF = float("-inf")


class WireCaps:
    """Per-net wiring capacitance ``CL(n)`` in pF (default 0.0)."""

    __slots__ = ("_caps",)

    def __init__(self, caps: Optional[Dict[str, float]] = None):
        self._caps: Dict[str, float] = dict(caps or {})

    def get(self, net: Net) -> float:
        return self._caps.get(net.name, 0.0)

    def get_name(self, net_name: str) -> float:
        return self._caps.get(net_name, 0.0)

    def set(self, net: Net, cap_pf: float) -> None:
        if cap_pf < 0.0:
            raise TimingError(f"negative CL for net {net.name}")
        self._caps[net.name] = cap_pf

    def copy(self) -> "WireCaps":
        return WireCaps(self._caps)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._caps)

    @staticmethod
    def zero() -> "WireCaps":
        """The zero-interconnect assumption used for net ordering."""
        return WireCaps()


@dataclass
class ConstraintTiming:
    """Timing state of one constraint under a given :class:`WireCaps`.

    ``lp``/``lq`` are indexed by topological *position* in the constraint
    graph.  ``worst_delay_ps`` is the critical-path delay; ``margin_ps`` is
    ``M(P)``.  ``critical_arc_positions`` lists (in path order) the indices
    into ``ConstraintGraph.arcs`` of one critical path.
    """

    graph: ConstraintGraph
    lp: List[float]
    lq: List[float]
    worst_delay_ps: float
    margin_ps: float
    critical_arc_positions: List[int] = field(default_factory=list)
    _lp_arr: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def violated(self) -> bool:
        return self.margin_ps < 0.0

    def lp_array(self) -> np.ndarray:
        """``lp`` as a float64 array (cached — the analysis result is
        immutable), for the candidate engine's timing diff."""
        if self._lp_arr is None:
            self._lp_arr = np.asarray(self.lp, dtype=np.float64)
        return self._lp_arr

    def critical_nets(self) -> List[Net]:
        """Distinct nets along the recorded critical path, path order."""
        seen: Dict[str, Net] = {}
        for pos in self.critical_arc_positions:
            arc = self.graph.arcs[pos]
            seen.setdefault(arc.net.name, arc.net)
        return list(seen.values())


def arc_delay_ps(arc: DelayArc, caps: WireCaps) -> float:
    """Delay of one ``G_D`` arc under the given wire capacitances."""
    return arc.const_ps + caps.get(arc.net) * arc.td_ps_per_pf


class StaticTimingAnalyzer:
    """Longest-path analysis over ``G_D`` and a set of ``G_d(P)``."""

    def __init__(
        self,
        gd: GlobalDelayGraph,
        constraint_graphs: Sequence[ConstraintGraph] = (),
    ):
        self.gd = gd
        self.constraint_graphs: List[ConstraintGraph] = list(
            constraint_graphs
        )
        self._topo = gd.topological_order()

    # ------------------------------------------------------------------
    # Per-constraint analysis
    # ------------------------------------------------------------------
    def analyze_constraint(
        self, cg: ConstraintGraph, caps: WireCaps
    ) -> ConstraintTiming:
        """Forward/backward longest paths and margin for one constraint."""
        lp = self.forward_longest(cg, caps)
        lq = self.backward_longest(cg, caps)
        worst = NEG_INF
        worst_pos = -1
        for pos in cg.sink_positions:
            if lp[pos] > worst:
                worst = lp[pos]
                worst_pos = pos
        if worst == NEG_INF:
            raise TimingError(
                f"constraint {cg.name}: sinks unreachable from sources"
            )
        critical = self._trace_critical(cg, caps, lp, worst_pos)
        return ConstraintTiming(
            graph=cg,
            lp=lp,
            lq=lq,
            worst_delay_ps=worst,
            margin_ps=cg.limit_ps - worst,
            critical_arc_positions=critical,
        )

    def analyze_all(self, caps: WireCaps) -> Dict[str, ConstraintTiming]:
        """Analyze every registered constraint."""
        return {
            cg.name: self.analyze_constraint(cg, caps)
            for cg in self.constraint_graphs
        }

    def forward_longest(
        self, cg: ConstraintGraph, caps: WireCaps
    ) -> List[float]:
        """``lp(v)``: longest source→v path delay, per topo position."""
        lp = [NEG_INF] * len(cg.topo)
        for pos in cg.source_positions:
            vertex = self.gd.vertices[cg.topo[pos]]
            lp[pos] = max(lp[pos], vertex.source_offset_ps)
        for arc in cg.arcs:
            t = lp[cg.pos[arc.tail]]
            if t == NEG_INF:
                continue
            candidate = t + arc.const_ps + caps.get(arc.net) * arc.td_ps_per_pf
            head_pos = cg.pos[arc.head]
            if candidate > lp[head_pos]:
                lp[head_pos] = candidate
        return lp

    def backward_longest(
        self, cg: ConstraintGraph, caps: WireCaps
    ) -> List[float]:
        """``lq(v)``: longest v→sink path delay, per topo position."""
        lq = [NEG_INF] * len(cg.topo)
        for pos in cg.sink_positions:
            lq[pos] = 0.0
        for arc in reversed(cg.arcs):
            h = lq[cg.pos[arc.head]]
            if h == NEG_INF:
                continue
            candidate = h + arc.const_ps + caps.get(arc.net) * arc.td_ps_per_pf
            tail_pos = cg.pos[arc.tail]
            if candidate > lq[tail_pos]:
                lq[tail_pos] = candidate
        return lq

    def _trace_critical(
        self,
        cg: ConstraintGraph,
        caps: WireCaps,
        lp: List[float],
        end_pos: int,
    ) -> List[int]:
        """Trace one critical path backwards from topo position ``end_pos``.

        Returns arc positions (indices into ``cg.arcs``) in path order:
        at each vertex, the first entering arc (``cg.in_arcs_at``) that
        realizes its longest path.
        """
        in_arcs_at = cg.in_arcs_at
        path: List[int] = []
        pos = end_pos
        eps = 1e-9
        while True:
            candidates = in_arcs_at.get(pos, ())
            step = None
            for i in candidates:
                arc = cg.arcs[i]
                tail_pos = cg.pos[arc.tail]
                if lp[tail_pos] == NEG_INF:
                    continue
                d = arc.const_ps + caps.get(arc.net) * arc.td_ps_per_pf
                if abs(lp[tail_pos] + d - lp[pos]) <= eps * max(
                    1.0, abs(lp[pos])
                ):
                    step = i
                    break
            if step is None:
                break
            path.append(step)
            pos = cg.pos[cg.arcs[step].tail]
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Whole-graph analysis (for the reported "Delay" columns)
    # ------------------------------------------------------------------
    def graph_critical_delay(self, caps: WireCaps) -> float:
        """Longest source→sink delay over all of ``G_D``."""
        lp = [NEG_INF] * len(self.gd.vertices)
        for vertex in self.gd.sources():
            lp[vertex.index] = vertex.source_offset_ps
        for v in self._topo:
            if lp[v] == NEG_INF:
                continue
            base = lp[v]
            for arc_id in self.gd.out_arcs[v]:
                arc = self.gd.arcs[arc_id]
                candidate = base + arc_delay_ps(arc, caps)
                if candidate > lp[arc.head]:
                    lp[arc.head] = candidate
        worst = NEG_INF
        for vertex in self.gd.sinks():
            if lp[vertex.index] > worst:
                worst = lp[vertex.index]
        if worst == NEG_INF:
            return 0.0
        return worst

    # ------------------------------------------------------------------
    # Slack-driven net ordering (Section 3.1)
    # ------------------------------------------------------------------
    def net_slacks(self, caps: WireCaps) -> Dict[str, float]:
        """Minimum slack per net over every constraint it appears in.

        The slack of net ``n`` under constraint ``P`` is the smallest
        ``δ_P − (lp(tail) + delay(arc) + lq(head))`` over the arcs of
        ``G_d(P)`` fed by ``n``.  Nets outside every constraint get +inf.
        """
        slacks: Dict[str, float] = {}
        for cg in self.constraint_graphs:
            lp = self.forward_longest(cg, caps)
            lq = self.backward_longest(cg, caps)
            for net_name, arc_positions in cg.arcs_of_net.items():
                best = slacks.get(net_name, math.inf)
                for i in arc_positions:
                    arc = cg.arcs[i]
                    t = lp[cg.pos[arc.tail]]
                    h = lq[cg.pos[arc.head]]
                    if t == NEG_INF or h == NEG_INF:
                        continue
                    d = arc.const_ps + caps.get(arc.net) * arc.td_ps_per_pf
                    slack = cg.limit_ps - (t + d + h)
                    if slack < best:
                        best = slack
                slacks[net_name] = best
        return slacks


def net_criticality_order(
    analyzer: StaticTimingAnalyzer,
    nets: Iterable[Net],
    caps: Optional[WireCaps] = None,
) -> List[Net]:
    """Nets sorted by ascending slack (most critical first).

    This is the paper's feedthrough-assignment order: "the order is defined
    according to a static delay analysis ... with zero interconnection
    capacitance; slack values are obtained ... arranging the slack values
    in ascending order."  Unconstrained nets keep their relative order at
    the end of the list.
    """
    caps = caps if caps is not None else WireCaps.zero()
    slacks = analyzer.net_slacks(caps)
    ordered = list(nets)
    ordered.sort(key=lambda n: slacks.get(n.name, math.inf))
    return ordered
