"""Critical path constraints and their subgraphs ``G_d(P)`` (Section 2.2).

A constraint is a trio ``P = (S_P, T_P, δ_P)``: source terminals, sink
terminals, and a delay limit.  Its *delay constraint graph* ``G_d(P)`` is
the subgraph of ``G_D`` containing exactly the vertices and arcs lying on
some path from an ``S_P`` vertex to a ``T_P`` vertex.  Everything the
router's delay criteria need per candidate edge — longest-path values
``lp(v)``, margins ``M(P)``, the arcs a given net contributes — is computed
on these (usually small) subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..errors import TimingError
from ..netlist.circuit import Net
from .delay_graph import DelayArc, GlobalDelayGraph


@dataclass(frozen=True)
class PathConstraint:
    """``(S_P, T_P, δ_P)`` on ``G_D`` vertex indices.

    ``sources`` and ``sinks`` are vertex-index sets (the paper allows
    multiple S/T terminals per constraint).  ``limit_ps`` is ``δ_P``.
    """

    name: str
    sources: FrozenSet[int]
    sinks: FrozenSet[int]
    limit_ps: float

    def __post_init__(self) -> None:
        if not self.sources or not self.sinks:
            raise TimingError(
                f"constraint {self.name}: empty source or sink set"
            )
        if self.limit_ps <= 0.0:
            raise TimingError(
                f"constraint {self.name}: limit must be positive"
            )


class ConstraintGraph:
    """``G_d(P)``: the S→T path closure of ``G_D`` for one constraint.

    The vertices are stored in topological order (``topo``), with
    ``pos[vertex_index] = topological position``.  ``arcs`` keeps the
    retained :class:`DelayArc` objects sorted so that a single forward pass
    computes longest paths.  ``arcs_of_net`` indexes, for each net, the
    positions (into ``arcs``) of the arcs that net's wiring capacitance
    feeds — the set the local margin ``LM(e, P)`` must examine — and
    ``in_arcs_at``, for each topological position, the positions of the
    arcs entering it, ascending (the critical-path trace's index).  A
    constraint graph never changes after construction, so both are
    built once.
    """

    def __init__(
        self,
        constraint: PathConstraint,
        gd: GlobalDelayGraph,
        topo: Sequence[int],
        arcs: Sequence[DelayArc],
    ) -> None:
        self.constraint = constraint
        self.gd = gd
        self.topo: List[int] = list(topo)
        self.pos: Dict[int, int] = {v: i for i, v in enumerate(self.topo)}
        self.arcs: List[DelayArc] = sorted(
            arcs, key=lambda a: self.pos[a.tail]
        )
        self.arcs_of_net: Dict[str, List[int]] = {}
        self.in_arcs_at: Dict[int, List[int]] = {}
        for i, arc in enumerate(self.arcs):
            self.arcs_of_net.setdefault(arc.net.name, []).append(i)
            self.in_arcs_at.setdefault(self.pos[arc.head], []).append(i)
        self.source_positions = [
            self.pos[v] for v in constraint.sources if v in self.pos
        ]
        self.sink_positions = [
            self.pos[v] for v in constraint.sinks if v in self.pos
        ]
        if not self.source_positions or not self.sink_positions:
            raise TimingError(
                f"constraint {constraint.name}: no source-to-sink path"
            )

    @classmethod
    def of(
        cls, gd: GlobalDelayGraph, constraint: PathConstraint
    ) -> "ConstraintGraph":
        """``G_d(P)`` of ``constraint`` on ``gd``.

        The graph depends on ``G_D`` and the constraint alone, and
        ``G_D`` never changes once built, so one graph per constraint
        serves the router, sign-off and the reports: it is built on the
        first read and kept on ``gd`` (``gd.constraint_graphs``), as
        :meth:`GlobalDelayGraph.of` keeps ``G_D`` on its circuit.  A
        graph is never edited by its readers.
        :func:`build_constraint_graph` is the uncached constructor.
        """
        graph = gd.constraint_graphs.get(constraint)
        if graph is None:
            graph = build_constraint_graph(gd, constraint)
            gd.constraint_graphs[constraint] = graph
        return graph

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.constraint.name

    @property
    def limit_ps(self) -> float:
        return self.constraint.limit_ps

    def nets(self) -> List[Net]:
        """Distinct nets whose wiring affects this constraint."""
        seen: Dict[str, Net] = {}
        for arc in self.arcs:
            seen.setdefault(arc.net.name, arc.net)
        return list(seen.values())

    def involves_net(self, net: Net) -> bool:
        return net.name in self.arcs_of_net

    def __repr__(self) -> str:
        return (
            f"ConstraintGraph({self.name}: {len(self.topo)} vertices, "
            f"{len(self.arcs)} arcs, limit={self.limit_ps}ps)"
        )


def build_constraint_graph(
    gd: GlobalDelayGraph, constraint: PathConstraint
) -> ConstraintGraph:
    """Extract ``G_d(P)`` from ``G_D`` by forward/backward reachability."""
    n = len(gd.vertices)
    for v in constraint.sources | constraint.sinks:
        if not (0 <= v < n):
            raise TimingError(
                f"constraint {constraint.name}: vertex {v} out of range"
            )

    forward = _reachable(gd, constraint.sources, downstream=True)
    backward = _reachable(gd, constraint.sinks, downstream=False)
    keep = forward & backward
    if not keep:
        raise TimingError(
            f"constraint {constraint.name}: no source-to-sink path"
        )

    topo = [v for v in gd.topological_order() if v in keep]
    arcs = [a for a in gd.arcs if a.tail in keep and a.head in keep]
    return ConstraintGraph(constraint, gd, topo, arcs)


def _reachable(
    gd: GlobalDelayGraph, seeds: FrozenSet[int], downstream: bool
) -> set:
    """Vertices reachable from ``seeds`` following arcs forward or back."""
    adjacency = gd.out_arcs if downstream else gd.in_arcs
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for arc_id in adjacency[v]:
            arc = gd.arcs[arc_id]
            nxt = arc.head if downstream else arc.tail
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen
