"""PathFinder-style negotiated-congestion routing engine.

Instead of the paper's global greedy deletion, every net independently
picks a minimum-cost tree over its full routing graph ``G_r(n)``, where
the cost of occupying a channel column blends three terms::

    cost(e) = length(e) + Σ_columns (h · history + pn · overuse) · pitch

``overuse`` is how far the column would sit above its capacity budget if
this net used it, ``pn`` is the present-congestion multiplier (starts at
``RouterConfig.neg_init_pn``, multiplied by ``neg_pn_factor`` every
iteration), and ``history`` accumulates each column's overuse across
iterations so persistently contested columns become expensive even when
momentarily legal (the classic first-order PathFinder schedule; the
``init_pn``/``pn_factor``/``node_history`` naming follows the cyclone
router exemplar).

Per iteration, every net whose tree touches an overused column is ripped
up and rerouted under the escalated costs, most timing-critical first
(ascending slack from the existing delay arcs, recomputed from the
currently chosen trees); constrained nets also pay a discounted
congestion cost so they keep short paths while flexible nets detour.
Trees are grown terminal-by-terminal with goal-directed A* over the CSR
adjacency: multi-source from the partial tree, and an admissible
horizontal-distance heuristic (vertical distance is *not* admissible
here — correspondence edges let a path change channels at zero cost
through a cell terminal).

Capacity budgets start at each channel's initial ``C_m`` — a true lower
bound on the achievable channel density, because every essential (bridge)
edge of a net's full graph appears in *any* subgraph connecting its
terminals.  If negotiation has not converged after
``neg_max_iterations``, the budgets of still-overused channels are
relaxed to their current usage peaks, which guarantees termination with
zero overuse (the relaxation count is reported as
``negotiate.cap_relaxations``).

Differential pairs route in lock step: the lead's tree is mirrored onto
the partner graph through the Section 4.1 edge correspondence, and both
trees charge usage.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bipolar.multipitch import density_weight
from ..core.density import DensityEngine, coverage_columns
from ..core.result import GlobalRoutingResult
from ..errors import RoutingError
from ..routegraph.graph import EdgeKind, RoutingGraph
from ..timing.sta import net_criticality_order
from .base import RoutingEngine

# How strongly a maximally critical constrained net discounts congestion
# cost relative to an uncritical one (0 = ignore timing, 1 = critical
# nets see no congestion at all).  Fixed rather than configurable: the
# schedule knobs (pn/history) are the tuning surface.
_TIMING_DISCOUNT = 0.5

# Iterations without a strict improvement of the overused-column count
# before negotiation concludes the remaining overuse is infeasible and
# relaxes the stuck channels' budgets.
_STALL_LIMIT = 6


class NegotiatedEngine(RoutingEngine):
    """Iterative rip-up-and-reroute with present + history congestion."""

    name = "negotiated"

    def route(self) -> GlobalRoutingResult:
        router = self.router
        router.begin_route()
        with router.profiler.phase("route"):
            router.prepare()
            self._init_negotiation()
            router._log("negotiate", "negotiation loop starts")
            with router.phase_scope("negotiate"):
                self._negotiate()
            router._log(
                "negotiate", "loop done", float(self._iterations)
            )
            with router.phase_scope("finalize"):
                self._finalize()
            router._snapshot_density("post_improvement")
        elapsed = router.profiler.wall_s("route")
        result = router.build_result(elapsed)
        if router.tracer.enabled:
            router.tracer.emit(
                "run_end",
                deletions=router.deletions,
                reroutes=router.reroutes,
                violations=len(result.violations),
                wall_s=round(elapsed, 6),
            )
        return result

    # ==================================================================
    # Negotiation state
    # ==================================================================
    def _init_negotiation(self) -> None:
        router = self.router
        engine = router.engine
        n_channels = engine.n_channels
        width = engine.width_columns
        # Initial C_m per channel is a valid lower bound on the final
        # channel density (see module docstring) — the budget negotiation
        # tries to hit.  Floor of 1: a channel without essential trunks
        # still has to fit whatever routes through it.
        self._cap = np.array(
            [
                max(1, engine.channel_stats(c).c_min)
                for c in range(n_channels)
            ],
            dtype=np.int32,
        )
        self._usage = DensityEngine(n_channels, width)
        self._history = [
            np.zeros(width, dtype=np.float64) for _ in range(n_channels)
        ]
        self._trees: Dict[str, Set[int]] = {}
        self._iterations = 0
        self._pitch = router.config.technology.pitch_um
        metrics = router.metrics
        self._m_iterations = metrics.counter("negotiate.iterations")
        self._m_reroutes = metrics.counter("negotiate.reroutes")
        self._m_relaxations = metrics.counter("negotiate.cap_relaxations")
        self._m_pops = metrics.counter("negotiate.astar_pops")

    def _lead_states(self) -> List:
        return [
            state
            for _, state in sorted(self.router.states.items())
            if not state.is_follower
        ]

    def _order_nets(self, states: Sequence) -> List:
        """Lead states most-critical-first (ascending slack under the
        currently chosen trees); name order without timing."""
        router = self.router
        if not (router.config.timing_driven and router.constraint_graphs):
            return sorted(states, key=lambda s: s.net.name)
        by_name = {s.net.name: s for s in states}
        nets = [s.net for s in sorted(states, key=lambda s: s.net.name)]
        ordered = net_criticality_order(router.analyzer, nets, router.caps)
        return [by_name[net.name] for net in ordered]

    # ==================================================================
    # The negotiation loop
    # ==================================================================
    def _negotiate(self) -> None:
        router = self.router
        config = router.config
        pn = config.neg_init_pn
        relaxations = 0
        best_cols: Optional[int] = None
        stall = 0
        to_route: Optional[List[str]] = None  # None → route everything
        while True:
            order = self._order_nets(self._lead_states())
            n_ordered = max(1, len(order) - 1)
            rerouted = 0
            reroute_set = None if to_route is None else set(to_route)
            for rank, state in enumerate(order):
                name = state.net.name
                if reroute_set is not None and name not in reroute_set:
                    continue
                self._rip_up(state)
                criticality = 1.0 - rank / n_ordered
                self._route_net(state, pn, criticality)
                rerouted += 1
            self._iterations += 1
            self._m_iterations.inc()
            self._m_reroutes.inc(rerouted)
            router.reroutes += rerouted
            overused_cols, overused_nets = self._overuse()
            if router.tracer.enabled:
                router.tracer.emit(
                    "negotiation_iteration",
                    iteration=self._iterations,
                    pn=round(pn, 6),
                    rerouted=rerouted,
                    overused_columns=overused_cols,
                    overused_nets=len(overused_nets),
                    cap_relaxations=relaxations,
                )
                router.heartbeat.beat(
                    "negotiate",
                    force=True,
                    iteration=self._iterations,
                    pn=round(pn, 6),
                    overused_columns=overused_cols,
                    overused_nets=len(overused_nets),
                )
            if not overused_nets:
                break
            if best_cols is None or overused_cols < best_cols:
                best_cols = overused_cols
                stall = 0
            else:
                stall += 1
            # The C_m budget is a per-channel lower bound; hitting every
            # channel's bound simultaneously may be infeasible, in which
            # case overuse plateaus at some positive floor.  Stop pushing
            # pn once negotiation has clearly stopped making progress.
            stalled = stall >= _STALL_LIMIT
            if stalled or self._iterations >= config.neg_max_iterations:
                relaxations = self._relax_caps()
                self._m_relaxations.inc(relaxations)
                if router.tracer.enabled:
                    router.tracer.emit(
                        "negotiation_iteration",
                        iteration=self._iterations,
                        pn=round(pn, 6),
                        rerouted=0,
                        overused_columns=0,
                        overused_nets=0,
                        cap_relaxations=relaxations,
                    )
                break
            pn *= config.neg_pn_factor
            self._accumulate_history()
            to_route = overused_nets
        router.metrics.gauge("negotiate.final_pn").set(float(pn))
        router.metrics.gauge("negotiate.overused_columns").set(
            float(self._overuse()[0])
        )

    def _accumulate_history(self) -> None:
        for channel in range(self._usage.n_channels):
            over = (
                self._usage.d_max[channel].astype(np.float64)
                - float(self._cap[channel])
            )
            np.clip(over, 0.0, None, out=over)
            self._history[channel] += over

    def _overuse(self) -> Tuple[int, List[str]]:
        """``(overused column count, lead nets touching one)``."""
        masks = [
            self._usage.d_max[c] > self._cap[c]
            for c in range(self._usage.n_channels)
        ]
        total = sum(int(mask.sum()) for mask in masks)
        if total == 0:
            return 0, []
        overused: List[str] = []
        for state in self._lead_states():
            if self._tree_overused(state, masks):
                overused.append(state.net.name)
                continue
            if state.pair is not None:
                partner = self.router.states[state.pair.partner_net]
                if self._tree_overused(partner, masks):
                    overused.append(state.net.name)
        return total, overused

    def _tree_overused(self, state, masks) -> bool:
        tree = self._trees.get(state.net.name)
        if not tree:
            return False
        graph = state.graph
        for edge_id in tree:
            edge = graph.edges[edge_id]
            if edge.kind is not EdgeKind.TRUNK:
                continue
            lo, hi = coverage_columns(edge)
            if masks[edge.channel][lo : hi + 1].any():
                return True
        return False

    def _relax_caps(self) -> int:
        """Lift still-overused channels' budgets to their usage peaks.

        Guarantees termination: with the relaxed budgets the current
        trees are legal by construction.  Returns how many channels had
        to be relaxed (``negotiate.cap_relaxations``).
        """
        relaxed = 0
        for channel in range(self._usage.n_channels):
            peak = int(self._usage.d_max[channel].max())
            if peak > self._cap[channel]:
                self._cap[channel] = peak
                relaxed += 1
        return relaxed

    # ==================================================================
    # Per-net routing
    # ==================================================================
    def _rip_up(self, state) -> None:
        self._drop_tree(state)
        if state.pair is not None:
            self._drop_tree(self.router.states[state.pair.partner_net])

    def _drop_tree(self, state) -> None:
        tree = self._trees.pop(state.net.name, None)
        if not tree:
            return
        weight = density_weight(state.net)
        for edge_id in tree:
            self._usage.remove_edge(state.graph.edges[edge_id], weight)

    def _route_net(self, state, pn: float, criticality: float) -> None:
        router = self.router
        discount = 1.0
        if (
            router.config.timing_driven
            and state.context is not None
            and state.context.constrained
        ):
            discount = 1.0 - _TIMING_DISCOUNT * criticality
        cost = self._edge_costs(state, pn, discount)
        tree = self._grow_tree(state.graph, cost)
        self._adopt_tree(state, tree)
        if state.pair is not None:
            self._mirror_tree(state, tree, pn)

    def _adopt_tree(self, state, tree: Set[int]) -> None:
        self._trees[state.net.name] = tree
        weight = density_weight(state.net)
        graph = state.graph
        length = 0.0
        for edge_id in tree:
            edge = graph.edges[edge_id]
            self._usage.add_edge(edge, weight)
            length += edge.length_um
        # Keep the timing view in step with the chosen trees so the next
        # iteration's criticality order reflects them.
        router = self.router
        cl = router.delay_model.wire_cap_pf(
            length, state.net.width_pitches
        )
        router._set_wire_cap(state.net, cl)
        router._timing_dirty = True

    def _mirror_tree(self, state, tree: Set[int], pn: float) -> None:
        """Mirror the lead's tree onto the partner graph (Section 4.1)."""
        pair = state.pair
        partner = self.router.states[pair.partner_net]
        mirrored: Set[int] = set()
        for edge_id in tree:
            partner_edge = pair.edge_map.get(edge_id)
            if partner_edge is None:
                # The correspondence does not cover the chosen tree —
                # give up lock-step and route the partner on its own.
                self.router._break_pair(state)
                cost = self._edge_costs(partner, pn, 1.0)
                self._adopt_tree(
                    partner, self._grow_tree(partner.graph, cost)
                )
                return
            mirrored.add(partner_edge)
        self._adopt_tree(partner, mirrored)

    def _edge_costs(
        self, state, pn: float, discount: float
    ) -> List[float]:
        """Negotiated cost per edge id of the state's graph.

        The penalty is evaluated only where the net can pay it: per
        channel, over the window from the lowest to the highest column
        its trunk edges cover.  Each trunk sums its slice of that window,
        the same values in the same order as a chip-wide penalty row, so
        the costs do not depend on the window's extent.
        """
        graph = state.graph
        costs = [0.0] * len(graph.edges)
        spans: Dict[int, List[Tuple[int, int, int]]] = {}
        for edge in graph.edges:
            costs[edge.index] = edge.length_um
            if edge.kind is EdgeKind.TRUNK:
                lo, hi = coverage_columns(edge)
                spans.setdefault(edge.channel, []).append(
                    (edge.index, lo, hi)
                )
        usage = self._usage
        weight = density_weight(state.net)
        h_weight = self.router.config.neg_history_weight
        scale = self._pitch * discount
        for channel, trunks in spans.items():
            first = min(lo for _, lo, _ in trunks)
            stop = max(hi for _, _, hi in trunks) + 1
            over = (
                usage.d_max[channel][first:stop].astype(np.float64)
                + float(weight)
                - float(self._cap[channel])
            )
            np.clip(over, 0.0, None, out=over)
            window = (
                h_weight * self._history[channel][first:stop] + pn * over
            ) * scale
            for index, lo, hi in trunks:
                costs[index] += float(
                    window[lo - first : hi - first + 1].sum()
                )
        return costs

    # ==================================================================
    # Tree growth (multi-source goal-directed A*)
    # ==================================================================
    def _grow_tree(
        self, graph: RoutingGraph, cost: Sequence[float]
    ) -> Set[int]:
        """Minimum-negotiated-cost tree spanning the graph's terminals.

        Grows from the driver, repeatedly attaching the cheapest
        remaining terminal via multi-source A*.  Every leaf of the
        result is a terminal, so the tree is exactly a legal final
        wiring once the non-tree edges are pruned.
        """
        in_tree: Set[int] = {graph.driver_vertex}
        tree_edges: Set[int] = set()
        remaining = set(graph.terminal_vertices) - in_tree
        while remaining:
            path = self._astar(graph, cost, in_tree, remaining)
            for vertex, edge_id in path:
                in_tree.add(vertex)
                if edge_id >= 0:
                    tree_edges.add(edge_id)
            remaining -= in_tree
        return tree_edges

    def _astar(
        self,
        graph: RoutingGraph,
        cost: Sequence[float],
        sources: Set[int],
        targets: Set[int],
    ) -> List[Tuple[int, int]]:
        """Cheapest path from any source to any target.

        Returns ``[(vertex, edge_id), ...]`` from a source (edge ``-1``)
        to the reached target.  The heuristic is the horizontal distance
        to the nearest target in µm — admissible because trunk edges
        cost ``pitch`` per column plus non-negative penalties, while
        branch/correspondence edges never reduce the horizontal gap.
        Vertical distance is deliberately *not* counted: correspondence
        edges cross rows at zero cost through cell terminals.
        """
        pitch = self._pitch
        vertices = graph.vertices
        target_xs = sorted({vertices[t].x for t in targets})

        def h(vertex: int) -> float:
            x = vertices[vertex].x
            i = bisect_left(target_xs, x)
            best = None
            if i < len(target_xs):
                best = target_xs[i] - x
            if i > 0:
                left = x - target_xs[i - 1]
                if best is None or left < best:
                    best = left
            return best * pitch

        # The list mirror, not the numpy arrays: this A* relaxes edges
        # one at a time in Python, where list indexing avoids numpy
        # scalar boxing on every neighbour visit.
        indptr, nbr_vertex, nbr_edge, _ = graph.csr_lists()
        dist: Dict[int, float] = {}
        parent: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, float, int]] = []
        for source in sorted(sources):
            dist[source] = 0.0
            parent[source] = (-1, -1)
            heapq.heappush(heap, (h(source), 0.0, source))
        pops = 0
        while heap:
            f, g, vertex = heapq.heappop(heap)
            if g > dist.get(vertex, float("inf")):
                continue
            pops += 1
            if vertex in targets:
                self._m_pops.inc(pops)
                return self._reconstruct(parent, vertex)
            for slot in range(indptr[vertex], indptr[vertex + 1]):
                other = nbr_vertex[slot]
                ng = g + cost[nbr_edge[slot]]
                if ng < dist.get(other, float("inf")):
                    dist[other] = ng
                    parent[other] = (vertex, nbr_edge[slot])
                    heapq.heappush(heap, (ng + h(other), ng, other))
        raise RoutingError(
            f"net {graph.net.name}: negotiation found no path to "
            f"{len(targets)} terminal(s)"
        )

    @staticmethod
    def _reconstruct(
        parent: Dict[int, Tuple[int, int]], vertex: int
    ) -> List[Tuple[int, int]]:
        path: List[Tuple[int, int]] = []
        while True:
            prev, edge_id = parent[vertex]
            path.append((vertex, edge_id))
            if edge_id < 0:
                break
            vertex = prev
        path.reverse()
        return path

    # ==================================================================
    # Finalization
    # ==================================================================
    def _finalize(self) -> None:
        """Prune every graph down to its chosen tree and rebuild the
        shared density profiles so the result/heatmaps reflect the final
        wiring exactly as they do for edge deletion."""
        router = self.router
        pruned_total = 0
        for name in sorted(router.states):
            state = router.states[name]
            tree = self._trees.get(name)
            if tree is None:
                raise RoutingError(f"net {name}: no negotiated tree")
            graph = state.graph
            router._unregister_density(state)
            for edge in graph.edges:
                if graph.alive[edge.index] and edge.index not in tree:
                    graph.alive[edge.index] = False
                    pruned_total += 1
            # Direct alive mutation bypasses the graph's incremental
            # bookkeeping on purpose: reclassify() detects the alive-set
            # change against its mirror and rebuilds the bridge
            # decomposition from scratch — and when a net's negotiated
            # tree already equals its alive set (nothing pruned above),
            # the no-op reclassify keeps the CSR caches warm for the
            # _refresh_tree below.
            graph.reclassify()
            router._register_density(state)
            router._refresh_tree(state)
            if not graph.is_tree:
                raise RoutingError(
                    f"net {name}: negotiated tree did not converge"
                )
        router.deletions += pruned_total
        router._timing_dirty = True
        # Scope unknown (graphs were mutated wholesale, and _refresh_tree
        # recorded only changed-tree nets) — force a full re-analysis.
        router._caps_dirty = None
