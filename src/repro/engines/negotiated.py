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

Negotiation never changes a routing graph; only finalization prunes.
So everything a reroute needs from a graph is derived once per net, in
:class:`_NetGeometry`: base edge lengths, vertex columns, and each
trunk's coverage as a flat index range into a channels × columns grid.
The engine owns its congestion state outright: an int32 ``usage`` array
of the chosen trees and a float64 ``history`` array over that grid, and
an int32 ``cap`` budget per channel.  A reroute moves its tree's usage
one trunk slice at a time and prices its net in one elementwise pass
over the net's flat window.  The router's shared density maps are
touched only by finalization, and only for the edges it changes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bipolar.multipitch import density_weight
from ..core.density import coverage_columns
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


class _NetGeometry:
    """What pricing, A* and usage moves need from one net's graph.

    ``spans[e]`` is trunk ``e``'s coverage as a half-open flat range
    ``[a, b)`` into the row-major channels × columns grid (``None`` for
    branch and correspondence edges).  ``window`` holds the flat columns
    the net can pay for: per channel, every column from the lowest to
    the highest one its trunks cover, with ``rows`` the channel of each
    entry.  ``trunks`` lists ``(edge id, a, b)`` with ``[a, b)`` the
    trunk's slice of ``window``.  The chip bounds are checked here,
    once, for every trunk.
    """

    __slots__ = ("lengths", "xs", "weight", "spans", "window", "rows",
                 "trunks")

    def __init__(self, graph, weight: int, n_channels: int, width: int):
        self.lengths: List[float] = [edge.length_um for edge in graph.edges]
        self.xs: List[int] = [vertex.x for vertex in graph.vertices]
        self.weight = weight
        self.spans: List[Optional[Tuple[int, int]]] = [None] * len(
            graph.edges
        )
        by_channel: Dict[int, List[Tuple[int, int, int]]] = {}
        for edge in graph.edges:
            if edge.kind is not EdgeKind.TRUNK:
                continue
            channel = edge.channel
            if not 0 <= channel < n_channels:
                raise RoutingError(f"channel {channel} out of range")
            lo, hi = coverage_columns(edge)
            if lo < 0 or hi >= width:
                raise RoutingError(
                    f"{edge.kind.value} edge covers columns {lo}..{hi} "
                    f"beyond chip width {width}"
                )
            base = channel * width
            self.spans[edge.index] = (base + lo, base + hi + 1)
            by_channel.setdefault(channel, []).append((edge.index, lo, hi))
        window: List[int] = []
        rows: List[int] = []
        self.trunks: List[Tuple[int, int, int]] = []
        for channel in sorted(by_channel):
            members = by_channel[channel]
            first = min(lo for _, lo, _ in members)
            stop = max(hi for _, _, hi in members) + 1
            offset = len(window) - first
            for index, lo, hi in members:
                self.trunks.append((index, offset + lo, offset + hi + 1))
            base = channel * width
            window.extend(range(base + first, base + stop))
            rows.extend([channel] * (stop - first))
        self.window = np.array(window, dtype=np.intp)
        self.rows = np.array(rows, dtype=np.intp)


class NegotiatedEngine(RoutingEngine):
    """Iterative rip-up-and-reroute with present + history congestion."""

    name = "negotiated"

    def route(self) -> GlobalRoutingResult:
        return self.router.route(self._negotiate_and_finalize)

    def _negotiate_and_finalize(self) -> None:
        router = self.router
        self._init_negotiation()
        with router.profiler.phase("negotiate"):
            self._negotiate()
        with router.profiler.phase("finalize"):
            self._finalize()
        router._snapshot_density("post_improvement")

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
        self._usage = np.zeros((n_channels, width), dtype=np.int32)
        self._history = np.zeros((n_channels, width), dtype=np.float64)
        # Flat views of the same memory, indexed by _NetGeometry.
        self._usage_flat = self._usage.reshape(-1)
        self._history_flat = self._history.reshape(-1)
        self._geometry: Dict[str, _NetGeometry] = {
            name: self._build_geometry(state)
            for name, state in router.states.items()
        }
        self._trees: Dict[str, Set[int]] = {}
        self._iterations = 0
        self._pitch = router.config.technology.pitch_um
        metrics = router.metrics
        self._m_iterations = metrics.counter("negotiate.iterations")
        self._m_reroutes = metrics.counter("negotiate.reroutes")
        self._m_relaxations = metrics.counter("negotiate.cap_relaxations")
        self._m_pops = metrics.counter("negotiate.astar_pops")

    def _build_geometry(self, state) -> _NetGeometry:
        n_channels, width = self._usage.shape
        return _NetGeometry(
            state.graph, density_weight(state.net), n_channels, width
        )

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
        over = self._usage - self._cap[:, None]
        np.maximum(over, 0, out=over)
        self._history += over

    def _overuse(self) -> Tuple[int, List[str]]:
        """``(overused column count, lead nets touching one)``."""
        hot = np.flatnonzero(self._usage > self._cap[:, None]).tolist()
        if not hot:
            return 0, []
        overused: List[str] = []
        for state in self._lead_states():
            if self._tree_overused(state, hot):
                overused.append(state.net.name)
                continue
            if state.pair is not None:
                partner = self.router.states[state.pair.partner_net]
                if self._tree_overused(partner, hot):
                    overused.append(state.net.name)
        return len(hot), overused

    def _tree_overused(self, state, hot: List[int]) -> bool:
        """Whether a trunk of the state's tree covers a flat column in
        the sorted list ``hot``."""
        name = state.net.name
        tree = self._trees.get(name)
        if not tree:
            return False
        spans = self._geometry[name].spans
        n_hot = len(hot)
        for edge_id in tree:
            span = spans[edge_id]
            if span is None:
                continue
            i = bisect_left(hot, span[0])
            if i < n_hot and hot[i] < span[1]:
                return True
        return False

    def _relax_caps(self) -> int:
        """Lift still-overused channels' budgets to their usage peaks.

        Guarantees termination: with the relaxed budgets the current
        trees are legal by construction.  Returns how many channels had
        to be relaxed (``negotiate.cap_relaxations``).
        """
        peaks = self._usage.max(axis=1)
        stuck = peaks > self._cap
        self._cap[stuck] = peaks[stuck]
        return int(np.count_nonzero(stuck))

    # ==================================================================
    # Per-net routing
    # ==================================================================
    def _rip_up(self, state) -> None:
        self._drop_tree(state)
        if state.pair is not None:
            self._drop_tree(self.router.states[state.pair.partner_net])

    def _drop_tree(self, state) -> None:
        """Take the state's tree out of ``usage``.

        Each span is checked against the array as the removal has left
        it so far, so trunks that share a column are checked together.
        A removal that would drive a column negative — usage that was
        never added — puts back the spans already taken out and raises,
        leaving the array and the tree exactly as they were.
        """
        name = state.net.name
        tree = self._trees.get(name)
        if not tree:
            return
        geo = self._geometry[name]
        usage = self._usage_flat
        weight = geo.weight
        spans = geo.spans
        taken: List[np.ndarray] = []
        for edge_id in tree:
            span = spans[edge_id]
            if span is None:
                continue
            window = usage[span[0] : span[1]]
            if window.min() < weight:
                for earlier in taken:
                    earlier += weight
                raise RoutingError(
                    f"negative usage at flat columns {span[0]}.."
                    f"{span[1] - 1} — unbalanced add/remove"
                )
            window -= weight
            taken.append(window)
        del self._trees[name]

    def _route_net(self, state, pn: float, criticality: float) -> None:
        router = self.router
        discount = 1.0
        if (
            router.config.timing_driven
            and state.context is not None
            and state.context.constrained
        ):
            discount = 1.0 - _TIMING_DISCOUNT * criticality
        geo = self._geometry[state.net.name]
        cost = self._edge_costs(geo, pn, discount)
        tree = self._grow_tree(state.graph, geo, cost)
        self._adopt_tree(state, tree)
        if state.pair is not None:
            self._mirror_tree(state, tree, pn)

    def _adopt_tree(self, state, tree: Set[int]) -> None:
        name = state.net.name
        self._trees[name] = tree
        geo = self._geometry[name]
        usage = self._usage_flat
        weight = geo.weight
        spans = geo.spans
        lengths = geo.lengths
        length = 0.0
        for edge_id in tree:
            span = spans[edge_id]
            if span is not None:
                usage[span[0] : span[1]] += weight
            length += lengths[edge_id]
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
                geo = self._geometry[partner.net.name]
                cost = self._edge_costs(geo, pn, 1.0)
                self._adopt_tree(
                    partner, self._grow_tree(partner.graph, geo, cost)
                )
                return
            mirrored.add(partner_edge)
        self._adopt_tree(partner, mirrored)

    def _edge_costs(
        self, geo: _NetGeometry, pn: float, discount: float
    ) -> List[float]:
        """Negotiated cost per edge id of one net's graph.

        The penalty is evaluated only where the net can pay it, over
        its flat window, in one elementwise pass; each trunk then sums
        its slice with the same ``.sum()`` a chip-wide penalty row would
        use, so the costs do not depend on the window's extent.  Usage,
        budgets and weight are integers, so ``over`` is exact in int32.
        When the whole window prices to zero every trunk would add
        ``0.0`` to its length, which changes nothing, so the base
        lengths are returned as they are.
        """
        idx = geo.window
        over = self._usage_flat[idx]
        over -= self._cap[geo.rows]
        over += geo.weight
        np.maximum(over, 0, out=over)
        window = self._history_flat[idx]
        window *= self.router.config.neg_history_weight
        window += pn * over
        window *= self._pitch * discount
        if not window.any():
            return geo.lengths
        costs = list(geo.lengths)
        for index, a, b in geo.trunks:
            costs[index] += float(window[a:b].sum())
        return costs

    # ==================================================================
    # Tree growth (multi-source goal-directed A*)
    # ==================================================================
    def _grow_tree(
        self, graph: RoutingGraph, geo: _NetGeometry, cost: Sequence[float]
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
            path = self._astar(graph, geo, cost, in_tree, remaining)
            for vertex, edge_id in path:
                in_tree.add(vertex)
                if edge_id >= 0:
                    tree_edges.add(edge_id)
            remaining -= in_tree
        return tree_edges

    def _astar(
        self,
        graph: RoutingGraph,
        geo: _NetGeometry,
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
        edges cross rows at zero cost through cell terminals.  It is
        computed once per vertex per search, when the vertex is first
        pushed; heap entries are ``(f, g, vertex)``.
        """
        pitch = self._pitch
        xs = geo.xs
        target_xs = sorted({xs[t] for t in targets})
        n_targets = len(target_xs)

        def heuristic(vertex: int) -> float:
            x = xs[vertex]
            i = bisect_left(target_xs, x)
            if i == n_targets:
                return (x - target_xs[-1]) * pitch
            if i == 0:
                return (target_xs[0] - x) * pitch
            return min(target_xs[i] - x, x - target_xs[i - 1]) * pitch

        # The list mirror, not the numpy arrays: this A* relaxes edges
        # one at a time in Python, where list indexing avoids numpy
        # scalar boxing on every neighbour visit.
        indptr, nbr_vertex, nbr_edge, _ = graph.csr_lists()
        n = len(xs)
        dist = [float("inf")] * n
        h = [-1.0] * n  # -1: not evaluated yet in this search
        parent_vertex = [-1] * n
        parent_edge = [-1] * n
        heap: List[Tuple[float, float, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        for vertex in sorted(sources):
            h[vertex] = hv = heuristic(vertex)
            dist[vertex] = 0.0
            push(heap, (hv, 0.0, vertex))
        pops = 0
        while heap:
            _, g, vertex = pop(heap)
            if g > dist[vertex]:
                continue
            pops += 1
            if vertex in targets:
                self._m_pops.inc(pops)
                path: List[Tuple[int, int]] = []
                while vertex >= 0:
                    path.append((vertex, parent_edge[vertex]))
                    vertex = parent_vertex[vertex]
                path.reverse()
                return path
            for slot in range(indptr[vertex], indptr[vertex + 1]):
                other = nbr_vertex[slot]
                ng = g + cost[nbr_edge[slot]]
                if ng < dist[other]:
                    dist[other] = ng
                    parent_vertex[other] = vertex
                    parent_edge[other] = nbr_edge[slot]
                    hv = h[other]
                    if hv < 0.0:
                        h[other] = hv = heuristic(other)
                    push(heap, (ng + hv, ng, other))
        raise RoutingError(
            f"net {graph.net.name}: negotiation found no path to "
            f"{len(targets)} terminal(s)"
        )

    # ==================================================================
    # Finalization
    # ==================================================================
    def _finalize(self) -> None:
        """Prune every graph down to its chosen tree and bring the
        shared density profiles along, so the result/heatmaps reflect
        the final wiring exactly as they do for edge deletion.

        Only what changes is applied to ``router.engine``: the edges
        killed here and pruned by ``reclassify`` leave ``d_M``, and the
        newly essential ones join ``d_m``.  None of the dead edges was
        essential — an essential edge lies on every tree that connects
        the terminals — and an alive essential edge stays essential
        when other edges die, so this equals unregistering and
        re-registering every net.
        """
        router = self.router
        engine = router.engine
        pruned_total = 0
        for name in sorted(router.states):
            state = router.states[name]
            tree = self._trees.get(name)
            if tree is None:
                raise RoutingError(f"net {name}: no negotiated tree")
            graph = state.graph
            alive = graph.alive
            killed = [
                edge_id
                for edge_id in range(len(alive))
                if alive[edge_id] and edge_id not in tree
            ]
            for edge_id in killed:
                alive[edge_id] = False
            pruned_total += len(killed)
            # Direct alive mutation bypasses the graph's incremental
            # bookkeeping on purpose: reclassify() detects the alive-set
            # change against its mirror and rebuilds the bridge
            # decomposition from scratch — and when a net's negotiated
            # tree already equals its alive set (nothing pruned above),
            # the no-op reclassify keeps the CSR caches warm for the
            # _refresh_tree below.
            pruned, newly_essential = graph.reclassify()
            weight = density_weight(state.net)
            edges = graph.edges
            for edge_id in killed + pruned:
                engine.remove_edge(edges[edge_id], weight)
            for edge_id in newly_essential:
                engine.add_bridge(edges[edge_id], weight)
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
        # The per-net geometry only served the negotiation; free it
        # before the flow moves on to channel routing.
        self._geometry = {}
