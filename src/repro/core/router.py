"""The global router (Fig. 2).

Flow (line numbers refer to the paper's Algorithm Global_Router):

* 01 — external-pin and feedthrough assignment, with feed-cell insertion
  when slots run out (Sections 3.1, 4.3);
* 02 — routing graphs ``G_r(n)`` for every net;
* 03 — delay constraint graphs ``G_d(P)``;
* 04–07 — the **initial routing loop**: all nets' deletable edges compete
  globally; each iteration the selection heuristics (Section 3.4) pick
  one edge, it is deleted (together with its differential-pair mirror,
  Section 4.1), and the density/delay criteria are updated incrementally;
* 08–10 — three rip-up-and-reroute improvement phases (Section 3.5),
  driven by :mod:`repro.core.improve`.

Each loop's :class:`~repro.core.candidates.CandidateEngine` recomputes
only the keys whose inputs the last deletion moved: the router reports
every deletion and every constraint re-analysis to it, and the density
engine every changed column span.

Observability: the router emits structured trace events (``run_start``,
``edge_deleted`` with the winning criterion, ``reroute``,
``violation_found/cleared``, ``feed_cell_inserted``) through a
:class:`~repro.obs.events.Tracer`, counts into a
:class:`~repro.obs.metrics.MetricsRegistry`, and times every Fig. 2 phase
with a :class:`~repro.obs.profile.PhaseProfiler` bound to both, whose
scopes are the run's one clock: they emit ``phase_start/end`` and fill
the timing histograms.  All three default to no-ops (``NULL_SINK``
tracing is one attribute check), so an uninstrumented route costs what
it always did.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..bipolar.differential import (
    PairCorrespondence,
    establish_correspondence,
)
from ..bipolar.multipitch import density_weight
from ..errors import RoutingError, RoutingGraphError
from ..layout.feedcell import FeedCellInserter, InsertionReport
from ..layout.feedthrough import FeedthroughAssignment, FeedthroughPlanner
from ..layout.floorplan import Floorplan, assign_external_pins
from ..layout.placement import Placement
from ..netlist.circuit import Circuit, Net
from ..netlist.validate import validate_circuit
from ..obs.decisions import (
    DecisionPolicy,
    SelectionOutcome,
    decision_payload,
)
from ..obs.events import TRACE_SCHEMA_VERSION, TraceSink, Tracer
from ..obs.metrics import MetricsRegistry
from ..obs.profile import HeartbeatEmitter, PhaseProfiler
from ..routegraph.build import build_routing_graph
from ..routegraph.graph import RoutingGraph
from ..routegraph.tentative_tree import TentativeTree
from ..routegraph.tree_engine import TreeEngine
from ..timing.constraint import ConstraintGraph, PathConstraint
from ..timing.delay_graph import GlobalDelayGraph
from ..timing.delay_model import CapacitanceDelayModel
from ..timing.sta import (
    ConstraintTiming,
    StaticTimingAnalyzer,
    WireCaps,
    net_criticality_order,
)
from .candidates import CandidateEngine
from .config import RouterConfig
from .criteria import NetTimingContext
from .density import DensityEngine
from .result import (
    AttachmentRows,
    ConvergedTree,
    GlobalRoutingResult,
    NetRoute,
    RouteTable,
    WireRows,
)
from .selection import SelectionMode, winning_criterion


class _NetState:
    """Mutable per-net routing state."""

    __slots__ = (
        "net",
        "position",
        "graph",
        "tree",
        "tree_engine",
        "cl_pf",
        "cl_if_deleted",
        "context",
        "pair",
        "follower_of",
    )

    def __init__(self, net: Net, position: int, graph: RoutingGraph):
        self.net = net
        # Index into ``GlobalRouter.states`` order (the alive-length
        # ledger of ``_phase_metric``).
        self.position = position
        self.graph = graph
        self.tree: Optional[TentativeTree] = None
        self.tree_engine: Optional[TreeEngine] = None
        # edge_id -> (cl_pf, tree-engine version at evaluation time).
        self.cl_if_deleted: Dict[int, Tuple[float, int]] = {}
        self.context: Optional[NetTimingContext] = None
        self.pair: Optional[PairCorrespondence] = None
        self.follower_of: Optional[str] = None

    @property
    def is_follower(self) -> bool:
        return self.follower_of is not None


class GlobalRouter:
    """Timing- and area-driven edge-deletion global router."""

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
        self.circuit = circuit
        self.placement = placement
        self.constraints = list(constraints)
        self.config = config
        self.delay_model = CapacitanceDelayModel(
            config.technology, config.width_cap_exponent
        )

        # Populated by route():
        self.gd: Optional[GlobalDelayGraph] = None
        self.constraint_graphs: List[ConstraintGraph] = []
        self.analyzer: Optional[StaticTimingAnalyzer] = None
        self.caps = WireCaps()
        self.engine: Optional[DensityEngine] = None
        self.states: Dict[str, _NetState] = {}
        self.planner: Optional[FeedthroughPlanner] = None
        self.assignment: Optional[FeedthroughAssignment] = None
        self.insertion_report = InsertionReport()

        self.deletions = 0
        self.reroutes = 0
        self._timings: Dict[str, ConstraintTiming] = {}
        self._timing_dirty = True
        # Net names whose wire caps changed since the last analysis;
        # None means "unknown — re-analyze everything".  Constraint
        # timings are pure functions of their member nets' caps, so
        # constraints disjoint from this set keep their previous
        # (bit-identical) results.
        self._caps_dirty: Optional[set] = None
        self._cgs_of_net: Dict[str, Tuple[str, ...]] = {}
        # The open deletion loop's candidate engine(s), told of every
        # deletion and constraint re-analysis so they re-key only what
        # moved.
        self._candidate_engines: List[CandidateEngine] = []
        # Each net's alive length in ``states`` order, refreshed for the
        # nets whose trees were refreshed since the last fold (see
        # ``_phase_metric``).
        self._alive_lengths = np.zeros(0)
        self._stale_lengths: set = set()
        self._routed = False

        # Observability (all default to no-ops).
        self.tracer = Tracer.of(trace_sink)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        # Liveness pulses for long routes: one forced beat per traced
        # phase entry, plus a work-count-throttled beat per deletion
        # (see _delete_edge).  Count-based, so traces stay deterministic
        # per job.
        self.heartbeat = HeartbeatEmitter(self.tracer, self.metrics)
        self.profiler.bind(self.tracer, self.metrics, self.heartbeat)
        self._m_deletions = self.metrics.counter("router.deletions")
        self._m_key_evals = self.metrics.counter("router.key_evals")
        self._m_reroutes = self.metrics.counter("router.reroutes")
        self._m_reverted = self.metrics.counter("router.reroutes_reverted")
        self._m_reroutes_noop = self.metrics.counter("router.reroutes_noop")
        self._m_timing = self.metrics.counter("router.timing_analyses")
        self._m_tree_evals = self.metrics.counter("router.tree_evals")
        self._m_tree_fastpath = self.metrics.counter(
            "router.tree_fastpath_hits"
        )
        self._m_tree_dijkstra = self.metrics.counter(
            "router.tree_dijkstra_runs"
        )
        self._m_tree_repeats = self.metrics.counter(
            "router.tree_dijkstra_repeats"
        )
        self._m_tree_traversals = self.metrics.counter(
            "router.tree_traversals"
        )
        # Reclassify observability (attached to every graph this router
        # builds; see RoutingGraph.instrument).  local/full split plus
        # frontier size answer "is the localized path actually carrying
        # the deletions?" without tracing.
        self._m_graph_local = self.metrics.counter(
            "graph.bridge_local_recomputes"
        )
        self._m_graph_fallbacks = self.metrics.counter(
            "graph.bridge_full_fallbacks"
        )
        self._m_graph_frontier = self.metrics.counter(
            "graph.prune_frontier_vertices"
        )
        # One scope factory each for every graph's reclassifications and
        # every net's tree evaluations.
        self._reclassify_timer = partial(
            self.profiler.phase, "reclassify", "graph.reclassify_s"
        )
        self._tree_eval_timer = partial(
            self.profiler.phase, "tree_eval", "router.tree_eval_s"
        )
        # And one each for the deletion loop's picks and deletions.
        self._select_timer = partial(
            self.profiler.phase, "select", "router.select_s"
        )
        self._delete_timer = partial(
            self.profiler.phase, "delete", "router.delete_s"
        )
        # Decision explainability: the candidate engine records the
        # outcome of each select() here (when tracing), and the deletion
        # that follows turns it into a sampled deletion_decision event.
        # Kept out of RouterConfig on purpose — sampling must not change
        # batch-cache keys or routing behaviour.
        self.decisions = DecisionPolicy.parse(decision_sampling)
        self._m_decisions = self.metrics.counter("router.decision_records")
        self._last_decision: Optional[SelectionOutcome] = None
        self._violated_names: frozenset = frozenset()

    # ==================================================================
    # Top level
    # ==================================================================
    def prepare(self) -> None:
        """Run the Fig. 2 setup stages (lines 01–03): validation, the
        delay graphs, pin/feedthrough assignment, per-net routing graphs,
        and the density profiles + tentative trees.

        :meth:`route` runs it before any engine's loop, so every engine
        shares the exact same nets, constraints, densities, and
        differential-pair correspondences; public for tests that stop
        after setup.
        """
        phase = self.profiler.phase
        with phase("setup"):
            validate_circuit(self.circuit)
            with phase("timing"):
                self._build_timing()
            with phase("assignment"):
                self._assign_pins_and_feedthroughs()
            with phase("graphs"):
                self._build_routing_graphs()
            with phase("density"):
                self._init_density_and_trees()
        self._snapshot_density("initial")

    def route(
        self, converge: Optional[Callable[[], None]] = None
    ) -> GlobalRoutingResult:
        """Run the full Fig. 2 flow and return the routing result.

        ``converge`` turns the prepared graphs into trees; the default
        is the paper's deletion loop plus the Section 3.5 phases.  An
        alternative engine passes its own loop and shares the rest of
        the run's frame: ``run_start``, the ``route`` phase, the
        ``build_result`` phase and ``run_end``.
        """
        if self._routed:
            raise RoutingError("route() may only be called once")
        self._routed = True
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "run_start",
                circuit=self.circuit.name,
                nets=len(self.circuit.routable_nets),
                cells=len(self.circuit.cells),
                constraints=len(self.constraints),
                timing_driven=self.config.timing_driven,
                trace_schema=TRACE_SCHEMA_VERSION,
                decision_sampling=self.decisions.spec(),
                engine=self.config.routing_engine,
            )
        with self.profiler.phase("route") as route:
            self.prepare()
            (converge or self._delete_and_improve)()
        # This run's own route time, also when the profiler is shared.
        elapsed = route.wall_s
        with self.profiler.phase("build_result"):
            result = self._build_result(elapsed)
        if tracer.enabled:
            tracer.emit(
                "run_end",
                deletions=self.deletions,
                reroutes=self.reroutes,
                violations=len(result.violations),
                wall_s=round(elapsed, 6),
            )
        return result

    def _delete_and_improve(self) -> None:
        """Fig. 2 lines 04–10: the initial deletion loop, then the
        improvement phases and finalization."""
        phase = self.profiler.phase
        with phase("initial"):
            self._deletion_loop(
                list(self._lead_states()), SelectionMode.TIMING
            )
        self._snapshot_density("post_deletion")

        from .improve import (  # local import avoids a module cycle
            improve_area,
            improve_delay,
            recover_violations,
        )

        timing = self.config.timing_driven
        if timing and self.config.run_violation_recovery:
            with phase("recover_violate"):
                recover_violations(self)
            self._snapshot_density("post_recovery")
        if timing and self.config.run_delay_improvement:
            with phase("improve_delay"):
                improve_delay(self)
        if self.config.run_area_improvement:
            with phase("improve_area"):
                improve_area(self)

        with phase("finalize"):
            self._finalize_trees()
        self._snapshot_density("post_improvement")

    @property
    def _current_phase(self) -> str:
        """The innermost open phase, below which a deletion's ``delete``
        scope and its other per-call scopes run."""
        return self.profiler.current_phase.name

    # ==================================================================
    # Setup stages
    # ==================================================================
    def _build_timing(self) -> None:
        self.gd = GlobalDelayGraph.of(
            self.circuit,
            pad_tf_ps_per_pf=self.config.pad_tf_ps_per_pf,
            pad_td_ps_per_pf=self.config.pad_td_ps_per_pf,
            ff_setup_ps=self.config.ff_setup_ps,
        )
        self.constraint_graphs = [
            ConstraintGraph.of(self.gd, constraint)
            for constraint in self.constraints
        ]
        self.analyzer = StaticTimingAnalyzer(self.gd, self.constraint_graphs)
        cgs_of_net: Dict[str, List[str]] = {}
        for cg in self.constraint_graphs:
            for net in cg.nets():
                cgs_of_net.setdefault(net.name, []).append(cg.name)
        self._cgs_of_net = {
            name: tuple(names) for name, names in cgs_of_net.items()
        }

    def _assign_pins_and_feedthroughs(self) -> None:
        assign_external_pins(self.circuit, self.placement)
        ordered = self._assignment_order()
        inserter = FeedCellInserter(self.circuit, self.placement)
        self.planner, self.assignment, self.insertion_report = (
            inserter.ensure_assignment(ordered)
        )
        self._ordered_nets = ordered
        if self.insertion_report.insertion_ran:
            self.metrics.counter("router.feed_cells_inserted").inc(
                self.insertion_report.inserted_cells
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    "feed_cell_inserted",
                    cells=self.insertion_report.inserted_cells,
                    widened_columns=self.insertion_report.widening_columns,
                )

    def _assignment_order(self) -> List[Net]:
        """Net order for feedthrough assignment (Section 3.1).

        Default (``assignment_order=None``): ascending zero-interconnect
        slack when timing-driven — so critical nets get the slots nearest
        their centres — and netlist order for the unconstrained baseline,
        which has no slack information.
        """
        nets = self.circuit.routable_nets
        order = self.config.assignment_order
        if order is None:
            order = (
                "slack"
                if self.config.timing_driven and self.constraint_graphs
                else "netlist"
            )
        if order == "slack":
            return net_criticality_order(
                self.analyzer, nets, WireCaps.zero()
            )
        if order == "netlist":
            return list(nets)
        if order == "fanout":
            return sorted(nets, key=lambda n: (-n.fanout, n.name))
        if order == "hpwl":
            def span(net: Net) -> int:
                columns = [
                    self.placement.pin_position(pin)[0]
                    for pin in net.pins
                ]
                return max(columns) - min(columns)

            return sorted(nets, key=lambda n: (-span(n), n.name))
        raise RoutingError(f"unknown assignment order {order!r}")

    def _instrument_graph(self, graph: RoutingGraph) -> RoutingGraph:
        """Attach this router's reclassify counters and scope to a
        graph."""
        graph.instrument(
            local_recomputes=self._m_graph_local,
            full_fallbacks=self._m_graph_fallbacks,
            frontier_vertices=self._m_graph_frontier,
            timer=self._reclassify_timer,
        )
        return graph

    def _build_routing_graphs(self) -> None:
        contexts = NetTimingContext.build_all(
            self.circuit.routable_nets,
            self.constraint_graphs if self.config.timing_driven else [],
        )
        for position, net in enumerate(self.circuit.routable_nets):
            graph = self._instrument_graph(
                build_routing_graph(
                    net,
                    self.placement,
                    self.assignment.of_net(net),
                    self.config.technology,
                )
            )
            state = _NetState(net, position, graph)
            state.context = contexts[net.name]
            self.states[net.name] = state
        self._alive_lengths = np.zeros(len(self.states))
        self._pair_up()

    def _pair_up(self) -> None:
        """Establish Section 4.1 correspondences for differential pairs."""
        for lead_net, partner_net in self.circuit.differential_pairs():
            lead = self.states.get(lead_net.name)
            partner = self.states.get(partner_net.name)
            if lead is None or partner is None:
                continue
            pair = establish_correspondence(lead.graph, partner.graph)
            if pair is None:
                continue
            lead.pair = pair
            partner.follower_of = lead_net.name

    def _init_density_and_trees(self) -> None:
        self.engine = DensityEngine(
            self.placement.n_channels, max(1, self.placement.width_columns)
        )
        self.heartbeat.peak_density_fn = self.engine.total_peak
        def entries():
            for state in self.states.values():
                graph = state.graph
                weight = density_weight(state.net)
                for edge_id in graph.alive_edge_ids():
                    yield (
                        graph.coverage(edge_id),
                        weight,
                        graph.essential[edge_id],
                    )

        # One bulk call for what _register_density adds net by net.
        self.engine.add_bulk(entries())
        for state in self.states.values():
            self._refresh_tree(state)
        self._timing_dirty = True

    # ==================================================================
    # Density bookkeeping
    # ==================================================================
    def _register_density(self, state: _NetState) -> None:
        weight = density_weight(state.net)
        graph = state.graph
        for edge_id in graph.alive_edge_ids():
            coverage = graph.coverage(edge_id)
            self.engine.add_edge(coverage, weight)
            if graph.essential[edge_id]:
                self.engine.add_bridge(coverage, weight)

    def _unregister_density(self, state: _NetState) -> None:
        weight = density_weight(state.net)
        graph = state.graph
        for edge_id in graph.alive_edge_ids():
            coverage = graph.coverage(edge_id)
            self.engine.remove_edge(coverage, weight)
            if graph.essential[edge_id]:
                self.engine.remove_bridge(coverage, weight)

    def _snapshot_density(self, label: str) -> None:
        """Emit the full ``d_M``/``d_m`` profiles at a phase boundary."""
        if not self.tracer.enabled or self.engine is None:
            return
        self.tracer.emit(
            "density_snapshot", label=label, **self.engine.snapshot()
        )

    # ==================================================================
    # Tentative trees and wire caps
    # ==================================================================
    def _bind_tree_engine(self, state: _NetState) -> None:
        """(Re)attach a tree engine to the state's *current* graph.

        Graph objects are replaced wholesale by ``reroute_net`` (and its
        rollback), and edge ids are only meaningful within one build, so
        the per-candidate cache must go whenever the engine is rebound.
        """
        state.tree_engine = TreeEngine(
            state.graph,
            self.config.tree_estimator,
            evals=self._m_tree_evals,
            fastpath_hits=self._m_tree_fastpath,
            dijkstra_runs=self._m_tree_dijkstra,
            dijkstra_repeats=self._m_tree_repeats,
            traversals=self._m_tree_traversals,
            timer=self._tree_eval_timer,
        )
        state.cl_if_deleted.clear()

    def _tree_engine(self, state: _NetState) -> TreeEngine:
        engine = state.tree_engine
        if engine is None or engine.graph is not state.graph:
            self._bind_tree_engine(state)
            engine = state.tree_engine
        return engine

    def _refresh_tree(
        self,
        state: _NetState,
        removed: Optional[Sequence[int]] = None,
    ) -> None:
        engine = self._tree_engine(state)
        tree = engine.refresh(removed)
        if tree is None:
            raise RoutingError(
                f"net {state.net.name}: terminals unreachable"
            )
        self._stale_lengths.add(state)
        unchanged = tree is state.tree
        if not unchanged:
            state.tree = tree
            state.cl_pf = self.delay_model.wire_cap_pf(
                tree.total_length_um, state.net.width_pitches
            )
            self._set_wire_cap(state.net, state.cl_pf)
        if self.config.timing_driven and state.context.constrained:
            # Every constrained refresh schedules a timing update, even
            # when the tree object survived (off-tree deletion) and no
            # cap moved.  Such an update re-analyzes nothing; it keeps
            # one timing update after every constrained deletion, which
            # router.timing_analyses counts (perfbench's
            # router.timing_update_calls).  The candidate engine does
            # not rely on it: the deletion event re-keys this net's
            # candidates, whose cl_if_deleted values the refresh
            # restamped.
            self._timing_dirty = True

    def _cl_if_deleted_many(
        self, state: _NetState, edge_ids
    ) -> np.ndarray:
        """Tentative-tree capacitance of one net with each candidate in
        ``edge_ids`` deleted: the ``cl_if_deleted_pf`` input of the
        Section 3.2 delay criteria.

        Entries are cached per candidate, stamped with the tree-engine
        version they were computed at.  Cache hits fill directly; the
        misses go through the tree engine's ``evaluate_many`` in one
        call, which resolves most of them via the off-tree fast path
        without a Dijkstra.  Returns a float64 array parallel to
        ``edge_ids``.
        """
        engine = self._tree_engine(state)
        version = engine.version
        cache = state.cl_if_deleted
        out = np.empty(len(edge_ids), dtype=np.float64)
        missing: List[int] = []
        missing_pos: List[int] = []
        for pos, raw_id in enumerate(edge_ids):
            edge_id = int(raw_id)
            cached = cache.get(edge_id)
            if cached is not None and cached[1] == version:
                out[pos] = cached[0]
            else:
                missing.append(edge_id)
                missing_pos.append(pos)
        if missing:
            trees = engine.evaluate_many(missing)
            wire_cap_pf = self.delay_model.wire_cap_pf
            width = state.net.width_pitches
            for pos, edge_id, tree in zip(missing_pos, missing, trees):
                if tree is None:
                    raise RoutingError(
                        f"net {state.net.name}: edge {edge_id} is "
                        "essential but was offered as a candidate"
                    )
                cl = wire_cap_pf(tree.total_length_um, width)
                cache[edge_id] = (cl, version)
                out[pos] = cl
        return out

    # ==================================================================
    # Timing
    # ==================================================================
    def _ensure_timings(self) -> Dict[str, ConstraintTiming]:
        if self._timing_dirty:
            with self.profiler.phase(
                "timing_update", "router.timing_analysis_s"
            ):
                self._analyze_dirty()
            self._timing_dirty = False
            self._m_timing.inc()
            if self.tracer.enabled:
                self._emit_violation_transitions()
        return self._timings

    def _analyze_dirty(self) -> None:
        """Re-analyze the constraints whose member nets' caps changed.

        A constraint timing is a pure function of its member nets' wire
        caps, so constraints untouched by ``_caps_dirty`` keep their
        previous results — which are bit-for-bit what a full
        ``analyze_all`` would recompute for them.  A ``None`` dirty set
        (initial state, or an invalidation of unknown scope) falls back
        to the full analysis.

        Each re-analyzed constraint goes to the open candidate engines
        as an ``(old, new)`` timing pair, so they re-key only the nets
        whose delay inputs moved; with no engine open, nothing is
        compared.
        """
        before = self._timings
        if self._caps_dirty is None or not before:
            self._timings = self.analyzer.analyze_all(self.caps)
            reanalyzed = self.constraint_graphs
        else:
            affected: set = set()
            for name in self._caps_dirty:
                affected.update(self._cgs_of_net.get(name, ()))
            reanalyzed = [
                cg for cg in self.constraint_graphs if cg.name in affected
            ]
            if reanalyzed:
                timings = dict(before)
                for cg in reanalyzed:
                    timings[cg.name] = self.analyzer.analyze_constraint(
                        cg, self.caps
                    )
                self._timings = timings
        self._caps_dirty = set()
        for engine in self._candidate_engines:
            for cg in reanalyzed:
                engine.on_reanalyzed(
                    before.get(cg.name), self._timings[cg.name]
                )

    def _set_wire_cap(self, net: Net, cap_pf: float) -> None:
        """Update one net's wire cap, recording it for selective STA."""
        self.caps.set(net, cap_pf)
        if self._caps_dirty is not None:
            self._caps_dirty.add(net.name)

    def _emit_violation_transitions(self) -> None:
        """Emit found/cleared events for constraints whose violation
        state flipped since the previous timing analysis."""
        violated = {
            name: timing.margin_ps
            for name, timing in self._timings.items()
            if timing.violated
        }
        for name, margin in violated.items():
            if name not in self._violated_names:
                self.tracer.emit(
                    "violation_found",
                    constraint=name,
                    margin_ps=round(margin, 3),
                )
        for name in self._violated_names:
            if name not in violated:
                self.tracer.emit("violation_cleared", constraint=name)
        self._violated_names = frozenset(violated)

    # ==================================================================
    # Selection
    # ==================================================================
    def _lead_states(self) -> List[_NetState]:
        """States that own candidates (followers mirror their lead)."""
        return [
            self.states[name]
            for name in sorted(self.states)
            if not self.states[name].is_follower
        ]

    def _record_selection(
        self,
        best_key: tuple,
        runner_key: Optional[tuple],
        mode: SelectionMode,
    ) -> None:
        """Remember one select() outcome for the deletion that follows
        (called by the candidate engine, only while tracing)."""
        criterion, depth = winning_criterion(best_key, runner_key, mode)
        self._last_decision = SelectionOutcome(
            best_key, runner_key, criterion, depth, mode
        )

    # ==================================================================
    # Deletion
    # ==================================================================
    def _deletion_loop(
        self, states: Sequence[_NetState], mode: SelectionMode
    ) -> int:
        """Delete edges until no state in ``states`` has a deletable one.

        Returns the number of deletions performed.
        """
        count = 0
        selector = CandidateEngine(self, states, mode)
        try:
            while True:
                with self._select_timer():
                    choice = selector.select()
                if choice is None:
                    return count
                state, edge_id = choice
                with self._delete_timer():
                    self._delete_edge(state, edge_id)
                count += 1
        finally:
            selector.close()

    def _delete_edge(self, state: _NetState, edge_id: int) -> None:
        """Delete one edge plus its differential mirror; update caches."""
        if self.tracer.enabled:
            graph = state.graph
            decision = self._last_decision
            criterion, depth = ("unknown", -1)
            if decision is not None:
                criterion, depth = decision.criterion, decision.depth
            self.tracer.emit(
                "edge_deleted",
                net=state.net.name,
                edge=edge_id,
                channel=graph.edge_channel[edge_id],
                edge_kind=graph.edge_kind[edge_id].value,
                length_um=round(graph.edge_length[edge_id], 3),
                criterion=criterion,
                depth=depth,
                phase=self._current_phase,
            )
            if decision is not None and self.decisions.wants(
                self.deletions
            ):
                self._m_decisions.inc()
                self.tracer.emit(
                    "deletion_decision",
                    net=state.net.name,
                    edge=edge_id,
                    channel=graph.edge_channel[edge_id],
                    phase=self._current_phase,
                    deletion_index=self.deletions,
                    **decision_payload(decision),
                )
            self._last_decision = None
        self._apply_deletion(state, edge_id)
        if state.pair is not None:
            self._mirror_deletion(state, edge_id)
        self.deletions += 1
        self._m_deletions.inc()
        self.heartbeat.beat(self._current_phase)

    def _apply_deletion(self, state: _NetState, edge_id: int) -> None:
        weight = density_weight(state.net)
        graph = state.graph
        result = graph.delete(edge_id)
        for removed in result.removed:
            self.engine.remove_edge(graph.coverage(removed), weight)
        for essential in result.newly_essential:
            self.engine.add_bridge(graph.coverage(essential), weight)
        self._refresh_tree(state, removed=result.removed)
        for engine in self._candidate_engines:
            engine.on_deletion(state, result)

    def _mirror_deletion(self, state: _NetState, edge_id: int) -> None:
        partner = self.states[state.pair.partner_net]
        partner_edge = state.pair.edge_map.get(edge_id)
        if partner_edge is None:
            self._break_pair(state)
            return
        if (
            not partner.graph.alive[partner_edge]
            or partner.graph.essential[partner_edge]
        ):
            self._break_pair(state)
            return
        self._apply_deletion(partner, partner_edge)

    def _break_pair(self, state: _NetState) -> None:
        """Give up on lock-step routing for a diverged pair."""
        partner = self.states[state.pair.partner_net]
        self.metrics.counter("router.pair_breaks").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                "pair_broken",
                net=state.net.name,
                partner=partner.net.name,
            )
        partner.follower_of = None
        state.pair = None

    # ==================================================================
    # Rip-up and reroute (used by the Section 3.5 phases)
    # ==================================================================
    def reroute_net(self, net_name: str, mode: SelectionMode) -> bool:
        """Rip up one net (pair) and reroute it under ``mode``.

        When ``config.revert_worse_reroutes`` is set, the phase metric is
        compared before/after and a worse route is rolled back.  Returns
        whether the new route was kept.  A reroute that provably changes
        nothing (:meth:`_reroute_is_noop`) stops after the slot search
        and counts as kept.
        """
        state = self.states[net_name]
        if state.is_follower:
            state = self.states[state.follower_of]
        members = [state]
        # A differential partner shares the slot corridor, so its graph
        # must be rebuilt alongside even if the lock-step correspondence
        # was abandoned earlier.
        if state.net.is_differential:
            partner_state = self.states.get(state.net.diff_partner.name)
            if partner_state is not None and partner_state is not state:
                members.append(partner_state)

        slot_snapshot = self._capture_slots(members)
        if self.config.reassign_slots_on_reroute:
            self._try_reassign_slots(members, slot_snapshot)
        if self._reroute_is_noop(members, slot_snapshot):
            self.reroutes += 1
            self._m_reroutes.inc()
            self._m_reroutes_noop.inc()
            self._note_reroute(state, mode, kept=True)
            return True

        # The slot search reads none of what the metric reads (timings,
        # density, alive lengths), so the metric may follow it.
        before_metric = self._phase_metric(mode)
        snapshot = [
            (m, m.graph, m.tree, m.cl_pf) for m in members
        ]
        for member in members:
            self._unregister_density(member)
            member.graph = self._instrument_graph(
                build_routing_graph(
                    member.net,
                    self.placement,
                    self.assignment.of_net(member.net),
                    self.config.technology,
                )
            )
            self._register_density(member)
            self._refresh_tree(member)
        if state.pair is not None:
            pair = establish_correspondence(
                state.graph, self.states[state.pair.partner_net].graph
            )
            if pair is None:
                # Both members stay in the deletion loop, just without
                # lock-step mirroring.
                self._break_pair(state)
            else:
                state.pair = pair

        self._deletion_loop(members, mode)
        self.reroutes += 1
        self._m_reroutes.inc()

        if not self.config.revert_worse_reroutes:
            self._note_reroute(state, mode, kept=True)
            return True
        after_metric = self._phase_metric(mode)
        if after_metric <= before_metric:
            self._note_reroute(state, mode, kept=True)
            return True
        # Roll back to the snapshot (routes and feedthrough slots).
        self._restore_slots(members, slot_snapshot)
        for member, graph, tree, cl in snapshot:
            self._unregister_density(member)
            member.graph = graph
            self._stale_lengths.add(member)
            self._register_density(member)
            member.tree = tree
            member.cl_pf = cl
            self._set_wire_cap(member.net, cl)
            # Rebind the tree engine to the restored graph (the reroute
            # bound it to the discarded one) and hand it the snapshotted
            # tree so the off-tree fast path works immediately.
            self._bind_tree_engine(member)
            member.tree_engine.tree = tree
        if state.pair is not None:
            # The correspondence was rebuilt against the discarded graphs;
            # re-establish it on the restored ones.
            restored = establish_correspondence(
                state.graph, self.states[state.pair.partner_net].graph
            )
            if restored is None:
                self._break_pair(state)
            else:
                state.pair = restored
        self._timing_dirty = True
        self._m_reverted.inc()
        self._note_reroute(state, mode, kept=False)
        return False

    def _note_reroute(
        self, state: _NetState, mode: SelectionMode, kept: bool
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "reroute",
                net=state.net.name,
                mode=mode.value,
                kept=kept,
                phase=self._current_phase,
            )

    def _reroute_is_noop(
        self,
        members: Sequence[_NetState],
        slot_snapshot: Dict[str, Dict[int, object]],
    ) -> bool:
        """Whether rerouting ``members`` provably changes nothing.

        True when every member still holds its snapshotted slots and
        its graph is a tree that has lost no edge since it was built.
        Then ``build_routing_graph`` on the same placement and slots
        returns an equal graph whose only tree is the current one: the
        density churn cancels, the tree, ``cl_pf`` and the timings come
        back the same, the pair correspondence is re-established as it
        is, and the deletion loop finds no candidate.
        """
        slots = self.assignment.slots
        return all(
            slots.get(member.net.name, {}) == slot_snapshot[member.net.name]
            and member.graph.as_built
            and member.graph.is_tree
            for member in members
        )

    def _capture_slots(
        self, members: Sequence[_NetState]
    ) -> Dict[str, Dict[int, object]]:
        """Snapshot the members' current feedthrough slots."""
        return {
            member.net.name: dict(
                self.assignment.slots.get(member.net.name, {})
            )
            for member in members
        }

    @staticmethod
    def _pair_lead_net(net: Net) -> Net:
        """The net that owns the pair's slot corridor (name-ordered)."""
        if net.is_differential and net.diff_partner.name < net.name:
            return net.diff_partner
        return net

    def _restore_slots(
        self,
        members: Sequence[_NetState],
        snapshot: Dict[str, Dict[int, object]],
    ) -> None:
        """Re-occupy exactly the snapshotted slots."""
        lead_net = members[0].net
        self.planner.release_net(lead_net)
        for member in members:
            self.assignment.drop_net(member.net)
        for name, by_row in snapshot.items():
            net = self.circuit.net(name)
            for row, slot in by_row.items():
                self.planner.rows[row].occupy(slot.x, slot.width, net)
                self.assignment.record(slot)

    def _try_reassign_slots(
        self,
        members: Sequence[_NetState],
        snapshot: Dict[str, Dict[int, object]],
    ) -> None:
        """Release the members' slots and re-search from the net centre;
        on failure, put the old slots back."""
        lead_net = self._pair_lead_net(members[0].net)
        self.planner.release_net(lead_net)
        for member in members:
            self.assignment.drop_net(member.net)
        failures = self.planner.assign_net(lead_net, self.assignment)
        if failures:
            self._restore_slots(members, snapshot)

    def _phase_metric(self, mode: SelectionMode) -> tuple:
        """Comparable goodness metric (smaller is better) for reverts.

        The total length folds the per-net alive-length ledger in
        ``states`` order with ``np.add.accumulate`` — the same strictly
        sequential additions as summing the nets one by one — after
        refreshing only the entries of nets whose trees were refreshed
        (a deletion, a reroute) or restored (a rollback) since the last
        fold.
        """
        from .criteria import penalty

        violation = 0.0
        pen_sum = 0.0
        if self.config.timing_driven and self.constraint_graphs:
            for timing in self._ensure_timings().values():
                violation += max(0.0, -timing.margin_ps)
                pen_sum += penalty(
                    timing.margin_ps, timing.graph.limit_ps
                )
        peak = self.engine.total_peak()
        lengths = self._alive_lengths
        for state in self._stale_lengths:
            lengths[state.position] = state.graph.total_alive_length_um()
        self._stale_lengths.clear()
        length = float(np.add.accumulate(lengths)[-1]) if lengths.size else 0.0
        if mode is SelectionMode.TIMING:
            return (
                round(violation, 6),
                round(pen_sum, 9),
                peak,
                round(length, 3),
            )
        return (
            round(violation, 6),
            peak,
            round(length, 3),
            round(pen_sum, 9),
        )

    # ==================================================================
    # Finalization
    # ==================================================================
    def _finalize_trees(self) -> None:
        """Drive any straggler (e.g. a broken pair's partner) to a tree."""
        stragglers = [
            state
            for state in self.states.values()
            if not state.graph.is_tree
        ]
        if stragglers:
            self._deletion_loop(stragglers, SelectionMode.TIMING)
        for state in self.states.values():
            if not state.graph.is_tree:
                raise RoutingError(
                    f"net {state.net.name} did not converge to a tree"
                )

    def margin_attribution(self):
        """Per-constraint critical-path breakdown under current caps.

        Returns ``{constraint: ConstraintAttribution}`` (empty without
        constraints); see :mod:`repro.analysis.attribution`.
        """
        from ..analysis.attribution import attribute_margins

        if not self.constraint_graphs:
            return {}
        timings = self._ensure_timings()
        lengths = {
            name: state.graph.total_alive_length_um()
            for name, state in self.states.items()
        }
        return attribute_margins(timings, self.caps, net_lengths=lengths)

    def _build_result(self, elapsed: float) -> GlobalRoutingResult:
        """Materialize the :class:`GlobalRoutingResult` from converged
        per-net trees: one :class:`RouteTable` of every net's final
        wires and attachments, read off the alive masks once, and per
        net a :class:`NetRoute` whose edges and attachments are views
        over its rows."""
        names = sorted(self.states)
        states = [self.states[name] for name in names]
        for state in states:
            if not state.graph.is_tree:
                raise RoutingGraphError(
                    f"net {state.net.name}: routing graph is not a tree yet"
                )
        table = RouteTable.from_trees(
            names, [state.graph for state in states]
        )
        routes: Dict[str, NetRoute] = {}
        total_length = 0.0
        for index, state in enumerate(states):
            graph = state.graph
            route = routes[names[index]] = NetRoute(
                net_name=state.net.name,
                width_pitches=state.net.width_pitches,
                edges=WireRows(table, index),
                attachments=AttachmentRows(table, index),
                total_length_um=graph.total_alive_length_um(),
                wire_cap_pf=state.cl_pf,
                tree=ConvergedTree(
                    graph.vertex_kind,
                    graph.vertex_pin,
                    graph.edge_u,
                    graph.edge_v,
                    graph.edge_length,
                    list(graph.alive_edge_ids()),
                    graph.driver_vertex,
                ),
            )
            total_length += route.total_length_um

        margins = {}
        if self.constraint_graphs:
            self._timing_dirty = True
            for cname, timing in self._ensure_timings().items():
                margins[cname] = timing.margin_ps
            if self.tracer.enabled:
                for attribution in self.margin_attribution().values():
                    self.tracer.emit(
                        "margin_attribution", **attribution.to_dict()
                    )

        peak_density = {
            channel: self.engine.channel_stats(channel).c_max
            for channel in range(self.engine.n_channels)
        }
        self.metrics.gauge("router.peak_density_total").set(
            float(sum(peak_density.values()))
        )
        self.metrics.gauge("density.updates").set(float(self.engine.updates))
        self.metrics.gauge("density.stats_recomputes").set(
            float(self.engine.stats_recomputes)
        )
        floorplan = Floorplan.from_placement(
            self.placement, peak_density, self.config.technology
        )
        critical = self.analyzer.graph_critical_delay(self.caps)
        return GlobalRoutingResult(
            circuit_name=self.circuit.name,
            routes=routes,
            wire_caps=self.caps.copy(),
            constraint_margins=margins,
            critical_delay_ps=critical,
            channel_peak_density=peak_density,
            estimated_floorplan=floorplan,
            total_length_um=total_length,
            cpu_seconds=elapsed,
            deletions=self.deletions,
            reroutes=self.reroutes,
            feed_cells_inserted=self.insertion_report.inserted_cells,
            chip_widened_columns=self.insertion_report.widening_columns,
        )
