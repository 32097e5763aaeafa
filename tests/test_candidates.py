"""Unit tests for the candidate-selection engine (lifecycle, metrics,
the timing diff) — the key-exactness property lives in
``test_selection_property.py`` and the pinned deletion sequences in
``test_edge_deletion_golden.py``."""

import dataclasses

from conftest import build_chain_circuit
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.core.candidates import CandidateEngine
from repro.core.criteria import ConstraintArcRows
from repro.core.selection import SelectionMode


def make_router(library):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    gd = GlobalDelayGraph.build(circuit)
    constraint = PathConstraint(
        "p0",
        frozenset([gd.vertex_of(circuit.external_pin("din")).index]),
        frozenset([gd.vertex_of(circuit.cell("ff").terminal("D")).index]),
        2000.0,
    )
    return GlobalRouter(circuit, placement, [constraint], RouterConfig())


def prepared(library):
    router = make_router(library)
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    router._build_routing_graphs()
    router._init_density_and_trees()
    return router


class TestEngineLifecycle:
    def test_close_unsubscribes(self, library):
        router = prepared(library)
        listeners_before = len(router.engine._listeners)
        engine = CandidateEngine(
            router, router._lead_states(), SelectionMode.TIMING
        )
        assert len(router.engine._listeners) == listeners_before + 1
        engine.close()
        assert len(router.engine._listeners) == listeners_before

    def test_loop_closes_engine_on_completion(self, library):
        router = prepared(library)
        router._deletion_loop(router._lead_states(), SelectionMode.TIMING)
        assert router.engine._listeners == []

    def test_select_exhausts_to_none(self, library):
        router = prepared(library)
        states = router._lead_states()
        engine = CandidateEngine(router, states, SelectionMode.TIMING)
        try:
            while True:
                choice = engine.select()
                if choice is None:
                    break
                router._delete_edge(*choice)
            assert not any(
                True
                for state in states
                for _ in state.graph.deletable_edges()
            )
            assert engine.select() is None
        finally:
            engine.close()


class TestMetrics:
    def test_heap_counters_populated(self, library):
        router = make_router(library)
        router.route()
        flat = router.metrics.flat()
        assert flat["router.heap_pops"] > 0
        assert flat["router.heap_stale"] >= 0


class TestTimingDiff:
    """``on_reanalyzed`` marks exactly the tracked nets whose delay
    inputs one constraint's re-analysis moved."""

    def _engine(self, library):
        router = prepared(library)
        engine = CandidateEngine(
            router, router._lead_states(), SelectionMode.TIMING
        )
        timing = router._timings["p0"]
        return engine, timing, set(engine._rows_by_net)

    @staticmethod
    def _reanalyzed(timing, **changes):
        # A fresh result carries no cached lp array.
        return dataclasses.replace(timing, _lp_arr=None, **changes)

    @staticmethod
    def _nets_touching(timing, tracked):
        """Position -> tracked nets with an arc row whose tail or head
        sits at that position."""
        touching = {}
        for net in timing.graph.nets():
            if net.name not in tracked:
                continue
            for _, tail, head in ConstraintArcRows.build(
                timing.graph, net
            ).rows:
                touching.setdefault(tail, set()).add(net.name)
                touching.setdefault(head, set()).add(net.name)
        return touching

    def test_unmoved_result_marks_nothing(self, library):
        engine, timing, _ = self._engine(library)
        try:
            engine.on_reanalyzed(timing, self._reanalyzed(timing))
            assert engine._delay_dirty == set()
        finally:
            engine.close()

    def test_moved_margin_marks_every_net_of_the_constraint(self, library):
        engine, timing, tracked = self._engine(library)
        try:
            engine.on_reanalyzed(
                timing,
                self._reanalyzed(timing, margin_ps=timing.margin_ps - 1.0),
            )
            expected = {net.name for net in timing.graph.nets()} & tracked
            assert len(expected) > 1
            assert engine._delay_dirty == expected
        finally:
            engine.close()

    def test_unmoved_margin_marks_only_nets_at_moved_lp(self, library):
        engine, timing, tracked = self._engine(library)
        try:
            touching = self._nets_touching(timing, tracked)
            every_net = set().union(*touching.values())
            position = min(
                p
                for p, nets in touching.items()
                if nets != every_net and timing.lp[p] != float("-inf")
            )
            lp = list(timing.lp)
            lp[position] += 1.0
            engine.on_reanalyzed(timing, self._reanalyzed(timing, lp=lp))
            assert engine._delay_dirty == touching[position]
            assert engine._delay_dirty < every_net
        finally:
            engine.close()
