"""Unit tests for the candidate-selection engine (lifecycle, metrics) —
the key-exactness property lives in ``test_selection_property.py`` and
the pinned deletion sequences in ``test_edge_deletion_golden.py``."""

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
