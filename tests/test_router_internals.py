"""White-box tests of the router's caching and configuration matrix."""

import dataclasses
import itertools

import pytest

from conftest import build_chain_circuit, fresh_selection_key
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


def make_router(library, config=None, limit_ps=2000.0):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    gd = GlobalDelayGraph.build(circuit)
    constraint = PathConstraint(
        "p0",
        frozenset([gd.vertex_of(circuit.external_pin("din")).index]),
        frozenset([gd.vertex_of(circuit.cell("ff").terminal("D")).index]),
        limit_ps,
    )
    return GlobalRouter(
        circuit, placement, [constraint], config or RouterConfig()
    )


class TestKeyCache:
    def test_cached_keys_match_fresh_keys(self, library):
        """Mid-routing, every key the candidate engine keeps must equal
        the key computed from scratch (cache-invalidation correctness)."""
        router = make_router(library)
        router._build_timing()
        router._assign_pins_and_feedthroughs()
        router._build_routing_graphs()
        router._init_density_and_trees()

        states = router._lead_states()
        engine = CandidateEngine(router, states, SelectionMode.TIMING)
        try:
            # Perform a handful of deletions, re-checking the keys each time.
            for _ in range(6):
                choice = engine.select()
                if choice is None:
                    break
                state, edge_id = choice
                router._delete_edge(state, edge_id)
                keys = engine.current_keys()
                for other in states:
                    for candidate in other.graph.deletable_edges():
                        cached = keys[(other.net.name, candidate)]
                        fresh = fresh_selection_key(
                            router, other, candidate, SelectionMode.TIMING
                        )
                        assert cached == fresh
        finally:
            engine.close()

    def test_timing_version_advances_on_constrained_change(self, library):
        router = make_router(library)
        router._build_timing()
        router._assign_pins_and_feedthroughs()
        router._build_routing_graphs()
        router._init_density_and_trees()
        router._ensure_timings()
        version_before = router._timing_version
        # Delete an edge of a constrained net.
        constrained_states = [
            s
            for s in router._lead_states()
            if s.context.constrained and s.graph.deletable_edges()
        ]
        if not constrained_states:
            pytest.skip("no constrained candidates in this fixture")
        state = constrained_states[0]
        router._delete_edge(state, state.graph.deletable_edges()[0])
        router._ensure_timings()
        assert router._timing_version == version_before + 1


class TestConfigMatrix:
    @pytest.mark.parametrize(
        "timing,recovery,delay,area",
        list(itertools.product([True, False], repeat=4)),
    )
    def test_all_phase_combinations_complete(
        self, library, timing, recovery, delay, area
    ):
        config = RouterConfig(
            timing_driven=timing,
            run_violation_recovery=recovery,
            run_delay_improvement=delay,
            run_area_improvement=area,
        )
        router = make_router(library, config)
        result = router.route()
        assert result.routes
        for state in router.states.values():
            assert state.graph.is_tree

    @pytest.mark.parametrize("revert", [True, False])
    @pytest.mark.parametrize("reassign", [True, False])
    def test_reroute_toggles(self, library, revert, reassign):
        config = RouterConfig(
            revert_worse_reroutes=revert,
            reassign_slots_on_reroute=reassign,
        )
        router = make_router(library, config)
        result = router.route()
        assert result.routes


class TestDatasetAnnealOption:
    def test_annealed_dataset_routes(self):
        from repro.bench.circuits import make_dataset, small_suite
        from repro.bench.runner import run_dataset

        spec = dataclasses.replace(
            small_suite()[0], anneal_placement=True, anneal_moves=4000
        )
        record, global_result, _, _ = run_dataset(spec, True)
        assert record.delay_ps > 0
        assert set(global_result.routes)

    def test_annealing_reduces_wirelength(self):
        from repro.bench.circuits import make_dataset, small_suite

        base = make_dataset(small_suite()[0])
        annealed = make_dataset(
            dataclasses.replace(
                small_suite()[0], anneal_placement=True,
                anneal_moves=20_000,
            )
        )
        from repro.baselines import hpwl_length_um
        from repro.tech import Technology

        tech = Technology()
        base_total = sum(
            hpwl_length_um(net, base.placement, tech)
            for net in base.circuit.routable_nets
        )
        annealed_total = sum(
            hpwl_length_um(net, annealed.placement, tech)
            for net in annealed.circuit.routable_nets
        )
        assert annealed_total < base_total
