"""Tests for repro.routegraph.tentative_tree and the tree engine."""

import math
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    FeedStyle,
    make_dataset,
)
from repro.core import GlobalRouter, RouterConfig
from repro.layout.placement import Placement
from repro.netlist import Circuit
from repro.routegraph import (
    TreeEngine,
    build_routing_graph,
    compute_tentative_tree,
    dijkstra_to_terminals,
    tree_graph_labels,
)
from repro.routegraph.graph import EdgeKind
from repro.routegraph.tentative_tree import collect_union
from repro.tech import Technology


def star_setup(library):
    """Driver with two sinks on the same row."""
    circuit = Circuit("tt", library)
    a = circuit.add_cell("a", "INV1")       # driver at left
    b = circuit.add_cell("b", "INV1")
    c = circuit.add_cell("c", "NOR2")
    placement = Placement(circuit, [[a, b, c]])
    net = circuit.add_net("n")
    circuit.connect(
        "n", a.terminal("O"), b.terminal("I0"), c.terminal("I0")
    )
    return circuit, placement, net


class TestTentativeTree:
    def test_reaches_all_terminals(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        tree = compute_tentative_tree(graph)
        assert tree is not None
        assert set(tree.terminal_path_um) == set(graph.terminal_vertices)
        assert tree.terminal_path_um[graph.driver_vertex] == 0.0

    def test_length_is_shortest_chain(self, library):
        _, placement, net = star_setup(library)
        tech = Technology(pitch_um=4.0)
        graph = build_routing_graph(net, placement, {}, tech)
        tree = compute_tentative_tree(graph)
        # All pins on one row: driver O at col 3, b.I0 at 5, c.I0 at 9.
        # Shortest union: trunk 3->5->9 in one channel = 6 columns.
        assert tree.total_length_um == pytest.approx(4.0 * 6)

    def test_skip_edge_increases_or_keeps_length(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        tree = compute_tentative_tree(graph)
        for edge_id in graph.deletable_edges():
            alt = compute_tentative_tree(graph, skip_edge=edge_id)
            assert alt is not None
            assert alt.total_length_um >= tree.total_length_um - 1e-9

    def test_skip_essential_edge_returns_none(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        for edge in graph.final_wiring():
            assert compute_tentative_tree(graph, skip_edge=edge.index) is None

    def test_tree_edges_form_connected_union(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        tree = compute_tentative_tree(graph)
        # Walk the union from the driver; all terminals reachable.
        adjacency = {}
        for edge_id in tree.edge_ids:
            edge = graph.edges[edge_id]
            adjacency.setdefault(edge.u, []).append(edge.v)
            adjacency.setdefault(edge.v, []).append(edge.u)
        seen = {graph.driver_vertex}
        stack = [graph.driver_vertex]
        while stack:
            v = stack.pop()
            for w in adjacency.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert set(graph.terminal_vertices) <= seen

    def test_total_length_equals_union_sum(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        tree = compute_tentative_tree(graph)
        assert tree.total_length_um == pytest.approx(
            sum(graph.edges[e].length_um for e in tree.edge_ids)
        )

    def test_longest_path(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        tree = compute_tentative_tree(graph)
        assert tree.longest_path_um == max(tree.terminal_path_um.values())

    def test_after_convergence_tree_equals_graph(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        tree = compute_tentative_tree(graph)
        assert tree.total_length_um == pytest.approx(
            graph.total_alive_length_um()
        )


def _assert_same_tree(reference, candidate):
    """Bit-exact agreement — no approx: the engine's contract."""
    assert (reference is None) == (candidate is None)
    if reference is None:
        return
    assert candidate.edge_ids == reference.edge_ids
    assert candidate.total_length_um == reference.total_length_um
    assert candidate.terminal_path_um == reference.terminal_path_um


class TestEarlyTermination:
    """``dijkstra_to_terminals`` may stop at the last settled terminal;
    the reference estimator, which never stops early, is the referee.
    ``star_setup`` places a terminal mid-graph (col 5, between driver
    col 3 and far sink col 9), so the cutoff genuinely fires before the
    far reaches are settled."""

    def test_matches_reference_estimator(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        for skip in [None] + [e.index for e in graph.alive_edges()]:
            _assert_same_tree(
                compute_tentative_tree(graph, skip),
                dijkstra_to_terminals(graph, skip),
            )


class TestTreeGraphTraversal:
    def test_converged_graph_traversal_is_bit_identical(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        assert graph.is_tree
        dist, parent_edge = tree_graph_labels(graph)
        _assert_same_tree(
            compute_tentative_tree(graph),
            collect_union(graph, dist, parent_edge),
        )


class _Counter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class TestTreeEngines:
    def test_off_tree_candidate_is_fast_path(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        runs, fast = _Counter(), _Counter()
        engine = TreeEngine(
            graph, dijkstra_runs=runs, fastpath_hits=fast
        )
        tree = engine.refresh()
        off_tree = [
            e.index
            for e in graph.alive_edges()
            if e.index not in tree.edge_ids
        ]
        assert off_tree, "star graph should offer off-tree candidates"
        before = runs.value
        for edge_id in off_tree:
            assert engine.evaluate(edge_id) is tree
        assert runs.value == before
        assert fast.value == len(off_tree)

    def test_alternate_is_reused_after_deletion(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        runs = _Counter()
        engine = TreeEngine(graph, dijkstra_runs=runs)
        tree = engine.refresh()
        victim = next(
            e for e in graph.deletable_edges() if e in tree.edge_ids
        )
        alternate = engine.evaluate(victim)
        version = engine.version
        before = runs.value
        removed = graph.delete(victim).removed
        refreshed = engine.refresh(removed)
        assert refreshed is alternate
        assert runs.value == before  # memo hit, no new Dijkstra
        assert engine.version == version + 1

    def test_version_bumps_even_when_tree_unchanged(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        engine = TreeEngine(graph)
        tree = engine.refresh()
        off_tree = next(
            e
            for e in graph.deletable_edges()
            if e not in tree.edge_ids
        )
        version = engine.version
        removed = graph.delete(off_tree).removed
        assert engine.refresh(removed) is tree
        assert engine.version == version + 1

    def test_converged_refresh_avoids_dijkstra(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        runs, traversals = _Counter(), _Counter()
        engine = TreeEngine(
            graph, dijkstra_runs=runs, traversals=traversals
        )
        _assert_same_tree(compute_tentative_tree(graph), engine.refresh())
        assert runs.value == 0
        assert traversals.value == 1

    def test_essential_candidate_returns_none(self, library):
        _, placement, net = star_setup(library)
        graph = build_routing_graph(net, placement, {})
        while graph.deletable_edges():
            graph.delete(graph.deletable_edges()[0])
        engine = TreeEngine(graph)
        engine.refresh()
        essential = next(e.index for e in graph.alive_edges())
        assert engine.evaluate(essential) is None


def _prepared_router(circuit_seed: int) -> GlobalRouter:
    spec = DatasetSpec(
        f"tree{circuit_seed}",
        CircuitSpec(
            f"T{circuit_seed}",
            n_gates=20,
            n_flops=4,
            n_inputs=4,
            n_outputs=3,
            n_diff_pairs=1,
            seed=circuit_seed,
        ),
        FeedStyle.EVEN,
        n_constraints=4,
    )
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
    )
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    router._build_routing_graphs()
    return router


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(circuit_seed=st.integers(min_value=0, max_value=9999), data=st.data())
def test_engines_agree_on_random_graphs(circuit_seed, data):
    """Property: on randomly generated routing graphs, driven through a
    random deletion walk, the engine agrees bit-exactly with the
    reference estimator — for the refreshed tree and for *every* alive
    deletable skip edge at every step."""
    router = _prepared_router(circuit_seed)
    graphs = [
        state.graph for state in islice(router.states.values(), 10)
    ]
    for graph in graphs:
        engine = TreeEngine(graph)
        _assert_same_tree(compute_tentative_tree(graph), engine.refresh())
        for _ in range(4):
            candidates = graph.deletable_edges()
            if not candidates:
                break
            for edge_id in candidates:
                _assert_same_tree(
                    compute_tentative_tree(graph, edge_id),
                    engine.evaluate(edge_id),
                )
            victim = candidates[
                data.draw(
                    st.integers(0, len(candidates) - 1),
                    label="victim",
                )
            ]
            removed = graph.delete(victim).removed
            _assert_same_tree(
                compute_tentative_tree(graph), engine.refresh(removed)
            )
