"""Property tests: incremental reclassification ≡ full-Tarjan reference.

The exactness contract of the incremental delete path
(:meth:`RoutingGraph.delete`) is that after *every* deletion the graph
is in exactly the state the reference path — a full Tarjan
reclassification per deletion — would have produced: alive sets,
essential flags, vertex liveness, reported ``DeletionResult`` contents
and the alive-length ledger, bit for bit.  These tests drive random
multi-terminal graphs through full deletion sequences with a reference
twin in lockstep and compare everything at every step, under shrinkable
hypothesis seeds.  The twin deletes through :func:`reference_delete`:
it flips ``alive`` and runs the four-pass reference classifier kept in
``tests/routegraph_reference.py``, an algorithm independent of both
production paths, so it never touches the incremental bookkeeping.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Interval
from repro.netlist import Circuit, standard_ecl_library
from repro.routegraph.graph import (
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from tests.routegraph_reference import reference_delete


def make_multi_net(library, n_sinks, name="m"):
    circuit = Circuit(f"c_{name}", library)
    driver = circuit.add_cell("drv", "INV1")
    net = circuit.add_net(name)
    circuit.connect(name, driver.terminal("O"))
    for i in range(n_sinks):
        sink = circuit.add_cell(f"s{i}", "INV1")
        circuit.connect(name, sink.terminal("I0"))
    return net


def random_graph_spec(rng):
    """Generate a random connected multi-terminal graph as plain data.

    Returning a spec (rather than a built graph) lets a test materialize
    two independent :class:`RoutingGraph` instances from identical
    inputs — one per reclassification path.
    """
    n_terminals = rng.randint(2, 4)
    n_positions = rng.randint(3, 10)
    vertices = []
    for t in range(n_terminals):
        vertices.append((t, VertexKind.TERMINAL, 0, 10 * t))
    for i in range(n_positions):
        vertices.append(
            (
                n_terminals + i,
                VertexKind.POSITION,
                rng.randint(0, 2),
                rng.randint(0, 40),
            )
        )
    edges = []

    def add_edge(kind, u, v):
        x_lo = min(vertices[u][3], vertices[v][3])
        x_hi = max(vertices[u][3], vertices[v][3])
        # Perturb trunk lengths so the ledger exercises genuinely
        # order-sensitive float sums, not just round integers.
        length = (
            float(x_hi - x_lo) + rng.random() if kind is EdgeKind.TRUNK
            else 0.0
        )
        edges.append(
            (len(edges), kind, u, v, vertices[u][2], x_lo, x_hi, length)
        )

    positions = list(range(n_terminals, n_terminals + n_positions))
    # Spanning chain: driver, then every position.
    chain = [0] + positions
    for u, v in zip(chain, chain[1:]):
        kind = (
            EdgeKind.CORRESPONDENCE
            if VertexKind.TERMINAL in (vertices[u][1], vertices[v][1])
            else EdgeKind.TRUNK
        )
        add_edge(kind, u, v)
    # Hook every sink terminal onto a random position.
    for t in range(1, n_terminals):
        add_edge(EdgeKind.CORRESPONDENCE, t, rng.choice(positions))
    # Extra trunks between positions create the loops the deletion
    # algorithm exists to resolve.
    for _ in range(rng.randint(1, 6)):
        u = rng.choice(positions)
        v = rng.choice(positions)
        if u != v:
            add_edge(EdgeKind.TRUNK, u, v)
    return n_terminals, vertices, edges


def materialize(library, spec, *, name="m"):
    n_terminals, vertex_spec, edge_spec = spec
    net = make_multi_net(library, n_terminals - 1, name=name)
    vertices = [
        RouteVertex(
            idx,
            kind,
            channel,
            x,
            net.pins[idx] if kind is VertexKind.TERMINAL else None,
        )
        for idx, kind, channel, x in vertex_spec
    ]
    edges = [
        RouteEdge(idx, kind, u, v, channel, Interval(x_lo, x_hi), length)
        for idx, kind, u, v, channel, x_lo, x_hi, length in edge_spec
    ]
    return RoutingGraph(net, vertices, edges, list(range(n_terminals)), 0)


def snapshot(graph):
    return (
        list(graph.alive),
        list(graph.essential),
        list(graph.vertex_alive),
        repr(graph.total_alive_length_um()),
    )


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_incremental_matches_reference_at_every_step(seed):
    """Lockstep twin property: after every deletion both paths agree
    bit-for-bit on all externally observable state."""
    library = standard_ecl_library()
    rng = random.Random(seed)
    spec = random_graph_spec(rng)
    inc = materialize(library, spec, name=f"i{seed}")
    ref = materialize(library, spec, name=f"f{seed}")
    assert snapshot(inc) == snapshot(ref)
    steps = 0
    while True:
        deletable = inc.deletable_edges()
        assert deletable == ref.deletable_edges()
        if not deletable:
            break
        edge_id = rng.choice(deletable)
        r_inc = inc.delete(edge_id)
        r_ref = reference_delete(ref, edge_id)
        # The deleted edge leads both removed lists; the prune tail is
        # order-unspecified but must cover the same edges.
        assert r_inc.removed[0] == r_ref.removed[0] == edge_id
        assert set(r_inc.removed) == set(r_ref.removed)
        assert sorted(r_inc.newly_essential) == sorted(r_ref.newly_essential)
        assert snapshot(inc) == snapshot(ref)
        assert inc.terminals_connected()
        steps += 1
        assert steps < 1000
    assert inc.is_tree and ref.is_tree


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_incremental_matches_fresh_full_tarjan(seed):
    """After a full deletion sequence on the incremental path, a fresh
    full reclassification is a no-op: it reproduces the exact same
    essential flags and prunes nothing further."""
    library = standard_ecl_library()
    rng = random.Random(seed)
    spec = random_graph_spec(rng)
    graph = materialize(library, spec, name=f"g{seed}")
    while True:
        deletable = graph.deletable_edges()
        if not deletable:
            break
        graph.delete(rng.choice(deletable))
        before = snapshot(graph)
        pruned, newly = graph.reclassify()
        assert pruned == [] and newly == []
        assert snapshot(graph) == before


class _CountingCounter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class TestFallbackPath:
    """The cascading-prune fallback: once the graph flags itself as
    stranded, the next delete must take the full reclassification path
    (and count it as a fallback) while staying bit-identical to a
    reference twin."""

    def _ring_spec(self):
        # Deterministic spec with loops; seed chosen arbitrarily.
        return random_graph_spec(random.Random(7))

    def test_stranded_forces_full_path(self, library):
        spec = self._ring_spec()
        inc = materialize(library, spec, name="fb_i")
        ref = materialize(library, spec, name="fb_r")
        local = _CountingCounter()
        fallbacks = _CountingCounter()
        inc.instrument(local_recomputes=local, full_fallbacks=fallbacks)
        # Force the defensive stranded flag: the invariant proofs say
        # pruning can never actually strand a component, so this is the
        # only way to exercise the fallback arm.
        inc._stranded = True
        edge_id = inc.deletable_edges()[0]
        inc.delete(edge_id)
        reference_delete(ref, edge_id)
        assert snapshot(inc) == snapshot(ref)
        # The stranded delete took the full path...
        assert fallbacks.value == 1
        assert local.value == 0
        # ...and the full rebuild repaired the decomposition, so the
        # graph self-heals back onto the local path.
        assert not inc._stranded
        rng = random.Random(11)
        while True:
            deletable = inc.deletable_edges()
            if not deletable:
                break
            edge_id = rng.choice(deletable)
            inc.delete(edge_id)
            reference_delete(ref, edge_id)
            assert snapshot(inc) == snapshot(ref)
        assert fallbacks.value == 1

    def test_incremental_mode_counts_local_recomputes(self, library):
        spec = self._ring_spec()
        graph = materialize(library, spec, name="fb_l")
        local = _CountingCounter()
        fallbacks = _CountingCounter()
        graph.instrument(local_recomputes=local, full_fallbacks=fallbacks)
        rng = random.Random(13)
        while True:
            deletable = graph.deletable_edges()
            if not deletable:
                break
            graph.delete(rng.choice(deletable))
        # Every delete either recomputed locally, skipped the local
        # Tarjan entirely (component shrank to nothing), or fell back;
        # on these small loopy graphs at least one local recompute
        # must happen and no fallback should.
        assert local.value > 0
        assert fallbacks.value == 0


class TestExternalMutation:
    """reclassify() must detect direct alive mutation (the negotiated
    engine's finalize path) via the mirror and rebuild correctly."""

    def test_external_kill_then_reclassify(self, library):
        spec = random_graph_spec(random.Random(23))
        inc = materialize(library, spec, name="xm_i")
        ref = materialize(library, spec, name="xm_r")
        # Kill one deletable edge behind the graph's back on both: the
        # production reclassify() on one, the reference on the other.
        edge_id = inc.deletable_edges()[0]
        inc.alive[edge_id] = False
        inc.reclassify()
        reference_delete(ref, edge_id)
        assert snapshot(inc) == snapshot(ref)
        # The incremental path must keep working after the rebuild.
        while True:
            deletable = inc.deletable_edges()
            assert deletable == ref.deletable_edges()
            if not deletable:
                break
            edge_id = deletable[0]
            inc.delete(edge_id)
            reference_delete(ref, edge_id)
            assert snapshot(inc) == snapshot(ref)

    def test_noop_reclassify_keeps_length_cache(self, library):
        spec = random_graph_spec(random.Random(29))
        graph = materialize(library, spec, name="xm_c")
        first = graph.total_alive_length_um()
        graph.reclassify()
        assert graph._alive_length is first
        graph.delete(graph.deletable_edges()[0])
        assert graph._alive_length is None
