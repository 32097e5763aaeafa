"""Property tests: the fused full classifier ≡ the four-pass reference.

``RoutingGraph._reclassify_full`` strips pendants, runs one driver-rooted
Tarjan DFS that also labels the 2-edge-connected components, and prunes
what the DFS never reached.  :func:`reference_reclassify` is the
four-pass classifier it replaced (prune unreachable, strip pendants,
Tarjan, separate decomposition DFS).  On fresh random graphs and after
negotiated-style external ``alive`` flips both must leave the same
alive, essential and vertex flags, prune the same edges, report the same
newly essential edges in the same order, and agree on degrees and the
2ECC decomposition — partition, anchors, entry bridges and hang counts —
up to component relabelling.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingGraphError
from repro.netlist import standard_ecl_library
from tests.routegraph_reference import (
    adjacency,
    csr_lists,
    reference_reclassify,
)
from tests.test_routegraph_incremental import materialize, random_graph_spec

LIBRARY = standard_ecl_library()


def reset_to_fresh(graph):
    """Put a graph back into its state before construction's pass."""
    graph.alive[:] = [True] * len(graph.alive)
    graph.essential[:] = [False] * len(graph.essential)
    graph.vertex_alive[:] = [True] * len(graph.vertex_alive)
    graph._alive_mirror = graph.alive[:]


def flags(graph):
    return (
        list(graph.alive),
        list(graph.essential),
        list(graph.vertex_alive),
        repr(graph.total_alive_length_um()),
        csr_lists(graph),
    )


def decomposition(graph):
    """The 2ECC decomposition with component ids replaced by their
    member sets: ``{members: (anchor, entry bridge, size)}``, plus the
    degrees and hang counts."""
    blocks = {}
    for vertex, comp in enumerate(graph._comp):
        if graph.vertex_alive[vertex]:
            assert comp >= 0, f"alive vertex {vertex} unlabelled"
            blocks.setdefault(comp, set()).add(vertex)
        else:
            assert comp == -1, f"dead vertex {vertex} labelled {comp}"
    assert set(graph._comp_size) == set(blocks)
    assert set(graph._comp_anchor) == set(blocks)
    assert set(graph._comp_entry) == set(blocks)
    normalized = {
        frozenset(members): (
            graph._comp_anchor[comp],
            graph._comp_entry[comp],
            graph._comp_size[comp],
        )
        for comp, members in blocks.items()
    }
    assert not graph._stranded
    return normalized, list(graph._degree), dict(graph._hang_tcount)


def classify_both(spec, name, mutate=None):
    """Classify twin graphs — fused pass and reference — after the same
    optional mutation; returns both graphs and both outcomes."""
    fused = materialize(LIBRARY, spec, name=name)
    ref = materialize(LIBRARY, spec, name=name)
    if mutate is not None:
        mutate(fused)
        mutate(ref)
    outcomes = []
    for graph, classify in (
        (fused, lambda g: g._reclassify_full()),
        (ref, reference_reclassify),
    ):
        before = flags(graph)
        try:
            outcomes.append(classify(graph))
        except RoutingGraphError as exc:
            # A failed pass leaves the graph exactly as it found it.
            assert flags(graph) == before
            outcomes.append(str(exc))
    return fused, ref, outcomes


def assert_same(fused, ref, outcomes):
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    (f_pruned, f_newly), (r_pruned, r_newly) = got, want
    assert sorted(f_pruned) == sorted(r_pruned)
    assert len(f_pruned) == len(set(f_pruned))
    assert f_newly == r_newly
    assert flags(fused) == flags(ref)
    assert decomposition(fused) == decomposition(ref)


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_fresh_graph_matches_reference(seed):
    spec = random_graph_spec(random.Random(seed))
    constructed = materialize(LIBRARY, spec, name=f"c{seed}")
    fused, ref, outcomes = classify_both(spec, f"n{seed}", reset_to_fresh)
    assert_same(fused, ref, outcomes)
    # Construction runs the same pass.
    assert flags(constructed) == flags(fused)
    assert decomposition(constructed) == decomposition(fused)


def _random_kills(rng):
    def mutate(graph):
        state = random.Random(rng)
        for edge_id, alive in enumerate(list(graph.alive)):
            if alive and state.random() < 0.3:
                graph.alive[edge_id] = False

    return mutate


def _keep_random_tree(rng):
    """Negotiated-style finalize: keep one random spanning tree of the
    alive edges (random-order Kruskal), flip every other edge dead."""

    def mutate(graph):
        state = random.Random(rng)
        order = [e for e, alive in enumerate(graph.alive) if alive]
        state.shuffle(order)
        parent = list(range(len(graph.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        keep = set()
        for edge_id in order:
            edge = graph.edges[edge_id]
            a, b = find(edge.u), find(edge.v)
            if a != b:
                parent[a] = b
                keep.add(edge_id)
        for edge_id in order:
            if edge_id not in keep:
                graph.alive[edge_id] = False

    return mutate


@given(st.integers(0, 100_000), st.sampled_from(["kills", "tree"]))
@settings(max_examples=150, deadline=None)
def test_external_flips_match_reference(seed, style):
    """After direct ``alive`` flips — random kills (which may disconnect
    a terminal) or keeping one spanning tree, as the negotiated
    finalizer does — both classifiers agree, errors included."""
    rng = random.Random(seed)
    spec = random_graph_spec(rng)
    steps = rng.randint(0, 3)
    flip = (_random_kills if style == "kills" else _keep_random_tree)(seed)

    def mutate(graph):
        # Some incremental deletions first, identical on both twins,
        # so flips also land on graphs the local path has patched.
        walk = random.Random(seed + 1)
        for _ in range(steps):
            deletable = graph.deletable_edges()
            if not deletable:
                break
            graph.delete(walk.choice(deletable))
        flip(graph)

    fused, ref, outcomes = classify_both(spec, f"x{seed}", mutate)
    assert_same(fused, ref, outcomes)


def test_disconnected_terminal_leaves_graph_untouched():
    spec = random_graph_spec(random.Random(5))
    graph = materialize(LIBRARY, spec, name="dt")
    # Cut every edge at one sink terminal.
    sink = graph.terminal_vertices[1]
    for edge_id in adjacency(graph)[sink]:
        graph.alive[edge_id] = False
    before = flags(graph)
    with pytest.raises(
        RoutingGraphError, match=f"terminal vertex {sink} disconnected"
    ):
        graph.reclassify()
    assert flags(graph) == before
