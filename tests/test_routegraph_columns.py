"""The column store of ``G_r(n)``: a fixed set of containers per graph
and one static CSR whose alive slots are the alive-only adjacency.

* A walk of ``gc.get_referents`` from a graph, stopping at its net, pins
  and cells and at shared objects (types, modules, functions, enum
  members), counts the GC-tracked objects the graph owns.  A 2-pin net
  and C3P1's largest net own the same number: no container per vertex
  or per edge.
* Random graphs driven through random deletions (with their prunes) and
  external ``alive`` flips followed by ``reclassify()`` keep, after every
  step, each vertex's alive slots on the static CSR equal, in order, to
  the alive-only CSR the graph used to rebuild
  (:func:`tests.routegraph_reference.csr_lists`).
"""

import enum
import gc
import random
import types

from hypothesis import given, settings, strategies as st

from repro.errors import RoutingGraphError
from repro.netlist import standard_ecl_library
from repro.routegraph import build_routing_graph
from tests.routegraph_reference import csr_lists

LIBRARY = standard_ecl_library()

_SHARED = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    enum.Enum,
)


def alive_slots(graph):
    """The static CSR read the way every walk reads it — per vertex, the
    slots of alive edges in slot order — in the reference layout
    ``(indptr, nbr_vertex, nbr_edge, nbr_length)``."""
    indptr = [0]
    nbr_vertex, nbr_edge, nbr_length = [], [], []
    for vertex in range(len(graph.indptr) - 1):
        for i in range(graph.indptr[vertex], graph.indptr[vertex + 1]):
            edge_id = graph.nbr_edge[i]
            if graph.alive[edge_id]:
                nbr_vertex.append(graph.nbr_vertex[i])
                nbr_edge.append(edge_id)
                nbr_length.append(graph.nbr_length[i])
        indptr.append(len(nbr_edge))
    return indptr, nbr_vertex, nbr_edge, nbr_length


def tracked_census(graph) -> int:
    """GC-tracked objects reachable from ``graph`` without passing its
    net, pins or cells or a shared object."""
    stop = {id(graph.net)}
    for pin in graph.net.pins:
        stop.add(id(pin))
        cell = getattr(pin, "cell", None)
        if cell is not None:
            stop.add(id(cell))
    seen = set()
    stack = [graph]
    count = 0
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in seen or key in stop or isinstance(obj, _SHARED):
            continue
        seen.add(key)
        if gc.is_tracked(obj):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


def test_graph_owns_a_fixed_number_of_tracked_objects():
    from tests.test_routegraph_build import assigned_router

    router = assigned_router("C3P1")
    graphs = [
        build_routing_graph(
            net,
            router.placement,
            router.assignment.of_net(net),
            router.config.technology,
        )
        for net in router.circuit.routable_nets
    ]
    small = min(
        (g for g in graphs if len(g.terminal_vertices) == 2),
        key=lambda g: len(g.edge_u),
    )
    large = max(graphs, key=lambda g: len(g.edge_u))
    assert len(large.edge_u) > 20 * len(small.edge_u)
    # Tuples of numbers leave the tracked set at their first collection;
    # collect once so both graphs are counted in that settled state.
    gc.collect()
    assert tracked_census(small) == tracked_census(large)


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_alive_slots_match_the_alive_only_csr(seed):
    from tests.test_routegraph_incremental import (
        materialize,
        random_graph_spec,
    )

    rng = random.Random(seed)
    graph = materialize(LIBRARY, random_graph_spec(rng), name=f"s{seed}")
    assert alive_slots(graph) == csr_lists(graph)
    for _ in range(12):
        deletable = graph.deletable_edges()
        if deletable and rng.random() < 0.6:
            graph.delete(rng.choice(deletable))
        else:
            alive = [e for e, flag in enumerate(graph.alive) if flag]
            if not alive:
                break
            # External flips, as the negotiated finalizer makes them.
            flipped = rng.sample(alive, rng.randint(1, min(3, len(alive))))
            for edge_id in flipped:
                graph.alive[edge_id] = False
            try:
                graph.reclassify()
            except RoutingGraphError:
                # A terminal was cut off: the failed pass left the graph
                # as it found it, so the flips can be undone.
                assert alive_slots(graph) == csr_lists(graph)
                for edge_id in flipped:
                    graph.alive[edge_id] = True
        assert alive_slots(graph) == csr_lists(graph)
