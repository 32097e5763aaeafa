"""The negotiated engine's A* returns what the plain dict-backed one did.

``reference_astar`` below is the engine's original search: ``dict``
distances and parents, and a heuristic closure evaluated on every push.
The engine's search keeps them in lists and evaluates the heuristic
once per vertex.  Its heap entries are the same ``(f, g, vertex)``
tuples, so both must pop the same vertices in the same order: the same
path and the same pop count, on real graphs with random sources and
targets, and with costs drawn from a few values so that ties are
common.
"""

import heapq
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench.circuits import make_dataset, small_suite
from repro.core.config import RouterConfig
from repro.engines import make_engine
from repro.errors import RoutingError
from tests.routegraph_reference import csr_lists

#: Edge costs drawn for the searches; 0.0 and repeats make ties common.
COSTS = (0.0, 0.0, 1.0, 2.5, 10.0, 10.0)


def reference_astar(graph, cost, sources, targets, pitch):
    """``(path, pops)`` of the original dict-backed multi-source A*."""
    vertices = graph.vertices
    target_xs = sorted({vertices[t].x for t in targets})

    def h(vertex):
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

    indptr, nbr_vertex, nbr_edge, _ = csr_lists(graph)
    dist = {}
    parent = {}
    heap = []
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
            path = []
            while True:
                prev, edge_id = parent[vertex]
                path.append((vertex, edge_id))
                if edge_id < 0:
                    break
                vertex = prev
            path.reverse()
            return path, pops
        for slot in range(indptr[vertex], indptr[vertex + 1]):
            other = nbr_vertex[slot]
            ng = g + cost[nbr_edge[slot]]
            if ng < dist.get(other, float("inf")):
                dist[other] = ng
                parent[other] = (vertex, nbr_edge[slot])
                heapq.heappush(heap, (ng + h(other), ng, other))
    raise RoutingError("no path")


def _engine(spec):
    dataset = make_dataset(spec)
    engine = make_engine(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(routing_engine="negotiated"),
    )
    engine.router.prepare()
    engine._init_negotiation()
    return engine


@pytest.fixture(scope="module")
def engines():
    return [_engine(spec) for spec in small_suite()]


def _search(engine, state, cost, sources, targets):
    """``(path, pops)`` of the engine's own A*, or None if it raises."""
    pops = engine._m_pops
    before = pops.value
    geo = engine._geometry[state.net.name]
    try:
        path = engine._astar(state.graph, geo, cost, sources, targets)
    except RoutingError:
        return None
    return path, pops.value - before


def _reference(engine, state, cost, sources, targets):
    try:
        return reference_astar(
            state.graph, cost, sources, targets, engine._pitch
        )
    except RoutingError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    design=st.integers(0, len(small_suite()) - 1),
    net_pick=st.integers(0, 10_000),
    data=st.data(),
)
def test_search_matches_dict_backed_reference(engines, design, net_pick,
                                              data):
    engine = engines[design]
    states = [s for _, s in sorted(engine.router.states.items())]
    state = states[net_pick % len(states)]
    graph = state.graph
    n = len(graph.vertices)
    cost = data.draw(
        st.lists(
            st.sampled_from(COSTS),
            min_size=len(graph.edges),
            max_size=len(graph.edges),
        ),
        label="cost",
    )
    sources = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2)),
        label="sources",
    )
    targets = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1), label="targets"
    ) - sources
    assume(targets)
    expected = _reference(engine, state, cost, sources, targets)
    assert _search(engine, state, cost, sources, targets) == expected


def test_every_small_suite_net_first_attach(engines):
    """The search each routing starts with: driver to all other
    terminals, at the base edge lengths."""
    for engine in engines:
        for _, state in sorted(engine.router.states.items()):
            graph = state.graph
            cost = engine._geometry[state.net.name].lengths
            sources = {graph.driver_vertex}
            targets = set(graph.terminal_vertices) - sources
            expected = _reference(engine, state, cost, sources, targets)
            assert expected is not None
            assert _search(engine, state, cost, sources, targets) == expected
