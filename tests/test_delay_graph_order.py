"""``G_D`` keeps the topological order it sorts once, at build.

The STA, every ``build_constraint_graph`` call (router and sign-off,
one per constraint), the RC sign-off and constraint generation used to
run their own Kahn sort of ``G_D``.  The graph never changes once built,
so :meth:`GlobalDelayGraph.topological_order` now hands all of them the
order :meth:`GlobalDelayGraph.build` sorted.  These tests check that the
kept order is the one a fresh Kahn sort produces, that constraint graphs
and timings built on it are identical to ones built on a fresh sort,
and that a flow sorts each ``G_D`` exactly once.
"""

from typing import List

import pytest

from repro.bench.circuits import make_dataset, small_suite, standard_suite
from repro.bench.runner import run_flow
from repro.core.config import RouterConfig
from repro.timing import delay_graph
from repro.timing.constraint import ConstraintGraph, build_constraint_graph
from repro.timing.delay_graph import GlobalDelayGraph
from repro.timing.sta import StaticTimingAnalyzer, WireCaps


def reference_kahn(gd: GlobalDelayGraph) -> List[int]:
    """The Kahn sort every caller used to run on its own."""
    indegree = [len(gd.in_arcs[v.index]) for v in gd.vertices]
    frontier = [i for i, d in enumerate(indegree) if d == 0]
    order: List[int] = []
    while frontier:
        v = frontier.pop()
        order.append(v)
        for arc_id in gd.out_arcs[v]:
            head = gd.arcs[arc_id].head
            indegree[head] -= 1
            if indegree[head] == 0:
                frontier.append(head)
    return order


def reference_constraint_graph(gd, constraint) -> ConstraintGraph:
    """``build_constraint_graph`` over a fresh Kahn sort."""
    built = build_constraint_graph(gd, constraint)
    keep = set(built.topo)
    topo = [v for v in reference_kahn(gd) if v in keep]
    arcs = [a for a in gd.arcs if a.tail in keep and a.head in keep]
    return ConstraintGraph(constraint, gd, topo, arcs)


def timing_of(gd, cg, caps):
    """Everything a constraint's timing holds but the graph object."""
    timing = StaticTimingAnalyzer(gd, [cg]).analyze_constraint(cg, caps)
    return (
        timing.lp, timing.lq, timing.worst_delay_ps, timing.margin_ps,
        timing.critical_arc_positions,
    )


@pytest.fixture(scope="module", params=["S1P1", "C1P1", "C3P1"])
def routed(request):
    specs = {s.name: s for s in small_suite() + standard_suite()}
    dataset = make_dataset(specs[request.param])
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    return dataset, flow


def test_kept_order_is_the_kahn_order(routed):
    _, flow = routed
    gd = flow.router.gd
    order = gd.topological_order()
    assert isinstance(order, tuple)
    assert gd.topological_order() is order
    assert list(order) == reference_kahn(gd)


def test_constraint_graphs_and_timings_identical(routed):
    dataset, flow = routed
    gd = flow.router.gd
    caps = flow.global_result.wire_caps
    for constraint in dataset.constraints:
        ours = build_constraint_graph(gd, constraint)
        theirs = reference_constraint_graph(gd, constraint)
        assert ours.topo == theirs.topo
        assert ours.pos == theirs.pos
        assert ours.arcs == theirs.arcs
        assert ours.arcs_of_net == theirs.arcs_of_net
        assert ours.source_positions == theirs.source_positions
        assert ours.sink_positions == theirs.sink_positions
        for wire_caps in (caps, WireCaps.zero()):
            assert timing_of(gd, ours, wire_caps) == timing_of(
                gd, theirs, wire_caps
            )
    analyzer = StaticTimingAnalyzer(gd)
    assert analyzer.graph_critical_delay(caps) == (
        flow.global_result.critical_delay_ps
    )


def test_a_flow_sorts_each_delay_graph_once(monkeypatch):
    builds, sorts = [], []
    build, kahn = GlobalDelayGraph.build.__func__, GlobalDelayGraph._kahn_order

    def counted_build(cls, *args, **kwargs):
        builds.append(1)
        return build(cls, *args, **kwargs)

    def counted_kahn(self):
        sorts.append(1)
        return kahn(self)

    monkeypatch.setattr(
        delay_graph.GlobalDelayGraph, "build", classmethod(counted_build)
    )
    monkeypatch.setattr(
        delay_graph.GlobalDelayGraph, "_kahn_order", counted_kahn
    )
    dataset = make_dataset(small_suite()[0])
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    assert dataset.constraints and flow.signoff.constraint_margins
    # Constraint generation, the router, sign-off and the Table 3
    # bound all read the circuit's one G_D.
    assert len(builds) == 1
    assert len(sorts) == len(builds)
