"""Fig. 3 — the routing graph ``G_r(n)``.

Benchmarks routing-graph construction over a whole dataset and censuses
the vertex/edge kinds of the figure: terminal vertices with zero-weight
correspondence edges, trunk edges in channels, branch edges at assigned
feedthrough positions.
"""

import pytest

from repro.layout.feedcell import FeedCellInserter
from repro.layout.floorplan import assign_external_pins
from repro.routegraph import build_routing_graph
from repro.routegraph.graph import EdgeKind, VertexKind


@pytest.mark.bench
def test_fig3_graph_census(benchmark, s1_dataset):
    circuit = s1_dataset.circuit
    placement = s1_dataset.placement
    assign_external_pins(circuit, placement)
    inserter = FeedCellInserter(circuit, placement)
    planner, assignment, _ = inserter.ensure_assignment(
        circuit.routable_nets
    )

    def build_all():
        return [
            build_routing_graph(net, placement, assignment.of_net(net))
            for net in circuit.routable_nets
        ]

    graphs = benchmark(build_all)

    census = {kind: 0 for kind in EdgeKind}
    vertex_census = {kind: 0 for kind in VertexKind}
    for graph in graphs:
        for edge in graph.alive_edges():
            census[edge.kind] += 1
            if edge.kind is EdgeKind.CORRESPONDENCE:
                assert edge.length_um == 0.0  # zero weight, per Fig. 3
        for vertex in graph.vertices:
            if graph.vertex_alive[vertex.index]:
                vertex_census[vertex.kind] += 1
        # Every terminal has at least one alive correspondence edge.
        attached = {
            vertex
            for edge in graph.alive_edges()
            if edge.kind is EdgeKind.CORRESPONDENCE
            for vertex in (edge.u, edge.v)
        }
        for t in graph.terminal_vertices:
            assert t in attached

    assert census[EdgeKind.TRUNK] > 0
    assert census[EdgeKind.CORRESPONDENCE] > 0
    assert census[EdgeKind.BRANCH] > 0  # some nets cross rows
    benchmark.extra_info["edges"] = {
        kind.value: count for kind, count in census.items()
    }
    benchmark.extra_info["vertices"] = {
        kind.value: count for kind, count in vertex_census.items()
    }
    print()
    print("  G_r census:", benchmark.extra_info["edges"])
