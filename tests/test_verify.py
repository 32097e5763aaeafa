"""Tests for the routing verifier (repro.core.verify)."""

import dataclasses

import pytest

from conftest import build_chain_circuit, route_chain
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.core.result import NetRoute, RoutedEdge
from repro.core.verify import verify_routing
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind


def editable(result):
    """A copy of ``result`` whose routes hold their edges and
    attachments as plain lists, for tests that edit them in place (a
    routed net's rows are read-only views over the result's table)."""
    routes = {
        name: dataclasses.replace(
            route, edges=list(route.edges),
            attachments=list(route.attachments),
        )
        for name, route in result.routes.items()
    }
    return dataclasses.replace(result, routes=routes)


@pytest.fixture()
def verified_setup(library):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    router = GlobalRouter(circuit, placement, [], RouterConfig())
    result = router.route()
    return circuit, placement, router, result


class TestCleanResult:
    def test_router_output_verifies_clean(self, verified_setup):
        circuit, placement, router, result = verified_setup
        violations = verify_routing(
            circuit, placement, result, router.assignment
        )
        assert violations == []

    def test_random_circuits_verify_clean(self):
        from repro.bench.circuits import make_dataset, small_suite

        dataset = make_dataset(small_suite()[0])
        router = GlobalRouter(
            dataset.circuit, dataset.placement, dataset.constraints,
            RouterConfig(),
        )
        result = router.route()
        assert verify_routing(
            dataset.circuit, dataset.placement, result, router.assignment
        ) == []


class TestViolationDetection:
    def test_missing_route_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        broken = dataclasses.replace(result)
        name = next(iter(broken.routes))
        del broken.routes[name]
        violations = verify_routing(circuit, placement, broken)
        assert any("no route" in v for v in violations)

    def test_out_of_chip_edge_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        result = editable(result)
        name = next(iter(result.routes))
        route = result.routes[name]
        route.edges.append(
            RoutedEdge(
                EdgeKind.TRUNK, 0, Interval(0, 10_000), 40.0
            )
        )
        violations = verify_routing(circuit, placement, result)
        assert any("outside chip" in v for v in violations)

    def test_length_mismatch_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        name = next(iter(result.routes))
        result.routes[name].total_length_um += 123.0
        violations = verify_routing(circuit, placement, result)
        assert any("reported length" in v for v in violations)

    def test_disconnected_wiring_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        result = editable(result)
        # Find a route with a trunk and add a far-away disconnected trunk.
        name = next(
            n for n, r in result.routes.items()
            if any(e.kind is EdgeKind.TRUNK for e in r.edges)
        )
        route = result.routes[name]
        width = placement.width_columns
        stray = RoutedEdge(
            EdgeKind.TRUNK, placement.n_channels - 1,
            Interval(width - 2, width - 1), 4.0,
        )
        route.edges.append(stray)
        route.total_length_um += 4.0
        violations = verify_routing(circuit, placement, result)
        assert any("not connected" in v for v in violations)

    def test_missing_attachment_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        result = editable(result)
        name = next(iter(sorted(result.routes)))
        route = result.routes[name]
        route.attachments.clear()
        violations = verify_routing(circuit, placement, result)
        assert any("has no attachment" in v for v in violations)

    def test_ungranted_slot_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        result = editable(result)
        # Find a route with a branch edge and shift its column.
        for name, route in result.routes.items():
            branch = next(
                (e for e in route.edges if e.kind is EdgeKind.BRANCH),
                None,
            )
            if branch is not None:
                break
        else:
            pytest.skip("no branch edges in this fixture")
        route.edges.remove(branch)
        moved = RoutedEdge(
            EdgeKind.BRANCH, branch.channel,
            Interval(branch.interval.lo + 1, branch.interval.lo + 1),
            branch.length_um,
        )
        route.edges.append(moved)
        violations = verify_routing(
            circuit, placement, result, router.assignment
        )
        assert any("ungranted slot" in v for v in violations)

    def test_zero_span_trunk_counts_its_column(self, verified_setup):
        circuit, placement, router, result = verified_setup
        # Net a runs [2, 5] plus a zero-span trunk at column 5, which the
        # density engine counts there; net b runs [5, 8].  Column 5
        # carries both nets, above the reported peak of 1.
        a = NetRoute(
            "a", 1,
            [
                RoutedEdge(EdgeKind.TRUNK, 1, Interval(2, 5), 12.0),
                RoutedEdge(EdgeKind.TRUNK, 1, Interval(5, 5), 0.0),
            ],
            [], 12.0, 0.0,
        )
        b = NetRoute(
            "b", 1, [RoutedEdge(EdgeKind.TRUNK, 1, Interval(5, 8), 12.0)],
            [], 12.0, 0.0,
        )
        hand = dataclasses.replace(
            result, routes={"a": a, "b": b}, channel_peak_density={1: 1}
        )
        violations = verify_routing(circuit, placement, hand)
        assert (
            "channel 1: actual peak density 2 exceeds reported 1"
            in violations
        )
