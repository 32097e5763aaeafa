"""Integration tests for the global router core (Fig. 2 flow)."""

import pytest

from conftest import build_chain_circuit, build_fanout_circuit, route_chain
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    RoutingError,
    place_circuit,
)
from repro.core.result import AttachSide
from repro.errors import ConfigError
from repro.obs import PhaseProfiler
from repro.routegraph.graph import EdgeKind


class TestRouteBasics:
    def test_route_returns_result(self, routed_chain):
        _, _, _, result = routed_chain
        assert result.routes
        assert result.total_length_um > 0
        assert result.cpu_seconds >= 0
        assert result.deletions >= 0

    def test_route_only_once(self, library):
        circuit = build_chain_circuit(library)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=2, feed_fraction=0.4)
        )
        router = GlobalRouter(circuit, placement)
        router.route()
        with pytest.raises(RoutingError):
            router.route()

    def test_every_routable_net_routed(self, routed_chain):
        circuit, _, _, result = routed_chain
        assert set(result.routes) == {
            n.name for n in circuit.routable_nets
        }

    def test_all_final_graphs_are_trees(self, routed_chain):
        circuit, _, _, result = routed_chain
        for route in result.routes.values():
            # edges == (#vertices used - 1) is guaranteed by the graph
            # invariant; here we just check non-emptiness and sane length.
            assert route.edges
            assert route.total_length_um == pytest.approx(
                sum(e.length_um for e in route.edges)
            )

    def test_margins_reported(self, routed_chain):
        _, _, constraints, result = routed_chain
        assert set(result.constraint_margins) == {
            c.name for c in constraints
        }

    def test_wire_caps_match_routes(self, routed_chain):
        circuit, _, _, result = routed_chain
        for name, route in result.routes.items():
            assert result.wire_caps.get_name(name) == pytest.approx(
                route.wire_cap_pf
            )

    def test_profile_has_all_phases(self, library):
        profiler = PhaseProfiler()
        route_chain(library, profiler=profiler)
        route = profiler.node("route")
        assert "assignment" in route.children["setup"].children
        assert {"setup", "initial"} <= set(route.children)
        assert {"recover_violate", "improve_delay", "improve_area"} <= set(
            route.children
        )

    def test_channel_peak_density_nonnegative(self, routed_chain):
        _, placement, _, result = routed_chain
        assert set(result.channel_peak_density) == set(
            range(placement.n_channels)
        )
        assert all(v >= 0 for v in result.channel_peak_density.values())

    def test_estimated_floorplan(self, routed_chain):
        _, _, _, result = routed_chain
        assert result.estimated_floorplan.area_mm2 > 0


class TestUnconstrainedMode:
    def test_unconstrained_runs_without_recovery(self, library):
        profiler = PhaseProfiler()
        route_chain(library, constrained=False, profiler=profiler)
        phases = set(profiler.node("route").children)
        assert "recover_violate" not in phases
        assert "improve_delay" not in phases
        assert "improve_area" in phases

    def test_unconstrained_still_reports_margins(self, library):
        _, _, constraints, result = route_chain(library, constrained=False)
        assert set(result.constraint_margins) == {
            c.name for c in constraints
        }


class TestAttachments:
    def test_attachment_sides_consistent(self, routed_chain):
        circuit, placement, _, result = routed_chain
        for route in result.routes.values():
            for attachment in route.attachments:
                assert 0 <= attachment.channel <= placement.n_rows
                if attachment.channel == 0:
                    # nothing below channel 0 can attach from the top
                    # unless it is a row-0 terminal; bottom pins attach
                    # from the bottom.
                    pass
                assert attachment.side in (
                    AttachSide.TOP, AttachSide.BOTTOM
                )

    def test_branch_edges_attach_both_channels(self, routed_chain):
        _, _, _, result = routed_chain
        for route in result.routes.values():
            branch_channels = [
                e.channel for e in route.edges
                if e.kind is EdgeKind.BRANCH
            ]
            attach_channels = {
                (a.channel, a.side) for a in route.attachments
            }
            for channel in branch_channels:
                assert (channel, AttachSide.TOP) in attach_channels
                assert (channel + 1, AttachSide.BOTTOM) in attach_channels


class TestDensityConsistency:
    def test_final_density_equals_recount(self, library):
        """The engine's final d_M must equal a recount of final wiring."""
        circuit = build_fanout_circuit(library)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=2, feed_fraction=0.5)
        )
        router = GlobalRouter(circuit, placement, [])
        result = router.route()
        import numpy as np

        width = placement.width_columns
        recount = {
            c: np.zeros(width, dtype=int)
            for c in range(placement.n_channels)
        }
        for state in router.states.values():
            weight = state.net.width_pitches
            for edge in state.graph.alive_edges():
                if edge.kind is not EdgeKind.TRUNK:
                    continue
                lo, hi = edge.interval.lo, edge.interval.hi - 1
                recount[edge.channel][lo : hi + 1] += weight
        for channel in range(placement.n_channels):
            for column in range(width):
                assert (
                    router.engine.density_at(channel, column)[0]
                    == recount[channel][column]
                )

    def test_final_dm_equals_dM(self, library):
        """At convergence every alive edge is essential, so the two
        profiles coincide."""
        circuit = build_fanout_circuit(library)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=2, feed_fraction=0.5)
        )
        router = GlobalRouter(circuit, placement, [])
        router.route()
        for channel in range(placement.n_channels):
            for column in range(placement.width_columns):
                d_max, d_min = router.engine.density_at(channel, column)
                assert d_max == d_min


class TestDeterminism:
    def test_same_input_same_result(self, library):
        results = []
        for _ in range(2):
            circuit, placement, constraints, result = route_chain(library)
            results.append(
                (
                    result.total_length_um,
                    result.critical_delay_ps,
                    result.deletions,
                )
            )
        assert results[0] == results[1]


class TestRouterConfigCopies:
    def test_unconstrained_preserves_all_other_fields(self):
        custom = RouterConfig(
            max_recovery_passes=7,
            area_nets_per_pass=3,
            width_cap_exponent=0.7,
            pad_tf_ps_per_pf=55.0,
            tree_estimator="steiner",
            assignment_order="fanout",
            revert_worse_reroutes=False,
        )
        baseline = custom.unconstrained()
        assert not baseline.timing_driven
        assert not baseline.run_violation_recovery
        assert not baseline.run_delay_improvement
        assert baseline.max_recovery_passes == 7
        assert baseline.area_nets_per_pass == 3
        assert baseline.width_cap_exponent == 0.7
        assert baseline.pad_tf_ps_per_pf == 55.0
        assert baseline.tree_estimator == "steiner"
        assert baseline.assignment_order == "fanout"
        assert baseline.revert_worse_reroutes is False

    def test_bad_assignment_order_rejected(self):
        with pytest.raises(ConfigError):
            RouterConfig(assignment_order="alphabetical")

    def test_negative_pass_counts_rejected(self):
        with pytest.raises(ConfigError):
            RouterConfig(max_area_passes=-1)
