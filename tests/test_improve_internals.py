"""White-box tests for the improvement-phase helpers."""

from types import SimpleNamespace

import pytest

from conftest import build_chain_circuit, build_fanout_circuit
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.core.density import DensityEngine
from repro.core.improve import (
    _congested_nets,
    improve_area,
    improve_delay,
    recover_violations,
)
from repro.core.selection import SelectionMode
from repro.geometry import Interval
from repro.obs import MetricsRegistry
from repro.routegraph.graph import EdgeKind, RouteEdge


def _timing(constraint, margin_ps, critical):
    """A ConstraintTiming stand-in: just the fields improve.py reads."""
    return SimpleNamespace(
        graph=SimpleNamespace(name=constraint),
        margin_ps=margin_ps,
        violated=margin_ps < 0.0,
        critical_nets=lambda nets=critical: [
            SimpleNamespace(name=n) for n in nets
        ],
    )


class _ScriptedRouter:
    """Fake router whose timing picture changes after each reroute.

    ``script[i]`` is the timings dict returned once ``i`` reroutes have
    been kept; the last stage sticks.
    """

    def __init__(self, script, net_names, max_passes=5):
        self._script = script
        self.rerouted = []
        self.states = {name: object() for name in net_names}
        self.config = SimpleNamespace(
            max_recovery_passes=max_passes, max_delay_passes=max_passes
        )
        self.metrics = MetricsRegistry()

    def _ensure_timings(self):
        stage = min(len(self.rerouted), len(self._script) - 1)
        return self._script[stage]

    def reroute_net(self, net_name, mode):
        self.rerouted.append(net_name)
        return True


def prepared_router(library, limit_ps=2000.0):
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
    config = RouterConfig(
        run_violation_recovery=False,
        run_delay_improvement=False,
        run_area_improvement=False,
    )
    router = GlobalRouter(circuit, placement, [constraint], config)
    router.route()
    return router


class TestCongestedNets:
    def test_targets_cover_peak_columns(self, library):
        router = prepared_router(library)
        targets = _congested_nets(router)
        engine = router.engine
        channel = engine.max_channel()
        stats = engine.channel_stats(channel)
        if stats.c_max == 0:
            pytest.skip("no congestion in fixture")
        assert targets
        # The first target covers at least one peak column.
        from repro.routegraph.graph import EdgeKind

        state = router.states[targets[0]]
        peak = {
            x
            for x in range(engine.width_columns)
            if engine.d_max[channel][x] == stats.c_max
        }
        covered = set()
        for edge in state.graph.alive_edges():
            if edge.kind is EdgeKind.TRUNK and edge.channel == channel:
                covered.update(
                    range(edge.interval.lo, edge.interval.hi)
                )
        assert covered & peak

    def test_followers_excluded(self, library):
        router = prepared_router(library)
        followers = {
            name
            for name, state in router.states.items()
            if state.is_follower
        }
        assert not followers & set(_congested_nets(router))


class TestPhaseDrivers:
    def test_recover_noop_when_satisfied(self, library):
        router = prepared_router(library, limit_ps=100000.0)
        attempts = recover_violations(router)
        assert attempts == 0

    def test_recover_attempts_when_violated(self, library):
        router = prepared_router(library, limit_ps=200.0)
        attempts = recover_violations(router)
        assert attempts > 0

    def test_improve_delay_touches_critical_nets(self, library):
        router = prepared_router(library)
        reroutes_before = router.reroutes
        attempts = improve_delay(router)
        assert attempts > 0
        assert router.reroutes > reroutes_before

    def test_improve_area_bounded_by_config(self, library):
        router = prepared_router(library)
        attempts = improve_area(router)
        assert attempts <= (
            router.config.max_area_passes
            * router.config.area_nets_per_pass
        )

    def test_phase_metric_mode_ordering(self, library):
        router = prepared_router(library)
        timing_metric = router._phase_metric(SelectionMode.TIMING)
        area_metric = router._phase_metric(SelectionMode.AREA)
        # Same underlying quantities, different priority order.
        assert timing_metric[0] == area_metric[0]  # violation mass first
        assert set(timing_metric[1:]) == set(area_metric[1:])


class TestRecoveryFreshTimings:
    def test_critical_path_refetched_after_each_reroute(self):
        """Regression: the recovery pass must not chase a critical-path
        snapshot.  Here rerouting ``n1`` clears constraint A and shifts
        B's critical path from ``n2`` to ``n3``; the stale-snapshot code
        rerouted ``n2`` anyway."""
        before = {
            "A": _timing("A", -10.0, ["n1"]),
            "B": _timing("B", -5.0, ["n2"]),
        }
        after_n1 = {
            "A": _timing("A", 3.0, ["n1"]),
            "B": _timing("B", -5.0, ["n3"]),
        }
        after_n3 = {
            "A": _timing("A", 3.0, ["n1"]),
            "B": _timing("B", 1.0, ["n3"]),
        }
        router = _ScriptedRouter(
            [before, after_n1, after_n3], ["n1", "n2", "n3"]
        )
        attempts = recover_violations(router)
        assert router.rerouted == ["n1", "n3"]
        assert attempts == 2

    def test_worst_violation_first(self):
        before = {
            "A": _timing("A", -2.0, ["n1"]),
            "B": _timing("B", -9.0, ["n2"]),
        }
        cleared = {
            "A": _timing("A", 1.0, ["n1"]),
            "B": _timing("B", 1.0, ["n2"]),
        }
        router = _ScriptedRouter([before, before, cleared], ["n1", "n2"])
        recover_violations(router)
        assert router.rerouted[0] == "n2"


class TestDelayConvergence:
    def test_converged_design_single_pass(self):
        """Regression: a pass that keeps reroutes but fails to move the
        worst margin must end the phase — not burn ``max_delay_passes``
        identical passes."""
        static = {
            "A": _timing("A", 4.0, ["n1"]),
            "B": _timing("B", 7.0, ["n2"]),
        }
        router = _ScriptedRouter([static], ["n1", "n2"], max_passes=6)
        attempts = improve_delay(router)
        assert router.metrics.flat()["improve.delay_passes"] == 1
        assert attempts == 2  # each critical net exactly once

    def test_improving_margins_run_more_passes(self):
        stages = [
            {"A": _timing("A", 1.0, ["n1"])},
            {"A": _timing("A", 2.0, ["n1"])},
            {"A": _timing("A", 2.0, ["n1"])},
        ]
        router = _ScriptedRouter(stages, ["n1"], max_passes=6)
        improve_delay(router)
        # Pass 1 improves (1.0 -> 2.0), pass 2 plateaus and stops.
        assert router.metrics.flat()["improve.delay_passes"] == 2

    def test_routed_design_reaches_fixed_point(self, library):
        """With a generous pass budget the phase must stop on its own
        convergence check, not on the budget (the seed always burned
        every pass)."""
        circuit = build_chain_circuit(library, n_gates=8)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
        )
        gd = GlobalDelayGraph.build(circuit)
        constraint = PathConstraint(
            "p0",
            frozenset([gd.vertex_of(circuit.external_pin("din")).index]),
            frozenset(
                [gd.vertex_of(circuit.cell("ff").terminal("D")).index]
            ),
            2000.0,
        )
        config = RouterConfig(
            run_violation_recovery=False,
            run_delay_improvement=False,
            run_area_improvement=False,
            max_delay_passes=8,
        )
        router = GlobalRouter(circuit, placement, [constraint], config)
        router.route()
        improve_delay(router)
        before = router.metrics.flat()["improve.delay_passes"]
        improve_delay(router)
        delta = router.metrics.flat()["improve.delay_passes"] - before
        assert delta < router.config.max_delay_passes


class TestCongestedZeroSpanTrunk:
    def test_zero_span_trunk_counts_its_column(self):
        """Regression: ``_congested_nets`` used ``interval.hi - 1``,
        disagreeing with ``coverage_columns`` on zero-span trunks and
        skipping nets whose only peak coverage is such a stub."""
        engine = DensityEngine(1, 8)
        stub = RouteEdge(
            0, EdgeKind.TRUNK, 0, 1, 0, Interval(5, 5), 0.0
        )
        engine.add_edge(stub.coverage)
        state = SimpleNamespace(
            is_follower=False,
            graph=SimpleNamespace(
                alive_edge_ids=lambda: [0],
                coverage=lambda edge_id: stub.coverage,
            ),
        )
        router = SimpleNamespace(engine=engine, states={"zn": state})
        assert _congested_nets(router) == ["zn"]
