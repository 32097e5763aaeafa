"""The negotiated engine's own congestion state stays consistent.

The engine keeps tree usage in a plain int32 array it moves itself, and
applies only the finalization delta to the router's shared density
maps.  These tests hold both ledgers to a from-scratch recount:

* after every negotiation iteration, ``usage`` equals the recount of
  the chosen trees and has no negative column;
* after finalization, the router's ``d_M``/``d_m`` equal a fresh
  ``DensityEngine`` with every final graph registered;

and pin the safety checks that moved into the engine: the chip bounds
check of the per-net geometry, and the unbalanced-removal check.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.circuits import congestion_suite, make_dataset, small_suite
from repro.bipolar.multipitch import density_weight
from repro.core.config import RouterConfig
from repro.core.density import DensityEngine, coverage_columns
from repro.engines import make_engine
from repro.errors import RoutingError
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind, RoutingGraph

DESIGNS = tuple(small_suite()) + tuple(congestion_suite())
MODES = (True, False)


def _engine(spec, constrained=True):
    dataset = make_dataset(spec)
    config = RouterConfig(routing_engine="negotiated")
    if not constrained:
        config = config.unconstrained()
    return make_engine(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )


def _prepared(spec):
    """A negotiated engine set up to route, before any net is routed."""
    engine = _engine(spec)
    engine.router.prepare()
    engine._init_negotiation()
    return engine


def recount_usage(engine):
    """Usage rebuilt from the chosen trees alone."""
    usage = np.zeros_like(engine._usage)
    for name, tree in engine._trees.items():
        state = engine.router.states[name]
        weight = density_weight(state.net)
        for edge_id in tree:
            edge = state.graph.edges[edge_id]
            if edge.kind is EdgeKind.TRUNK:
                lo, hi = coverage_columns(edge.coverage)
                usage[edge.channel, lo : hi + 1] += weight
    return usage


def registered_density(router):
    """A fresh ``DensityEngine`` with every final graph registered."""
    engine = router.engine
    fresh = DensityEngine(engine.n_channels, engine.width_columns)
    for state in router.states.values():
        weight = density_weight(state.net)
        for edge in state.graph.alive_edges():
            fresh.add_edge(edge.coverage, weight)
            if state.graph.essential[edge.index]:
                fresh.add_bridge(edge.coverage, weight)
    return fresh


@pytest.fixture(scope="module")
def routed():
    """Every design routed in both modes, with the usage ledger checked
    each time the loop scans overuse — once per iteration, then once
    more at the end."""
    runs = {}
    for spec in DESIGNS:
        for constrained in MODES:
            engine = _engine(spec, constrained)
            scan = engine._overuse
            checks = []

            def checked_scan(engine=engine, scan=scan, checks=checks):
                usage = engine._usage
                checks.append(
                    (
                        np.array_equal(usage, recount_usage(engine)),
                        int(usage.min()),
                    )
                )
                return scan()

            engine._overuse = checked_scan
            engine.route()
            runs[spec.name, constrained] = (engine, checks)
    return runs


@pytest.mark.parametrize("constrained", MODES, ids=("timing", "area"))
@pytest.mark.parametrize("design", ("S1P1", "S2P1", "CGP1"))
def test_usage_matches_trees_after_every_iteration(
    routed, design, constrained
):
    engine, checks = routed[design, constrained]
    assert len(checks) == engine._iterations + 1
    for iteration, (equal, lowest) in enumerate(checks, start=1):
        assert equal, f"iteration {iteration}: usage differs from recount"
        assert lowest >= 0, f"iteration {iteration}: negative usage"


@pytest.mark.parametrize("constrained", MODES, ids=("timing", "area"))
@pytest.mark.parametrize("design", [spec.name for spec in DESIGNS])
def test_finalize_delta_equals_fresh_registration(
    routed, design, constrained
):
    engine, _ = routed[design, constrained]
    router = engine.router
    fresh = registered_density(router)
    for channel in range(fresh.n_channels):
        assert np.array_equal(
            router.engine.d_max[channel], fresh.d_max[channel]
        ), f"d_M differs in channel {channel}"
        assert np.array_equal(
            router.engine.d_min[channel], fresh.d_min[channel]
        ), f"d_m differs in channel {channel}"
    assert engine._geometry == {}


def _trunk_state(engine):
    """The first state (by name) whose graph has a trunk edge."""
    for _, state in sorted(engine.router.states.items()):
        if any(e.kind is EdgeKind.TRUNK for e in state.graph.edges):
            return state
    raise AssertionError("no net with a trunk edge")


class TestGeometryBounds:
    @pytest.fixture(scope="class")
    def engine(self):
        return _prepared(small_suite()[0])

    def _with_trunk(self, engine, **changes):
        state = _trunk_state(engine)
        edges = list(state.graph.edges)
        trunk = next(e for e in edges if e.kind is EdgeKind.TRUNK)
        edges[trunk.index] = trunk._replace(**changes)
        graph = state.graph
        return SimpleNamespace(
            net=state.net,
            graph=RoutingGraph(
                state.net,
                graph.vertices,
                edges,
                graph.terminal_vertices,
                graph.driver_vertex,
            ),
        )

    def test_coverage_past_the_right_edge_raises(self, engine):
        width = engine._usage.shape[1]
        state = self._with_trunk(engine, interval=Interval(0, width + 1))
        with pytest.raises(RoutingError, match="beyond chip width"):
            engine._build_geometry(state)

    def test_coverage_past_the_left_edge_raises(self, engine):
        state = self._with_trunk(engine, interval=Interval(-2, 3))
        with pytest.raises(RoutingError, match="beyond chip width"):
            engine._build_geometry(state)

    def test_channel_off_the_chip_raises(self, engine):
        n_channels = engine._usage.shape[0]
        state = self._with_trunk(engine, channel=n_channels)
        with pytest.raises(RoutingError, match="out of range"):
            engine._build_geometry(state)


class TestUnbalancedRemoval:
    def _spanned_tree(self, engine, min_spans):
        """The first net (by name) whose base-length tree has at least
        ``min_spans`` trunks: ``(state, tree, spans)``."""
        for name, state in sorted(engine.router.states.items()):
            geo = engine._geometry[name]
            tree = engine._grow_tree(state.graph, geo, geo.lengths)
            spans = [geo.spans[e] for e in tree if geo.spans[e] is not None]
            if len(spans) >= min_spans:
                return state, tree, spans
        raise AssertionError(f"no tree with {min_spans} trunks")

    def _drop_refused(self, engine, state, tree):
        """Drop the state's tree, which must fail and change nothing."""
        before = engine._usage.copy()
        with pytest.raises(RoutingError, match="unbalanced"):
            engine._drop_tree(state)
        assert np.array_equal(engine._usage, before)
        assert engine._trees[state.net.name] is tree

    def test_never_added_tree_raises_and_leaves_usage(self):
        engine = _prepared(small_suite()[0])
        state, tree, _ = self._spanned_tree(engine, 1)
        engine._trees[state.net.name] = tree
        self._drop_refused(engine, state, tree)

    def test_failure_after_earlier_spans_restores_them(self):
        """The last span checked is short; the spans taken out before it
        go back, so the array is exactly as it was."""
        engine = _prepared(small_suite()[0])
        state, tree, spans = self._spanned_tree(engine, 2)
        engine._adopt_tree(state, tree)
        engine._usage_flat[spans[-1][0]] -= 1
        self._drop_refused(engine, state, tree)
