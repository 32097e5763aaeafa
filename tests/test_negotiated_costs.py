"""The negotiated engine's windowed edge costs equal the chip-wide ones.

``NegotiatedEngine._edge_costs`` evaluates the congestion penalty only
over the flat window of columns a net's trunks cover, as laid out once
per net by the engine's geometry constructor.  The oracle below is the
chip-wide formulation it replaced: one penalty row per channel over
every column, each trunk summing its slice.  One changed cost can flip
an A* tie and change a route, so the two cost lists must be equal
bit for bit, never merely close.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import make_dataset, small_suite
from repro.bipolar.multipitch import density_weight
from repro.core.config import RouterConfig
from repro.core.density import coverage_columns
from repro.engines import make_engine
from repro.geometry import Interval
from repro.layout.floorplan import assign_external_pins
from repro.routegraph.graph import EdgeKind, RoutingGraph


def full_chip_edge_costs(engine, state, pn, discount):
    """Oracle: the penalty over every column of every channel."""
    usage = engine._usage
    weight = density_weight(state.net)
    h_weight = engine.router.config.neg_history_weight
    scale = engine._pitch * discount
    penalty = []
    for channel in range(usage.shape[0]):
        over = (
            usage[channel].astype(np.float64)
            + float(weight)
            - float(engine._cap[channel])
        )
        np.clip(over, 0.0, None, out=over)
        penalty.append(
            (h_weight * engine._history[channel] + pn * over) * scale
        )
    graph = state.graph
    costs = [0.0] * len(graph.edges)
    for edge in graph.edges:
        base = edge.length_um
        if edge.kind is EdgeKind.TRUNK:
            lo, hi = coverage_columns(edge.coverage)
            base += float(penalty[edge.channel][lo : hi + 1].sum())
        costs[edge.index] = base
    return costs


def _engine(spec):
    """A negotiated engine on one design, ready to price its nets."""
    dataset = make_dataset(spec)
    assign_external_pins(dataset.circuit, dataset.placement)
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


def _costs(engine, state, pn, discount):
    """Price one net the way a reroute does: through its geometry."""
    return engine._edge_costs(engine._build_geometry(state), pn, discount)


def _randomize(engine, rng, h_weight):
    """Random usage, history and capacity budgets on every channel."""
    usage = engine._usage
    n_channels, width = usage.shape
    for channel in range(n_channels):
        usage[channel][:] = rng.integers(0, 12, width)
        history = rng.random(width) * 10.0 ** rng.integers(-3, 4)
        history[rng.random(width) < 0.4] = 0.0
        engine._history[channel][:] = history
    engine._cap[:] = rng.integers(1, 12, n_channels)
    engine.router.config = dataclasses.replace(
        engine.router.config, neg_history_weight=h_weight
    )


def _collapse(edge, at_hi):
    """The trunk shrunk to zero span at one of its ends."""
    column = edge.interval.hi if at_hi else edge.interval.lo
    return edge._replace(interval=Interval(column, column))


@settings(max_examples=150, deadline=None)
@given(
    design=st.integers(0, len(small_suite()) - 1),
    net_pick=st.integers(0, 10_000),
    seed=st.integers(0, 2**32 - 1),
    pn=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    discount=st.floats(0.0, 1.0),
    h_weight=st.floats(0.0, 100.0),
    width=st.integers(1, 3),
    collapse=st.floats(0.0, 1.0),
)
def test_windowed_costs_equal_chip_wide_costs(
    engines, design, net_pick, seed, pn, discount, h_weight, width, collapse
):
    engine = engines[design]
    rng = np.random.default_rng(seed)
    _randomize(engine, rng, h_weight)
    states = [s for _, s in sorted(engine.router.states.items())]
    graph = states[net_pick % len(states)].graph
    edges = [
        _collapse(edge, rng.random() < 0.5)
        if edge.kind is EdgeKind.TRUNK and rng.random() < collapse
        else edge
        for edge in graph.edges
    ]
    state = SimpleNamespace(
        net=SimpleNamespace(width_pitches=width),
        graph=RoutingGraph(
            graph.net,
            graph.vertices,
            edges,
            graph.terminal_vertices,
            graph.driver_vertex,
        ),
    )
    assert _costs(engine, state, pn, discount) == full_chip_edge_costs(
        engine, state, pn, discount
    )


def test_every_small_suite_net_prices_identically(engines):
    """Each real net of every small-suite design, unmodified graphs."""
    rng = np.random.default_rng(0)
    for engine in engines:
        _randomize(engine, rng, 1.0)
        for _, state in sorted(engine.router.states.items()):
            assert _costs(
                engine, state, 3.7, 0.8
            ) == full_chip_edge_costs(engine, state, 3.7, 0.8)


def test_all_zero_window_costs_are_the_lengths(engines):
    """With ``pn = 0`` and no history every window prices to zero, and
    the costs are the edge lengths exactly, whatever the usage."""
    rng = np.random.default_rng(1)
    for engine in engines:
        _randomize(engine, rng, 1.0)
        engine._history[:] = 0.0
        for _, state in sorted(engine.router.states.items()):
            lengths = [edge.length_um for edge in state.graph.edges]
            costs = _costs(engine, state, 0.0, 1.0)
            assert costs == lengths
            assert costs == full_chip_edge_costs(engine, state, 0.0, 1.0)
