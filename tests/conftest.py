"""Shared fixtures: small hand-built circuits, placements, and routed
results reused across the test suite."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import (
    Circuit,
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PinSide,
    Placement,
    PlacerConfig,
    RouterConfig,
    Technology,
    TerminalDirection,
    place_circuit,
    standard_ecl_library,
)
from repro.core.criteria import DelayCriteria, evaluate_delay_criteria
from repro.core.selection import selection_key
from repro.routegraph import compute_tentative_tree


@pytest.fixture(scope="session")
def library():
    return standard_ecl_library()


@pytest.fixture()
def tech():
    return Technology()


def build_chain_circuit(
    library, n_gates: int = 6, name: str = "chain"
) -> Circuit:
    """in -> gate chain -> ff -> out, plus a clock. Deterministic."""
    circuit = Circuit(name, library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    clk = circuit.add_external_pin("clk", TerminalDirection.INPUT)
    dout = circuit.add_external_pin(
        "dout", TerminalDirection.OUTPUT, side=PinSide.TOP
    )
    prev = circuit.add_net("n_in")
    prev.attach(din)
    for i in range(n_gates):
        gate = circuit.add_cell(f"g{i}", "INV1" if i % 2 else "BUF1")
        prev.attach(gate.terminal("I0"))
        prev = circuit.add_net(f"n{i}")
        prev.attach(gate.terminal("O"))
    ff = circuit.add_cell("ff", "DFF")
    prev.attach(ff.terminal("D"))
    clk_net = circuit.add_net("n_clk")
    clk_net.attach(clk)
    clk_net.attach(ff.terminal("CLK"))
    q_net = circuit.add_net("n_q")
    q_net.attach(ff.terminal("Q"))
    q_net.attach(dout)
    return circuit


def build_diamond_circuit(library) -> Circuit:
    """din -> a -> {b, c} -> d -> dout : two parallel reconvergent paths."""
    circuit = Circuit("diamond", library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    dout = circuit.add_external_pin("dout", TerminalDirection.OUTPUT)
    a = circuit.add_cell("a", "BUF1")
    b = circuit.add_cell("b", "INV1")
    c = circuit.add_cell("c", "BUF1")
    d = circuit.add_cell("d", "NOR2")
    circuit.connect(circuit.add_net("n_in").name, din, a.terminal("I0"))
    circuit.connect(
        circuit.add_net("n_a").name,
        a.terminal("O"), b.terminal("I0"), c.terminal("I0"),
    )
    circuit.connect(
        circuit.add_net("n_b").name, b.terminal("O"), d.terminal("I0")
    )
    circuit.connect(
        circuit.add_net("n_c").name, c.terminal("O"), d.terminal("I1")
    )
    circuit.connect(circuit.add_net("n_d").name, d.terminal("O"), dout)
    return circuit


def build_fanout_circuit(library, fanout: int = 4) -> Circuit:
    """One driver gate feeding several sinks spread over rows."""
    circuit = Circuit("fanout", library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    src = circuit.add_cell("src", "BUF1")
    n_in = circuit.add_net("n_in")
    n_in.attach(din)
    n_in.attach(src.terminal("I0"))
    big = circuit.add_net("big")
    big.attach(src.terminal("O"))
    for i in range(fanout):
        sink = circuit.add_cell(f"s{i}", "INV1")
        big.attach(sink.terminal("I0"))
        out = circuit.add_net(f"o{i}")
        out.attach(sink.terminal("O"))
        pin = circuit.add_external_pin(
            f"out{i}",
            TerminalDirection.OUTPUT,
            side=PinSide.TOP if i % 2 else PinSide.BOTTOM,
        )
        out.attach(pin)
    return circuit


@pytest.fixture()
def chain_circuit(library):
    return build_chain_circuit(library)


@pytest.fixture()
def fanout_circuit(library):
    return build_fanout_circuit(library)


@pytest.fixture()
def chain_placed(chain_circuit):
    placement = place_circuit(
        chain_circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    return chain_circuit, placement


@pytest.fixture()
def fanout_placed(fanout_circuit):
    placement = place_circuit(
        fanout_circuit, PlacerConfig(n_rows=2, feed_fraction=0.5)
    )
    return fanout_circuit, placement


def route_chain(library, constrained: bool = True, profiler=None):
    """Route the chain circuit end to end; returns (circuit, placement,
    constraints, result).  Pass a ``PhaseProfiler`` to read the run's
    phase tree."""
    circuit = build_chain_circuit(library)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    gd = GlobalDelayGraph.build(circuit)
    din = circuit.external_pin("din")
    ff = circuit.cell("ff")
    constraint = PathConstraint(
        "p0",
        frozenset([gd.vertex_of(din).index]),
        frozenset([gd.vertex_of(ff.terminal("D")).index]),
        2000.0,
    )
    config = RouterConfig()
    if not constrained:
        config = config.unconstrained()
    router = GlobalRouter(
        circuit, placement, [constraint], config, profiler=profiler
    )
    return circuit, placement, [constraint], router.route()


@pytest.fixture()
def routed_chain(library):
    return route_chain(library)


def routes_sha256(result) -> str:
    """sha256 over every net's sorted ``(kind, channel, lo, hi)`` edges,
    nets in name order (shared by the golden-output tests)."""
    digest = hashlib.sha256()
    for name in sorted(result.routes):
        edges = sorted(
            (e.kind.value, e.channel, e.interval.lo, e.interval.hi)
            for e in result.routes[name].edges
        )
        digest.update(json.dumps([name, edges]).encode())
    return digest.hexdigest()


def channel_fingerprint(channels) -> dict:
    """The pinned values of one channel-routing result (shared by the
    channel golden and the edge-deletion golden, which records them
    while its full routes are at hand): each channel's counts in
    channel order, a sha256 over every segment row in result order plus
    the channel's through columns, and a sha256 over the per-net
    vertical lengths as ``float.hex``."""
    ordered = [channels.channels[c] for c in sorted(channels.channels)]
    segments = hashlib.sha256()
    for channel in ordered:
        for s in channel.segments:
            row = [
                channel.channel, s.net_name, s.interval.lo, s.interval.hi,
                s.part, s.parts, list(s.attach_top), list(s.attach_bottom),
                s.track,
            ]
            segments.update(json.dumps(row).encode())
        throughs = sorted(channel.through_columns.items())
        segments.update(json.dumps([channel.channel, throughs]).encode())
    vertical = hashlib.sha256()
    for name in sorted(channels.net_vertical_um):
        value = channels.net_vertical_um[name]
        vertical.update(json.dumps([name, float(value).hex()]).encode())
    return {
        "tracks": [c.tracks for c in ordered],
        "constraint_breaks": [c.constraint_breaks for c in ordered],
        "pin_conflicts": [c.pin_conflicts for c in ordered],
        "dogleg_splits": [c.dogleg_splits for c in ordered],
        "segments_sha256": segments.hexdigest(),
        "vertical_sha256": vertical.hexdigest(),
    }


def fresh_selection_key(router, state, edge_id, mode):
    """``selection_key`` of one candidate built from the scalar Section
    3.2–3.4 definitions — the reference tentative tree, the scalar delay
    criteria and the density engine's current channel statistics — with
    no router or engine cache in the way (shared by the key-exactness
    tests)."""

    def wire_cap(tree):
        return router.delay_model.wire_cap_pf(
            tree.total_length_um, state.net.width_pitches
        )

    graph = state.graph
    edge = graph.edges[edge_id]
    delay = DelayCriteria.ZERO
    if router.config.timing_driven and state.context.constrained:
        delay = evaluate_delay_criteria(
            state.context,
            wire_cap(compute_tentative_tree(graph)),
            wire_cap(compute_tentative_tree(graph, edge_id)),
            router._ensure_timings(),
        )
    return selection_key(
        edge,
        delay,
        router.engine.channel_stats(edge.channel),
        router.engine.edge_params(edge),
        mode,
        tie_break=(state.net.name, edge_id),
    )
