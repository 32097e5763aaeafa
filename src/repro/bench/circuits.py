"""Synthetic bipolar standard-cell circuits.

The paper evaluates on three proprietary NTT circuits (C1: the
regenerator-section overhead processor of a 10-Gbit/s transmission system;
C2, C3: further transmission-system chips) with designer placements P1 and
feed-cells-swept-aside placements P2, and designer-supplied critical path
constraints.  None of that data is public, so this module generates
*structurally equivalent* stand-ins:

* layered random logic (gates drawing inputs from a locality window, so
  placed netlists have realistic short/long net mixes) between register
  banks, with external input/output pins on both chip boundaries;
* a high-fanout **multi-pitch clock** net from a CLKBUF (Section 4.2);
* **differential pairs** driven by DIFFBUF cells whose true/complement
  nets land on the same receiving cells (Section 4.1);
* constraints derived the way a designer would state them: the ``k`` most
  critical register/pin-to-register/pin paths under zero-interconnect
  timing, each given a delay budget ``factor ×`` its intrinsic delay.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..layout.floorplan import assign_external_pins
from ..layout.placer import FeedStyle, PlacerConfig, place_circuit
from ..layout.placement import Placement
from ..netlist.cell_library import TerminalDirection, standard_ecl_library
from ..netlist.circuit import Circuit, Net, PinSide
from ..tech import Technology
from ..timing.constraint import PathConstraint
from ..timing.delay_graph import GlobalDelayGraph, VertexKind
from ..timing.sta import NEG_INF, StaticTimingAnalyzer, WireCaps

_GATE_MENU = [
    ("NOR2", 2),
    ("OR2", 2),
    ("AND2", 2),
    ("NOR3", 3),
    ("XOR2", 2),
    ("INV1", 1),
    ("BUF1", 1),
    ("MUX2", 3),
]


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of one synthetic circuit."""

    name: str
    n_gates: int
    n_flops: int
    n_inputs: int
    n_outputs: int
    n_diff_pairs: int = 2
    diff_fanout: int = 3
    clock_pitch: int = 2
    locality: int = 12
    hub_fraction: float = 0.10
    hub_fanout: int = 5
    n_stages: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_gates < 4 or self.n_inputs < 1 or self.n_outputs < 1:
            raise ConfigError(f"circuit spec {self.name}: too small")
        if self.locality < 2:
            raise ConfigError("locality must be >= 2")


@dataclass(frozen=True)
class DatasetSpec:
    """A circuit plus a placement style and constraint recipe — one row of
    the paper's Table 1 (e.g. ``C1P1``)."""

    name: str
    circuit: CircuitSpec
    feed_style: FeedStyle = FeedStyle.EVEN
    feed_fraction: float = 0.06
    n_rows: Optional[int] = None
    aspect: float = 2.0
    n_constraints: int = 12
    constraint_factor: float = 1.22
    anneal_placement: bool = False
    anneal_moves: int = 20_000


@dataclass
class Dataset:
    """A fully materialized dataset, ready to route."""

    spec: DatasetSpec
    circuit: Circuit
    placement: Placement
    constraints: List[PathConstraint]

    @property
    def name(self) -> str:
        return self.spec.name

    def stats(self) -> Dict[str, int]:
        """The Table 1 numbers for this dataset."""
        return {
            "cells": len(self.circuit.cells),
            "nets": len(self.circuit.routable_nets),
            "constraints": len(self.constraints),
        }


# ----------------------------------------------------------------------
# Circuit generation
# ----------------------------------------------------------------------
def generate_circuit(spec: CircuitSpec) -> Circuit:
    """Build the synthetic netlist for ``spec`` (deterministic)."""
    rng = random.Random(spec.seed)
    library = standard_ecl_library()
    circuit = Circuit(spec.name, library)
    builder = _Builder(circuit, rng, spec)
    builder.build()
    return circuit


class _Builder:
    """Stateful netlist builder (one use per circuit)."""

    def __init__(self, circuit: Circuit, rng: random.Random, spec: CircuitSpec):
        self.circuit = circuit
        self.rng = rng
        self.spec = spec
        self.pool: List[Net] = []      # current-stage driver nets, age order
        self.hubs: List[Net] = []      # high-fanout control-style nets
        self.all_signals: List[Net] = []  # every created signal net
        self.used: Dict[str, bool] = {}
        self.net_counter = 0
        self.cell_counter = 0
        self.flop_cells: List = []

    # ------------------------------------------------------------------
    def build(self) -> None:
        self._make_inputs()
        self._make_logic()
        self._make_clock()
        self._make_diff_pairs()
        self._make_outputs()
        self._consume_leftovers()

    # ------------------------------------------------------------------
    def _new_net(self, prefix: str, width: int = 1) -> Net:
        net = self.circuit.add_net(
            f"{prefix}{self.net_counter}", width_pitches=width
        )
        self.net_counter += 1
        return net

    def _new_cell(self, type_name: str):
        cell = self.circuit.add_cell(f"u{self.cell_counter}", type_name)
        self.cell_counter += 1
        return cell

    def _push(self, net: Net) -> None:
        self.pool.append(net)
        self.all_signals.append(net)
        self.used[net.name] = False

    def _draw_signal(self) -> Net:
        """A random signal from the locality window.

        A fraction of draws instead reuses a designated *hub* signal
        (select/enable-style nets with fanout well above average), giving
        the router the multi-terminal trees whose topology it can trade
        between length and congestion.
        """
        if self.hubs and self.rng.random() < self.spec.hub_fraction:
            hub = self.rng.choice(self.hubs)
            if hub.fanout < self.spec.hub_fanout:
                self.used[hub.name] = True
                return hub
        window = self.pool[-self.spec.locality :]
        net = self.rng.choice(window)
        self.used[net.name] = True
        if (
            len(self.hubs) < max(1, self.spec.n_gates // 20)
            and self.rng.random() < 0.25
        ):
            self.hubs.append(net)
        return net

    # ------------------------------------------------------------------
    def _make_inputs(self) -> None:
        for i in range(self.spec.n_inputs):
            side = PinSide.BOTTOM if i % 2 == 0 else PinSide.TOP
            pin = self.circuit.add_external_pin(
                f"in{i}", TerminalDirection.INPUT, side=side
            )
            net = self._new_net("ni")
            net.attach(pin)
            self._push(net)

    def _make_logic(self) -> None:
        """Pipeline-staged random logic.

        Each stage's gates draw only from that stage's pool (stage seeds
        plus stage outputs), and a bank of flip-flops closes the stage;
        their Q nets seed the next one.  Staging bounds combinational
        depth, so path delays land in the few-hundred-picosecond range of
        the paper's Gbit/s chips instead of growing with circuit size.
        """
        spec = self.spec
        n_stages = spec.n_stages or max(
            1, round(spec.n_gates / (2.5 * spec.locality))
        )
        gates_left = spec.n_gates
        flops_left = spec.n_flops
        for stage in range(n_stages):
            remaining = n_stages - stage
            gates = gates_left // remaining
            flops = flops_left // remaining
            gates_left -= gates
            flops_left -= flops
            for _ in range(gates):
                self._make_gate()
            seeds: List[Net] = []
            for _ in range(flops):
                seeds.append(self._make_flop())
            if seeds and stage < n_stages - 1:
                self.pool = list(seeds)

    def _make_gate(self) -> None:
        type_name, _ = self.rng.choice(_GATE_MENU)
        cell = self._new_cell(type_name)
        for term in cell.terminals:
            if term.is_input:
                self._draw_signal().attach(term)
        out = next(t for t in cell.terminals if t.is_output)
        net = self._new_net("n")
        net.attach(out)
        self._push(net)

    def _make_flop(self) -> Net:
        flop = self._new_cell("DFF")
        self._draw_signal().attach(flop.terminal("D"))
        q_net = self._new_net("q")
        q_net.attach(flop.terminal("Q"))
        self._push(q_net)
        self.flop_cells.append(flop)
        return q_net

    def _make_clock(self) -> None:
        clk_pin = self.circuit.add_external_pin(
            "clk", TerminalDirection.INPUT, side=PinSide.BOTTOM
        )
        buf = self._new_cell("CLKBUF")
        clk_in = self._new_net("clkin")
        clk_in.attach(clk_pin)
        clk_in.attach(buf.terminal("I0"))
        clock = self.circuit.add_net(
            "clk", width_pitches=self.spec.clock_pitch
        )
        clock.attach(next(t for t in buf.terminals if t.is_output))
        for flop in self.flop_cells:
            clock.attach(flop.terminal("CLK"))

    def _make_diff_pairs(self) -> None:
        for p in range(self.spec.n_diff_pairs):
            driver = self._new_cell("DIFFBUF")
            self._draw_signal().attach(driver.terminal("I0"))
            net_p = self.circuit.add_net(f"diffp{p}")
            net_n = self.circuit.add_net(f"diffn{p}")
            net_p.attach(driver.terminal("OP"))
            net_n.attach(driver.terminal("ON"))
            for _ in range(self.spec.diff_fanout):
                sink = self._new_cell("NOR2")
                net_p.attach(sink.terminal("I0"))
                net_n.attach(sink.terminal("I1"))
                out_net = self._new_net("nd")
                out_net.attach(
                    next(t for t in sink.terminals if t.is_output)
                )
                self._push(out_net)
            self.circuit.make_differential_pair(net_p, net_n)

    def _make_outputs(self) -> None:
        for i in range(self.spec.n_outputs):
            side = PinSide.TOP if i % 2 == 0 else PinSide.BOTTOM
            pin = self.circuit.add_external_pin(
                f"out{i}", TerminalDirection.OUTPUT, side=side
            )
            net = self._draw_signal()
            net.attach(pin)

    def _consume_leftovers(self) -> None:
        """Give every sink-less net a consumer so validation passes.

        The consumers form a *balanced* NOR reduction tree (FIFO pairing),
        so this synthetic observability logic stays logarithmically
        shallow and never dominates the critical path.
        """
        leftovers = [
            net for net in self.all_signals if net.fanout == 0
        ]
        index = 0
        while len(leftovers) - index > 1:
            gate = self._new_cell("NOR2")
            leftovers[index].attach(gate.terminal("I0"))
            leftovers[index + 1].attach(gate.terminal("I1"))
            index += 2
            out_net = self._new_net("nx")
            out_net.attach(next(t for t in gate.terminals if t.is_output))
            leftovers.append(out_net)
        if len(leftovers) > index:
            pin = self.circuit.add_external_pin(
                "drain", TerminalDirection.OUTPUT, side=PinSide.TOP
            )
            leftovers[index].attach(pin)


# ----------------------------------------------------------------------
# Constraint derivation
# ----------------------------------------------------------------------
def generate_constraints(
    circuit: Circuit,
    n_constraints: int,
    factor: float,
    placement: Optional[Placement] = None,
    technology: Optional[Technology] = None,
) -> List[PathConstraint]:
    """Derive path constraints from a pre-route timing estimate.

    For the ``n_constraints`` sinks with the largest estimated arrival
    times, the critical source is traced back and a constraint
    ``(source, sink, factor × estimated delay)`` is emitted — the
    reproduction's stand-in for the paper's designer interviews.  When a
    placement is supplied the estimate uses HPWL wire loads (so the
    budgets are tight but achievable by a good routing); otherwise it
    falls back to zero-interconnect delays.
    """
    if factor <= 1.0:
        raise ConfigError("constraint_factor must be > 1.0 to be satisfiable")
    gd = GlobalDelayGraph.of(circuit)
    if placement is not None:
        from ..baselines.congestion import estimate_channel_tracks
        from ..baselines.lower_bound import hpwl_caps

        caps = hpwl_caps(
            circuit,
            placement,
            technology or Technology(),
            channel_tracks=estimate_channel_tracks(circuit, placement),
        )
    else:
        caps = WireCaps.zero()
    lp = [NEG_INF] * len(gd.vertices)
    parent = [-1] * len(gd.vertices)
    for vertex in gd.sources():
        lp[vertex.index] = vertex.source_offset_ps
    for v in gd.topological_order():
        if lp[v] == NEG_INF:
            continue
        for arc_id in gd.out_arcs[v]:
            arc = gd.arcs[arc_id]
            candidate = (
                lp[v]
                + arc.const_ps
                + caps.get(arc.net) * arc.td_ps_per_pf
            )
            if candidate > lp[arc.head]:
                lp[arc.head] = candidate
                parent[arc.head] = arc_id

    sinks = [
        v for v in gd.sinks() if lp[v.index] > NEG_INF and lp[v.index] > 0.0
    ]
    sinks.sort(key=lambda v: -lp[v.index])
    constraints: List[PathConstraint] = []
    for rank, sink in enumerate(sinks[:n_constraints]):
        vertex = sink.index
        while parent[vertex] != -1:
            vertex = gd.arcs[parent[vertex]].tail
        constraints.append(
            PathConstraint(
                name=f"P{rank}",
                sources=frozenset([vertex]),
                sinks=frozenset([sink.index]),
                limit_ps=factor * lp[sink.index],
            )
        )
    return constraints


# ----------------------------------------------------------------------
# Datasets and suites
# ----------------------------------------------------------------------
def make_dataset(
    spec: DatasetSpec, technology: Technology = Technology()
) -> Dataset:
    """Materialize one dataset: netlist, placement, constraints."""
    circuit = generate_circuit(spec.circuit)
    placement = place_circuit(
        circuit,
        PlacerConfig(
            n_rows=spec.n_rows,
            feed_fraction=spec.feed_fraction,
            feed_style=spec.feed_style,
            aspect=spec.aspect,
        ),
        technology,
    )
    if spec.anneal_placement:
        from ..layout.anneal import AnnealConfig, anneal_placement

        anneal_placement(
            circuit,
            placement,
            AnnealConfig(
                seed=spec.circuit.seed, max_moves=spec.anneal_moves
            ),
            technology,
        )
    assign_external_pins(circuit, placement)
    constraints = generate_constraints(
        circuit,
        spec.n_constraints,
        spec.constraint_factor,
        placement=placement,
        technology=technology,
    )
    return Dataset(spec, circuit, placement, constraints)


def standard_suite() -> List[DatasetSpec]:
    """The Table 1 line-up: C1P1, C1P2, C2P1, C2P2, C3P1."""
    c1 = CircuitSpec(
        "C1", n_gates=150, n_flops=20, n_inputs=10, n_outputs=8,
        n_diff_pairs=2, seed=12,
    )
    c2 = CircuitSpec(
        "C2", n_gates=260, n_flops=32, n_inputs=14, n_outputs=10,
        n_diff_pairs=3, seed=23,
    )
    c3 = CircuitSpec(
        "C3", n_gates=400, n_flops=48, n_inputs=18, n_outputs=12,
        n_diff_pairs=4, seed=33,
    )
    return [
        DatasetSpec("C1P1", c1, FeedStyle.EVEN, n_constraints=10),
        DatasetSpec("C1P2", c1, FeedStyle.ASIDE, n_constraints=10),
        DatasetSpec("C2P1", c2, FeedStyle.EVEN, n_constraints=14),
        DatasetSpec("C2P2", c2, FeedStyle.ASIDE, n_constraints=14),
        DatasetSpec("C3P1", c3, FeedStyle.EVEN, n_constraints=18),
    ]


def scale_suite() -> List[DatasetSpec]:
    """The generated scale tier: 10x–100x the standard suite's net count.

    The paper's datasets top out at ~400 gates (C3); these are the same
    generator recipe scaled to the sizes where per-candidate Python is
    simply not routable in reasonable time — X1 (~10x C3) is the CI
    smoke design, X2 (~100x C3) is the headroom probe for the
    array-native hot path.  Locality widens with size so channel usage
    stays proportionate rather than degenerating to local wiring only.
    """
    x1 = CircuitSpec(
        "X1", n_gates=4_000, n_flops=480, n_inputs=40, n_outputs=24,
        n_diff_pairs=8, locality=16, seed=41,
    )
    x2 = CircuitSpec(
        "X2", n_gates=40_000, n_flops=4_800, n_inputs=120, n_outputs=64,
        n_diff_pairs=16, locality=24, seed=43,
    )
    return [
        DatasetSpec("X1P1", x1, FeedStyle.EVEN, n_constraints=40),
        DatasetSpec("X2P1", x2, FeedStyle.EVEN, n_constraints=80),
    ]


def congestion_suite() -> List[DatasetSpec]:
    """Congestion-adversarial line-up: CGP1.

    Built to stress channel capacity rather than timing: wide locality
    windows and a heavy population of high-fanout hub nets funnel many
    trees through the same few channels, and a low feed fraction keeps
    vertical escape routes scarce.  On this shape the edge-deletion
    engine's one-shot greedy deletions lock in early congestion
    mistakes, while the negotiated engine's iterative rip-up converges
    to measurably fewer timing violations at comparable area — the
    committed evidence that negotiation pays off under congestion (the
    CGP1 rows of ``benchmarks/golden/flow.json``, held to at least one
    violation fewer and area within 5% by
    ``tests/test_negotiated_golden.py::test_negotiated_quality_bars``).
    """
    cg = CircuitSpec(
        "CG1", n_gates=160, n_flops=20, n_inputs=10, n_outputs=8,
        n_diff_pairs=2, locality=24, hub_fraction=0.2, hub_fanout=8,
        seed=55,
    )
    return [
        DatasetSpec(
            "CGP1", cg, FeedStyle.EVEN, feed_fraction=0.04,
            n_rows=8, n_constraints=12, constraint_factor=1.15,
        ),
    ]


def small_suite() -> List[DatasetSpec]:
    """A fast miniature line-up for tests and pytest-benchmark."""
    c1 = CircuitSpec(
        "S1", n_gates=48, n_flops=8, n_inputs=6, n_outputs=4,
        n_diff_pairs=1, seed=7,
    )
    c2 = CircuitSpec(
        "S2", n_gates=80, n_flops=12, n_inputs=8, n_outputs=6,
        n_diff_pairs=1, seed=9,
    )
    return [
        DatasetSpec("S1P1", c1, FeedStyle.EVEN, n_constraints=6),
        DatasetSpec("S1P2", c1, FeedStyle.ASIDE, n_constraints=6),
        DatasetSpec("S2P1", c2, FeedStyle.EVEN, n_constraints=8),
    ]
