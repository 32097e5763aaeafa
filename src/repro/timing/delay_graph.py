"""The global delay graph ``G_D`` (Section 2.1, Fig. 1).

Because most cells have a single output, the paper analyses critical paths
on a *simplified* graph whose vertices are cell output terminals (plus the
chip's external pins and flip-flop data/clock inputs as path endpoints).
An arc runs from the driver of a net to each vertex the net's sinks lead
into, and carries the Eq. (1) delay split into

* a *constant* part — intrinsic delay ``T0`` of the receiving cell plus the
  fan-in load term ``(Σ Fin) · Tf`` of the driving output, and
* a *wiring* part — ``CL(n) · Td`` where ``CL(n)`` is supplied later by the
  router's length estimate.

Keeping the wiring part symbolic is what lets the router re-evaluate path
delays cheaply every time a net's tentative tree changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..errors import TimingError
from ..netlist.circuit import Circuit, ExternalPin, Net, Terminal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .constraint import ConstraintGraph, PathConstraint


class VertexKind(enum.Enum):
    """Role of a vertex in ``G_D``."""

    SOURCE = "source"      # external input pin or flip-flop output
    GATE = "gate"          # combinational cell output
    SINK = "sink"          # flip-flop D/CLK input or external output pin


@dataclass(frozen=True)
class DelayVertex:
    """A vertex of ``G_D``.

    ``ref`` is the underlying netlist object (a :class:`Terminal` or an
    :class:`ExternalPin`).  ``source_offset_ps`` is a fixed launch delay
    charged at path sources (the flip-flop's CLK→Q intrinsic delay), which
    routing cannot change but which belongs in the reported path delay.
    """

    index: int
    kind: VertexKind
    ref: Union[Terminal, ExternalPin]
    source_offset_ps: float = 0.0

    @property
    def name(self) -> str:
        return self.ref.full_name


@dataclass(frozen=True)
class DelayArc:
    """An arc of ``G_D``: ``delay = const_ps + CL(net) · td_ps_per_pf``.

    ``sink_pin`` is the net pin the signal enters through (an input
    terminal or external output pin).  The capacitance model ignores it —
    every sink of a net sees the same lumped ``CL·Td`` — but the Elmore
    extension (:mod:`repro.analysis.rc_signoff`) charges each sink its own
    tree delay.
    """

    index: int
    tail: int
    head: int
    net: Net
    const_ps: float
    td_ps_per_pf: float
    sink_pin: Union[Terminal, ExternalPin, None] = None

    def delay_ps(self, wire_cap_pf: float) -> float:
        """Arc delay for a given wiring capacitance of ``net``."""
        return self.const_ps + wire_cap_pf * self.td_ps_per_pf


@dataclass
class _DriverParams:
    """Tf/Td of whatever drives a net (cell output or pad driver)."""

    tf_ps_per_pf: float
    td_ps_per_pf: float


class GlobalDelayGraph:
    """``G_D`` plus indexing structures shared by all constraint graphs."""

    def __init__(self) -> None:
        self.vertices: List[DelayVertex] = []
        self.arcs: List[DelayArc] = []
        self.out_arcs: List[List[int]] = []
        self.in_arcs: List[List[int]] = []
        self._vertex_by_key: Dict[Tuple[str, ...], int] = {}
        self.net_index: Dict[str, int] = {}
        self.nets: List[Net] = []
        self._topo: Optional[Tuple[int, ...]] = None
        #: ``G_d(P)`` per constraint, kept by
        #: :meth:`~repro.timing.constraint.ConstraintGraph.of`.
        self.constraint_graphs: Dict[
            "PathConstraint", "ConstraintGraph"
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of(
        cls,
        circuit: Circuit,
        pad_tf_ps_per_pf: float = 40.0,
        pad_td_ps_per_pf: float = 100.0,
        ff_setup_ps: float = 0.0,
    ) -> "GlobalDelayGraph":
        """The circuit's ``G_D`` for these pad and setup values.

        ``G_D`` depends on the netlist alone, so one graph per circuit
        and parameter set serves every reader — constraint generation,
        the lower bound, the router, sign-off and the reports.  It is
        built on the first read and kept until a netlist edit advances
        the circuit's revision (:meth:`Circuit.derived`); a graph is
        never edited by its readers.  :meth:`build` is the uncached
        constructor.
        """
        key = (cls, pad_tf_ps_per_pf, pad_td_ps_per_pf, ff_setup_ps)
        return circuit.derived(
            key,
            lambda: cls.build(
                circuit, pad_tf_ps_per_pf, pad_td_ps_per_pf, ff_setup_ps
            ),
        )

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        pad_tf_ps_per_pf: float = 40.0,
        pad_td_ps_per_pf: float = 100.0,
        ff_setup_ps: float = 0.0,
    ) -> "GlobalDelayGraph":
        """Construct ``G_D`` from a circuit.

        Args:
            circuit: the netlist.
            pad_tf_ps_per_pf / pad_td_ps_per_pf: drive parameters assumed
                for external input pads (the netlist does not model pad
                cells explicitly).
            ff_setup_ps: setup time added on arcs into flip-flop D inputs.
        """
        graph = cls()

        # --- vertices -------------------------------------------------
        for pin in circuit.external_pins:
            if pin.is_input:
                graph._add_vertex(VertexKind.SOURCE, pin)
            else:
                graph._add_vertex(VertexKind.SINK, pin)
        for cell in circuit.cells:
            if cell.is_sequential:
                for term in cell.terminals:
                    if term.is_output:
                        offset = _launch_offset(cell, term)
                        graph._add_vertex(
                            VertexKind.SOURCE, term, source_offset_ps=offset
                        )
                    else:
                        graph._add_vertex(VertexKind.SINK, term)
            else:
                for term in cell.terminals:
                    if term.is_output:
                        graph._add_vertex(VertexKind.GATE, term)

        # --- arcs -----------------------------------------------------
        for net in circuit.nets:
            if len(net.pins) < 2:
                continue
            source = net.source
            driver = graph._driver_params(
                source, pad_tf_ps_per_pf, pad_td_ps_per_pf
            )
            tail = graph.vertex_index_of(source)
            if tail is None:
                continue
            fanin_term_ps = net.total_sink_fanin_pf * driver.tf_ps_per_pf
            graph._register_net(net)
            for sink in net.sinks:
                graph._add_net_arcs(
                    net, tail, sink, fanin_term_ps,
                    driver.td_ps_per_pf, ff_setup_ps,
                )
        # Sorted once, here, which also fails fast on combinational
        # cycles; every analysis of this graph reads the kept order.
        graph.topological_order()
        return graph

    def _add_vertex(
        self,
        kind: VertexKind,
        ref: Union[Terminal, ExternalPin],
        source_offset_ps: float = 0.0,
    ) -> int:
        key = _vertex_key(ref)
        if key in self._vertex_by_key:
            raise TimingError(f"duplicate delay vertex for {ref!r}")
        index = len(self.vertices)
        self.vertices.append(
            DelayVertex(index, kind, ref, source_offset_ps)
        )
        self.out_arcs.append([])
        self.in_arcs.append([])
        self._vertex_by_key[key] = index
        return index

    def _register_net(self, net: Net) -> None:
        if net.name not in self.net_index:
            self.net_index[net.name] = len(self.nets)
            self.nets.append(net)

    def _driver_params(
        self,
        source: Union[Terminal, ExternalPin],
        pad_tf: float,
        pad_td: float,
    ) -> _DriverParams:
        if isinstance(source, Terminal):
            ctype = source.cell.ctype
            return _DriverParams(
                ctype.fanin_factor(source.name),
                ctype.unit_cap_delay(source.name),
            )
        return _DriverParams(pad_tf, pad_td)

    def _add_net_arcs(
        self,
        net: Net,
        tail: int,
        sink: Union[Terminal, ExternalPin],
        fanin_term_ps: float,
        td: float,
        ff_setup_ps: float,
    ) -> None:
        if isinstance(sink, ExternalPin):
            head = self.vertex_index_of(sink)
            if head is not None:
                self._add_arc(tail, head, net, fanin_term_ps, td, sink)
            return
        cell = sink.cell
        if cell.is_sequential:
            head = self.vertex_index_of(sink)
            if head is not None:
                setup = ff_setup_ps if sink.name != "CLK" else 0.0
                self._add_arc(
                    tail, head, net, fanin_term_ps + setup, td, sink
                )
            return
        for out_def in cell.ctype.outputs():
            if not cell.ctype.has_arc(sink.name, out_def.name):
                continue
            head = self.vertex_index_of(cell.terminal(out_def.name))
            if head is None:
                continue
            t0 = cell.ctype.intrinsic_delay(sink.name, out_def.name)
            self._add_arc(
                tail, head, net, fanin_term_ps + t0, td, sink
            )

    def _add_arc(
        self,
        tail: int,
        head: int,
        net: Net,
        const_ps: float,
        td: float,
        sink_pin: Union[Terminal, ExternalPin, None] = None,
    ) -> None:
        arc = DelayArc(
            len(self.arcs), tail, head, net, const_ps, td, sink_pin
        )
        self.arcs.append(arc)
        self.out_arcs[tail].append(arc.index)
        self.in_arcs[head].append(arc.index)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def vertex_index_of(
        self, ref: Union[Terminal, ExternalPin]
    ) -> Optional[int]:
        """Vertex index for a netlist object, or ``None`` if it has no
        vertex (e.g. a combinational input terminal)."""
        return self._vertex_by_key.get(_vertex_key(ref))

    def vertex_of(self, ref: Union[Terminal, ExternalPin]) -> DelayVertex:
        """Vertex for ``ref``; raises :class:`TimingError` if absent."""
        index = self.vertex_index_of(ref)
        if index is None:
            raise TimingError(f"{ref!r} has no delay-graph vertex")
        return self.vertices[index]

    def sources(self) -> List[DelayVertex]:
        return [v for v in self.vertices if v.kind is VertexKind.SOURCE]

    def sinks(self) -> List[DelayVertex]:
        return [v for v in self.vertices if v.kind is VertexKind.SINK]

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def topological_order(self) -> Tuple[int, ...]:
        """Kahn topological order; raises on a combinational cycle.

        ``G_D`` does not change once built, so the order is sorted on
        the first call (:meth:`build` makes it) and kept; it is a tuple,
        so no reader can reorder it for the others.  The STA, every
        constraint-graph build, the RC sign-off and constraint
        generation all read this one order.
        """
        if self._topo is None:
            self._topo = tuple(self._kahn_order())
        return self._topo

    def _kahn_order(self) -> List[int]:
        indegree = [len(self.in_arcs[v.index]) for v in self.vertices]
        frontier = [i for i, d in enumerate(indegree) if d == 0]
        order: List[int] = []
        while frontier:
            v = frontier.pop()
            order.append(v)
            for arc_id in self.out_arcs[v]:
                head = self.arcs[arc_id].head
                indegree[head] -= 1
                if indegree[head] == 0:
                    frontier.append(head)
        if len(order) != len(self.vertices):
            raise TimingError("global delay graph contains a cycle")
        return order

    def __repr__(self) -> str:
        return (
            f"GlobalDelayGraph({len(self.vertices)} vertices, "
            f"{len(self.arcs)} arcs)"
        )


def _vertex_key(ref: Union[Terminal, ExternalPin]) -> Tuple[str, ...]:
    if isinstance(ref, Terminal):
        return ("term", ref.cell.name, ref.name)
    return ("pin", ref.name)


def _launch_offset(cell, out_term: Terminal) -> float:
    """CLK→Q intrinsic delay used as the launch offset of an FF output."""
    offsets = [
        t0
        for (ti, to), t0 in cell.ctype.intrinsic_ps.items()
        if to == out_term.name
    ]
    return min(offsets) if offsets else 0.0
