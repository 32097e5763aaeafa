"""RC (Elmore) sign-off — the paper's delay-model extension.

Section 2.1 notes that "the extension to the RC delay model does not have
any detrimental influence on the proposed algorithm": the routing flow and
criteria stay unchanged; only the function that turns a routed tree into
sink delays differs.  This module realizes the extension at sign-off:

* every routed net's final tree (recorded per net as driver-rooted
  :class:`~repro.timing.delay_model.WireSegment` lists) is evaluated with
  the first-order Elmore model, giving a *per-sink* wire delay instead of
  the lumped ``CL·Td`` term;
* a longest-path analysis over ``G_D`` then uses, for each arc, the wire
  delay of the specific sink pin the arc enters through.

Because Elmore distinguishes near from far sinks, RC sign-off typically
tightens near-sink paths and is the reference for multi-pitch trade-offs
(wider wire = less resistance but more capacitance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.result import GlobalRoutingResult
from ..errors import TimingError
from ..netlist.circuit import Circuit, Terminal
from ..timing.constraint import ConstraintGraph, PathConstraint
from ..timing.delay_graph import DelayArc, GlobalDelayGraph
from ..timing.delay_model import ElmoreDelayModel
from ..timing.sta import NEG_INF


class ElmoreWireDelays:
    """Per-(net, sink-pin) wire delays, the RC analogue of WireCaps."""

    def __init__(self, delays: Dict[Tuple[str, str], float]):
        self._delays = dict(delays)

    def arc_wire_delay_ps(self, arc: DelayArc) -> float:
        """Wire delay charged on one ``G_D`` arc."""
        if arc.sink_pin is None:
            return 0.0
        return self._delays.get(
            (arc.net.name, arc.sink_pin.full_name), 0.0
        )

    def of(self, net_name: str, pin_name: str) -> float:
        return self._delays.get((net_name, pin_name), 0.0)

    def __len__(self) -> int:
        return len(self._delays)


def compute_elmore_wire_delays(
    circuit: Circuit,
    result: GlobalRoutingResult,
    model: ElmoreDelayModel,
    extra_length_um: Optional[Mapping[str, float]] = None,
) -> ElmoreWireDelays:
    """Evaluate every routed tree with the Elmore model.

    Args:
        circuit: the netlist (for sink pin capacitances).
        result: the global routing result carrying per-net tree segments.
        model: the RC model (resistance/capacitance coefficients).
        extra_length_um: optional per-net extra wire (e.g. the channel
            router's vertical stubs), charged as an extension of the root
            segment so its RC is not lost.
    """
    delays: Dict[Tuple[str, str], float] = {}
    for net_name, route in result.routes.items():
        if not route.elmore_segments:
            continue
        net = circuit.net(net_name)
        sink_caps = _sink_caps_by_index(net, route.sink_pin_names)
        segments = list(route.elmore_segments)
        extra = (extra_length_um or {}).get(net_name, 0.0)
        if extra > 0.0:
            segments = _extend_root(segments, extra, route.width_pitches)
        per_sink = model.elmore_delays_ps(segments, sink_caps)
        for index, pin_name in enumerate(route.sink_pin_names):
            delays[(net_name, pin_name)] = per_sink.get(index, 0.0)
    return ElmoreWireDelays(delays)


def _sink_caps_by_index(
    net, sink_pin_names: Sequence[str]
) -> Dict[int, float]:
    by_name = {}
    for pin in net.sinks:
        by_name[pin.full_name] = pin.fanin_pf
    return {
        index: by_name.get(name, 0.0)
        for index, name in enumerate(sink_pin_names)
    }


def _extend_root(segments, extra_um: float, width: int):
    """Prepend an extra wire length upstream of the whole tree."""
    from ..timing.delay_model import WireSegment

    shifted = [
        WireSegment(
            parent=seg.parent + 1 if seg.parent >= 0 else 0,
            length_um=seg.length_um,
            width_pitches=seg.width_pitches,
            sink_index=seg.sink_index,
        )
        for seg in segments
    ]
    return [
        WireSegment(parent=-1, length_um=extra_um, width_pitches=width)
    ] + shifted


@dataclass
class RcSignoffReport:
    """RC-mode timing numbers for a routed chip."""

    circuit_name: str
    critical_delay_ps: float
    constraint_margins: Dict[str, float]
    wire_delays: ElmoreWireDelays

    @property
    def violations(self) -> List[str]:
        return [
            name
            for name, margin in self.constraint_margins.items()
            if margin < 0.0
        ]


def rc_sign_off(
    circuit: Circuit,
    result: GlobalRoutingResult,
    constraints: Sequence[PathConstraint] = (),
    model: Optional[ElmoreDelayModel] = None,
    extra_length_um: Optional[Mapping[str, float]] = None,
) -> RcSignoffReport:
    """Full-chip RC timing of a routed result.

    Mirrors :func:`repro.analysis.signoff.sign_off` but replaces the
    lumped ``CL·Td`` wire term with per-sink Elmore delays.
    """
    if model is None:
        model = ElmoreDelayModel(technology=_default_technology())
    gd = GlobalDelayGraph.of(circuit)
    wire = compute_elmore_wire_delays(
        circuit, result, model, extra_length_um
    )

    lp = _forward_longest_rc(gd, wire)
    worst = max(
        (lp[v.index] for v in gd.sinks() if lp[v.index] > NEG_INF),
        default=0.0,
    )

    margins: Dict[str, float] = {}
    for constraint in constraints:
        cg = ConstraintGraph.of(gd, constraint)
        cg_lp = _constraint_forward_rc(gd, cg, wire)
        path_worst = max(
            (
                cg_lp[pos]
                for pos in cg.sink_positions
                if cg_lp[pos] > NEG_INF
            ),
            default=NEG_INF,
        )
        if path_worst == NEG_INF:
            raise TimingError(
                f"constraint {constraint.name}: sinks unreachable"
            )
        margins[constraint.name] = constraint.limit_ps - path_worst

    return RcSignoffReport(
        circuit_name=circuit.name,
        critical_delay_ps=worst,
        constraint_margins=margins,
        wire_delays=wire,
    )


def _forward_longest_rc(
    gd: GlobalDelayGraph, wire: ElmoreWireDelays
) -> List[float]:
    lp = [NEG_INF] * len(gd.vertices)
    for vertex in gd.sources():
        lp[vertex.index] = vertex.source_offset_ps
    for v in gd.topological_order():
        if lp[v] == NEG_INF:
            continue
        base = lp[v]
        for arc_id in gd.out_arcs[v]:
            arc = gd.arcs[arc_id]
            candidate = base + arc.const_ps + wire.arc_wire_delay_ps(arc)
            if candidate > lp[arc.head]:
                lp[arc.head] = candidate
    return lp


def _constraint_forward_rc(gd, cg, wire) -> List[float]:
    lp = [NEG_INF] * len(cg.topo)
    for pos in cg.source_positions:
        vertex = gd.vertices[cg.topo[pos]]
        lp[pos] = max(lp[pos], vertex.source_offset_ps)
    for arc in cg.arcs:
        t = lp[cg.pos[arc.tail]]
        if t == NEG_INF:
            continue
        candidate = t + arc.const_ps + wire.arc_wire_delay_ps(arc)
        head_pos = cg.pos[arc.head]
        if candidate > lp[head_pos]:
            lp[head_pos] = candidate
    return lp


def _default_technology():
    from ..tech import Technology

    return Technology()
