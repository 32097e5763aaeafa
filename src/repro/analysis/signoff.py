"""Post-channel-routing sign-off.

The paper's Table 2 reports, per dataset and routing mode:

* **Delay** — the chip critical-path delay computed "from routing lengths
  after channel routing in the same delay model";
* **Area** — the final chip area (core width × height with real channel
  track counts);
* **Length** — total wire length;
* **CPU** — router runtime.

:func:`sign_off` assembles all four from a global routing result and its
channel routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..channelrouter.leftedge import ChannelRoutingResult
from ..core.result import GlobalRoutingResult
from ..layout.floorplan import Floorplan
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..tech import Technology
from ..timing.constraint import ConstraintGraph, PathConstraint
from ..timing.delay_graph import GlobalDelayGraph
from ..timing.delay_model import CapacitanceDelayModel
from ..timing.sta import StaticTimingAnalyzer, WireCaps


@dataclass
class SignoffReport:
    """Final numbers for one routed chip."""

    circuit_name: str
    critical_delay_ps: float
    area_mm2: float
    total_length_mm: float
    cpu_seconds: float
    constraint_margins: Dict[str, float]
    floorplan: Floorplan
    wire_caps: WireCaps
    net_length_um: Dict[str, float]

    @property
    def violations(self) -> List[str]:
        return [
            name
            for name, margin in self.constraint_margins.items()
            if margin < 0.0
        ]


def sign_off(
    circuit: Circuit,
    placement: Placement,
    global_result: GlobalRoutingResult,
    channel_result: ChannelRoutingResult,
    constraints: Sequence[PathConstraint] = (),
    technology: Technology = Technology(),
    width_cap_exponent: float = 1.0,
    gd: Optional[GlobalDelayGraph] = None,
) -> SignoffReport:
    """Compute final delay/area/length from the two routing stages.

    ``gd`` is the router's ``G_D`` (its pad and setup values); without
    it the circuit's default graph is read
    (:meth:`~repro.timing.delay_graph.GlobalDelayGraph.of`)."""
    model = CapacitanceDelayModel(technology, width_cap_exponent)
    net_length: Dict[str, float] = {}
    caps = WireCaps()
    total_um = 0.0
    for name, route in global_result.routes.items():
        length = route.total_length_um + channel_result.net_vertical_um.get(
            name, 0.0
        )
        net_length[name] = length
        total_um += length
        caps.set(
            circuit.net(name),
            model.wire_cap_pf(length, route.width_pitches),
        )

    if gd is None:
        gd = GlobalDelayGraph.of(circuit)
    constraint_graphs = [
        ConstraintGraph.of(gd, constraint) for constraint in constraints
    ]
    analyzer = StaticTimingAnalyzer(gd, constraint_graphs)
    margins = {
        name: timing.margin_ps
        for name, timing in analyzer.analyze_all(caps).items()
    }
    floorplan = channel_result.floorplan(placement, technology)
    return SignoffReport(
        circuit_name=circuit.name,
        critical_delay_ps=analyzer.graph_critical_delay(caps),
        area_mm2=floorplan.area_mm2,
        total_length_mm=total_um / 1000.0,
        cpu_seconds=global_result.cpu_seconds,
        constraint_margins=margins,
        floorplan=floorplan,
        wire_caps=caps,
        net_length_um=net_length,
    )

