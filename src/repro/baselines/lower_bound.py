"""The critical-path-delay lower bound of Table 3.

"The lower bounds could be obtained by assuming the wire length for each
net to be half the perimeter of the rectangle containing the net
terminals."  The rectangle lives on the physical chip, so its vertical
extent depends on the channel heights.  Two geometries are supported:

* ``channel_tracks=None`` — zero-track channels: the flattest legal chip,
  giving an unconditional lower bound (useful before routing);
* ``channel_tracks={...}`` — the routed chip's real channel heights, which
  is how Table 3 measures "difference from the lower bound": the bound
  then isolates *routing* excess (detours, displaced feedthroughs,
  in-channel verticals) from the unavoidable chip height.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..layout.floorplan import chip_height_um, row_base_y_um
from ..layout.placement import Placement
from ..netlist.circuit import Circuit, ExternalPin, Net, Terminal
from ..tech import Technology
from ..timing.delay_graph import GlobalDelayGraph
from ..timing.delay_model import CapacitanceDelayModel
from ..timing.sta import StaticTimingAnalyzer, WireCaps


def _pin_y_range_um(
    pin,
    placement: Placement,
    row_y: List[float],
    height: float,
    technology: Technology,
) -> Tuple[float, float]:
    """The ``(bottom, top)`` y positions a pin can connect at.

    A cell terminal is reachable from both row edges (the channels below
    and above its row); an external pad sits on one chip edge.  Using the
    *range* instead of a single point keeps the half-perimeter estimate a
    true lower bound: the minimal achievable vertical extent of the net's
    bounding rectangle is ``max(0, max(bottoms) − min(tops))``.
    """
    if isinstance(pin, Terminal):
        row = placement.terminal_row(pin)
        bottom = row_y[row]
        return bottom, bottom + technology.row_height_um
    channel = placement.pin_channel(pin)
    edge = 0.0 if channel == 0 else height
    return edge, edge


def _row_geometry(
    placement: Placement,
    technology: Technology,
    channel_tracks: Optional[Mapping[int, int]],
) -> Tuple[List[float], float]:
    """``(row base y, chip height)`` in µm under ``channel_tracks``."""
    tracks = dict(channel_tracks or {})
    return (
        row_base_y_um(placement, tracks, technology),
        chip_height_um(placement, tracks, technology),
    )


def hpwl_length_um(
    net: Net,
    placement: Placement,
    technology: Technology,
    channel_tracks: Optional[Mapping[int, int]] = None,
) -> float:
    """Half-perimeter wire length of one net in µm (see module docs)."""
    row_y, height = _row_geometry(placement, technology, channel_tracks)
    return _hpwl_um(net, placement, technology, row_y, height)


def _hpwl_um(
    net: Net,
    placement: Placement,
    technology: Technology,
    row_y: List[float],
    height: float,
) -> float:
    xs: List[float] = []
    bottoms: List[float] = []
    tops: List[float] = []
    for pin in net.pins:
        column, _ = placement.pin_position(pin)
        xs.append(technology.columns_to_um(column))
        lo, hi = _pin_y_range_um(pin, placement, row_y, height, technology)
        bottoms.append(lo)
        tops.append(hi)
    if not xs:
        return 0.0
    dy = max(0.0, max(bottoms) - min(tops))
    return (max(xs) - min(xs)) + dy


def hpwl_caps(
    circuit: Circuit,
    placement: Placement,
    technology: Technology = Technology(),
    width_cap_exponent: float = 1.0,
    channel_tracks: Optional[Mapping[int, int]] = None,
) -> WireCaps:
    """Per-net lower-bound wiring capacitances from HPWL lengths."""
    model = CapacitanceDelayModel(technology, width_cap_exponent)
    row_y, height = _row_geometry(placement, technology, channel_tracks)
    caps = WireCaps()
    for net in circuit.routable_nets:
        length = _hpwl_um(net, placement, technology, row_y, height)
        caps.set(net, model.wire_cap_pf(length, net.width_pitches))
    return caps


def critical_path_lower_bound_ps(
    circuit: Circuit,
    placement: Placement,
    technology: Technology = Technology(),
    width_cap_exponent: float = 1.0,
    channel_tracks: Optional[Mapping[int, int]] = None,
) -> float:
    """Chip critical-path delay under HPWL net lengths (Table 3's bound)."""
    analyzer = StaticTimingAnalyzer(GlobalDelayGraph.of(circuit))
    caps = hpwl_caps(
        circuit, placement, technology, width_cap_exponent, channel_tracks
    )
    return analyzer.graph_critical_delay(caps)
