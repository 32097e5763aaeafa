"""Global-routing results: per-net wiring plus the data downstream stages
(channel routing, sign-off timing, reporting) consume."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..geometry import Interval
from ..layout.floorplan import Floorplan
from ..routegraph.graph import EdgeKind, RouteEdge
from ..timing.delay_model import WireSegment
from ..timing.sta import WireCaps


class AttachSide(enum.Enum):
    """Which channel boundary a vertical attachment enters from."""

    BOTTOM = "bottom"
    TOP = "top"


@dataclass(frozen=True)
class ChannelAttachment:
    """A point where a net enters a channel: a terminal stub, external
    pin, or feedthrough end."""

    channel: int
    column: int
    side: AttachSide


@dataclass(frozen=True)
class RoutedEdge:
    """An immutable snapshot of one final-wiring edge."""

    kind: EdgeKind
    channel: int
    interval: Interval
    length_um: float


@dataclass
class NetRoute:
    """Final global route of one net.

    ``elmore_segments`` encode the routed tree as driver-rooted wire
    segments (the :class:`~repro.timing.delay_model.ElmoreDelayModel`
    input); ``sink_pin_names[i]`` names the net pin hanging at the
    segment whose ``sink_index == i``.
    """

    net_name: str
    width_pitches: int
    edges: List[RoutedEdge]
    attachments: List[ChannelAttachment]
    total_length_um: float
    wire_cap_pf: float
    elmore_segments: List[WireSegment] = field(default_factory=list)
    sink_pin_names: List[str] = field(default_factory=list)

    def trunk_intervals(self) -> Dict[int, List[Interval]]:
        """Per channel, the net's merged horizontal spans."""
        by_channel: Dict[int, List[Interval]] = {}
        for edge in self.edges:
            if edge.kind is EdgeKind.TRUNK:
                by_channel.setdefault(edge.channel, []).append(edge.interval)
        return {
            channel: merge_intervals(spans)
            for channel, spans in by_channel.items()
        }


def merge_intervals(spans: List[Interval]) -> List[Interval]:
    """Merge overlapping / endpoint-sharing intervals into maximal runs.

    Trunk intervals are continuous vertex-coordinate spans: two trunks
    of one net abut only when they share an endpoint vertex (``[3,19]``
    + ``[19,24]`` → ``[3,24]``).  ``[3,19]`` and ``[20,24]`` are two
    physically separate wires with a gap over column 19 — the
    gap-of-one "adjacency" that :meth:`Interval.touches_or_overlaps`
    merges (slot-run semantics) must NOT be bridged here, or the
    channel router lays extra wire and the verifier's recomputed
    density over-counts columns no trunk covers.
    """
    merged: List[Interval] = []
    for span in sorted(spans):
        if merged and merged[-1].hi >= span.lo:
            merged[-1] = merged[-1].union_hull(span)
        else:
            merged.append(span)
    return merged


@dataclass
class GlobalRoutingResult:
    """Everything the global router produced."""

    circuit_name: str
    routes: Dict[str, NetRoute]
    wire_caps: WireCaps
    constraint_margins: Dict[str, float]
    critical_delay_ps: float
    channel_peak_density: Dict[int, int]
    estimated_floorplan: Floorplan
    total_length_um: float
    cpu_seconds: float
    deletions: int
    reroutes: int
    feed_cells_inserted: int = 0
    chip_widened_columns: int = 0

    @property
    def total_length_mm(self) -> float:
        return self.total_length_um / 1000.0

    @property
    def violations(self) -> List[str]:
        """Names of constraints still violated."""
        return [
            name
            for name, margin in self.constraint_margins.items()
            if margin < 0.0
        ]

    @property
    def worst_margin_ps(self) -> float:
        if not self.constraint_margins:
            return float("inf")
        return min(self.constraint_margins.values())

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"circuit {self.circuit_name}:",
            f"  critical delay  {self.critical_delay_ps:9.1f} ps",
            f"  est. area       {self.estimated_floorplan.area_mm2:9.4f} mm^2",
            f"  wire length     {self.total_length_mm:9.3f} mm",
            f"  cpu             {self.cpu_seconds:9.2f} s",
            f"  deletions       {self.deletions:9d}",
            f"  reroutes        {self.reroutes:9d}",
        ]
        if self.constraint_margins:
            lines.append(
                f"  worst margin    {self.worst_margin_ps:9.1f} ps "
                f"({len(self.violations)} violations)"
            )
        return "\n".join(lines)
