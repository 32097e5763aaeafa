"""The full routing report — everything a user reads after a run.

Bundles the sign-off numbers, constraint status, wire statistics,
congestion picture, high-fanout skew, and (optionally) the critical-path
breakdowns into one text document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..channelrouter.leftedge import ChannelRoutingResult
from ..core.result import GlobalRoutingResult
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..tech import Technology
from ..timing.constraint import ConstraintGraph, PathConstraint
from ..timing.delay_graph import GlobalDelayGraph
from ..timing.sta import StaticTimingAnalyzer, WireCaps
from .signoff import SignoffReport
from .skew import clock_skew_table
from .timing_report import format_timing_reports
from .wirestats import wire_stats


@dataclass
class FullReport:
    """All sections of the routing report."""

    header: str
    signoff: SignoffReport
    sections: List[str]

    def format(self) -> str:
        return "\n\n".join([self.header] + self.sections)


def full_report(
    circuit: Circuit,
    placement: Placement,
    global_result: GlobalRoutingResult,
    channel_result: ChannelRoutingResult,
    signoff: SignoffReport,
    constraints: Sequence[PathConstraint] = (),
    technology: Technology = Technology(),
    timing_paths: int = 3,
    gd: Optional[GlobalDelayGraph] = None,
) -> FullReport:
    """Assemble the complete post-route report around the run's
    ``signoff`` (see :func:`repro.bench.runner.run_flow`)."""
    sections: List[str] = []

    # --- summary ------------------------------------------------------
    met = sum(
        1 for margin in signoff.constraint_margins.values() if margin >= 0
    )
    header_lines = [
        f"=== routing report: {circuit.name} ===",
        f"critical delay : {signoff.critical_delay_ps:10.1f} ps",
        f"chip area      : {signoff.area_mm2:10.4f} mm^2 "
        f"({signoff.floorplan.width_um:.0f} x "
        f"{signoff.floorplan.height_um:.0f} um)",
        f"wire length    : {signoff.total_length_mm:10.3f} mm",
        f"router effort  : {global_result.deletions} deletions, "
        f"{global_result.reroutes} reroutes, "
        f"{global_result.cpu_seconds:.2f} s",
    ]
    if constraints:
        header_lines.append(
            f"constraints    : {met}/{len(constraints)} met "
            f"(worst margin "
            f"{min(signoff.constraint_margins.values()):+.1f} ps)"
        )
    if global_result.feed_cells_inserted:
        header_lines.append(
            f"feed insertion : {global_result.feed_cells_inserted} cells, "
            f"chip widened {global_result.chip_widened_columns} columns"
        )
    header = "\n".join(header_lines)

    # --- wire statistics ----------------------------------------------
    stats = wire_stats(
        circuit, placement, global_result, technology,
        net_lengths_um=signoff.net_length_um,
    )
    sections.append("--- wires ---\n" + stats.summary())

    # --- congestion -----------------------------------------------------
    tracks = channel_result.tracks_per_channel()
    busiest = max(tracks, key=lambda c: tracks[c]) if tracks else 0
    congestion_lines = ["--- channels ---"]
    congestion_lines.append(
        "tracks per channel: "
        + " ".join(
            f"{channel}:{count}"
            for channel, count in sorted(tracks.items())
        )
    )
    congestion_lines.append(
        f"busiest channel {busiest} uses {tracks.get(busiest, 0)} tracks; "
        f"{channel_result.constraint_breaks} VCG relaxations, "
        f"{channel_result.pin_conflicts} pin conflicts"
    )
    sections.append("\n".join(congestion_lines))

    # --- skew ------------------------------------------------------------
    skews = clock_skew_table(circuit, global_result, min_fanout=4)
    if skews:
        skew_lines = ["--- high-fanout skew (Elmore) ---"]
        for entry in skews[:4]:
            skew_lines.append("  " + entry.summary())
        sections.append("\n".join(skew_lines))

    # --- timing paths ----------------------------------------------------
    if constraints and timing_paths > 0:
        if gd is None:
            gd = GlobalDelayGraph.of(circuit)
        analyzer = StaticTimingAnalyzer(
            gd,
            [ConstraintGraph.of(gd, c) for c in constraints],
        )
        sections.append(
            "--- critical paths (after channel routing) ---\n"
            + format_timing_reports(
                analyzer, signoff.wire_caps, limit=timing_paths
            )
        )

    return FullReport(header=header, signoff=signoff, sections=sections)
