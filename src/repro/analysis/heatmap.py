"""Channel-density heatmaps from ``density_snapshot`` trace events.

The router snapshots every channel's ``d_M(c,x)``/``d_m(c,x)`` profile
at the phase boundaries ``initial``, ``post_deletion``,
``post_recovery`` and ``post_improvement``.  This module turns those
events back into renderable snapshots: a per-channel digit strip (one
character per column, ``*`` beyond 35) for ``repro trace heatmap``, and
a per-label ``C_M``/``C_m`` summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..core.density import downsample_columns

SNAPSHOT_LABELS = (
    "initial",
    "post_deletion",
    "post_recovery",
    "post_improvement",
)

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _glyph(value: int) -> str:
    if value < 0:
        return "!"
    if value < len(_GLYPHS):
        return _GLYPHS[value]
    return "*"


@dataclass(frozen=True)
class ChannelHeat:
    """One channel's profiles inside one snapshot."""

    channel: int
    c_max: int
    nc_max: int
    c_min: int
    nc_min: int
    d_max: List[int]
    d_min: List[int]

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "ChannelHeat":
        return ChannelHeat(
            channel=int(payload.get("channel", -1)),
            c_max=int(payload.get("c_max", 0)),
            nc_max=int(payload.get("nc_max", 0)),
            c_min=int(payload.get("c_min", 0)),
            nc_min=int(payload.get("nc_min", 0)),
            d_max=[int(v) for v in payload.get("d_max", [])],
            d_min=[int(v) for v in payload.get("d_min", [])],
        )


@dataclass(frozen=True)
class HeatmapSnapshot:
    """All channels at one phase boundary."""

    label: str
    seq: int
    width_columns: int
    channels: List[ChannelHeat]

    def channel(self, index: int) -> Optional[ChannelHeat]:
        for heat in self.channels:
            if heat.channel == index:
                return heat
        return None

    def to_dict(self, channel: Optional[int] = None) -> Dict[str, Any]:
        """JSON form; with ``channel``, that channel's profiles only."""
        return {
            "label": self.label,
            "seq": self.seq,
            "width_columns": self.width_columns,
            "channels": [
                {
                    "channel": h.channel,
                    "c_max": h.c_max,
                    "nc_max": h.nc_max,
                    "c_min": h.c_min,
                    "nc_min": h.nc_min,
                    "d_max": list(h.d_max),
                    "d_min": list(h.d_min),
                }
                for h in self.channels
                if channel is None or h.channel == channel
            ],
        }


def snapshots_from_events(events: Iterable) -> List[HeatmapSnapshot]:
    """Extract ``density_snapshot`` events in emission order."""
    snapshots: List[HeatmapSnapshot] = []
    for event in events:
        if event.kind != "density_snapshot":
            continue
        data = event.data
        snapshots.append(
            HeatmapSnapshot(
                label=str(data.get("label", "?")),
                seq=event.seq,
                width_columns=int(data.get("width_columns", 0)),
                channels=[
                    ChannelHeat.from_payload(payload)
                    for payload in data.get("channels", [])
                ],
            )
        )
    return snapshots


def _strip(values: List[int], max_width: int) -> str:
    """One character per (downsampled) column; window max when folded.

    Uses the same windowed-max reduction the density engine applies when
    capping wide snapshot payloads, so a pre-downsampled payload renders
    exactly as the full-resolution one would at this width.
    """
    if not values:
        return ""
    return "".join(
        _glyph(v) for v in downsample_columns(values, max_width)
    )


def format_snapshot(
    snapshot: HeatmapSnapshot,
    channel: Optional[int] = None,
    max_width: int = 96,
) -> str:
    """Digit-strip rendition of one snapshot (optionally one channel).

    ``d_M`` and ``d_m`` each get one strip; the glyph at column ``x`` is
    the density (0-9, then a-z, ``*`` beyond 35).  Wide chips are
    downsampled with a windowed max so peaks never disappear.
    """
    lines = [
        f"snapshot {snapshot.label!r} — {len(snapshot.channels)} channels"
        f" × {snapshot.width_columns} columns"
    ]
    for heat in snapshot.channels:
        if channel is not None and heat.channel != channel:
            continue
        lines.append(
            f"  channel {heat.channel}: C_M={heat.c_max}"
            f" (NC_M={heat.nc_max}), C_m={heat.c_min}"
            f" (NC_m={heat.nc_min})"
        )
        lines.append(f"    d_M |{_strip(heat.d_max, max_width)}|")
        lines.append(f"    d_m |{_strip(heat.d_min, max_width)}|")
    return "\n".join(lines)


def format_snapshot_table(snapshots: List[HeatmapSnapshot]) -> str:
    """Per-label ``Σ C_M``/``Σ C_m`` progression across phase boundaries."""
    if not snapshots:
        return "no density snapshots in trace"
    lines = [f"  {'label':<18s} {'sum C_M':>8s} {'sum C_m':>8s}"]
    for snapshot in snapshots:
        total_max = sum(h.c_max for h in snapshot.channels)
        total_min = sum(h.c_min for h in snapshot.channels)
        lines.append(
            f"  {snapshot.label:<18s} {total_max:>8d} {total_min:>8d}"
        )
    return "\n".join(lines)


def format_heatmap(
    snapshots: List[HeatmapSnapshot], channel: Optional[int] = None
) -> str:
    """What ``repro trace heatmap`` prints without ``--label``: the
    per-label summary table, then the final snapshot."""
    return "\n\n".join(
        [format_snapshot_table(snapshots)]
        + [format_snapshot(s, channel=channel) for s in snapshots[-1:]]
    )
