"""JSON serialization of routing results and benchmark records.

Everything serializes to plain ``dict``/``list``/scalar structures so the
output is stable, diff-able, and loadable without this package.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..analysis.signoff import SignoffReport
from ..bench.runner import RunRecord
from ..core.result import GlobalRoutingResult, NetRoute
from .fsutil import atomic_write_text

PathLike = Union[str, Path]


def global_result_to_dict(
    result: GlobalRoutingResult, include_routes: bool = True
) -> Dict[str, Any]:
    """Serialize a :class:`GlobalRoutingResult`."""
    payload: Dict[str, Any] = {
        "circuit": result.circuit_name,
        "critical_delay_ps": result.critical_delay_ps,
        "estimated_area_mm2": result.estimated_floorplan.area_mm2,
        "total_length_um": result.total_length_um,
        "cpu_seconds": result.cpu_seconds,
        "deletions": result.deletions,
        "reroutes": result.reroutes,
        "feed_cells_inserted": result.feed_cells_inserted,
        "chip_widened_columns": result.chip_widened_columns,
        "constraint_margins_ps": dict(result.constraint_margins),
        "channel_peak_density": {
            str(channel): peak
            for channel, peak in result.channel_peak_density.items()
        },
    }
    if include_routes:
        payload["routes"] = {
            name: _route_to_dict(route)
            for name, route in result.routes.items()
        }
    return payload


def _route_to_dict(route: NetRoute) -> Dict[str, Any]:
    return {
        "width_pitches": route.width_pitches,
        "total_length_um": route.total_length_um,
        "wire_cap_pf": route.wire_cap_pf,
        "edges": [
            {
                "kind": edge.kind.value,
                "channel": edge.channel,
                "lo": edge.interval.lo,
                "hi": edge.interval.hi,
                "length_um": edge.length_um,
            }
            for edge in route.edges
        ],
        "attachments": [
            {
                "channel": a.channel,
                "column": a.column,
                "side": a.side.value,
            }
            for a in route.attachments
        ],
    }


def signoff_to_dict(report: SignoffReport) -> Dict[str, Any]:
    """Serialize a post-channel-routing sign-off report."""
    return {
        "circuit": report.circuit_name,
        "critical_delay_ps": report.critical_delay_ps,
        "area_mm2": report.area_mm2,
        "total_length_mm": report.total_length_mm,
        "cpu_seconds": report.cpu_seconds,
        "constraint_margins_ps": dict(report.constraint_margins),
        "violations": report.violations,
        "channel_tracks": {
            str(channel): tracks
            for channel, tracks in report.floorplan.channel_tracks.items()
        },
        "net_length_um": dict(report.net_length_um),
    }


def run_record_to_dict(record: RunRecord) -> Dict[str, Any]:
    """Serialize one benchmark run record (a Table 2/3 row).

    Scalar keys follow :meth:`RunRecord.fields` — the one canonical
    column order — with the observability snapshot nested under
    ``"metrics"``.
    """
    payload: Dict[str, Any] = record.to_row()
    payload["metrics"] = dict(record.metrics)
    return payload


def run_record_from_dict(payload: Dict[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`run_record_to_dict` output.

    The derived ``gap_to_bound_pct`` column is recomputed, not restored;
    unknown keys are ignored so newer readers accept older payloads.
    """
    names = {f.name for f in dataclasses.fields(RunRecord)}
    kwargs = {
        key: value for key, value in payload.items() if key in names
    }
    kwargs["metrics"] = dict(payload.get("metrics", {}))
    return RunRecord(**kwargs)


def write_json_report(
    payload: Dict[str, Any], path: PathLike, indent: int = 2
) -> None:
    """Write any serialized payload to a JSON file (atomically)."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=True)
    )
