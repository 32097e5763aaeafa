"""Analysis utilities: Fig. 4 density profiles, the post-channel-routing
sign-off (final delays, area, lengths — the quantities Table 2 reports),
timing-margin attribution, trace heatmaps, and run-to-run diffing."""

from .attribution import (
    ConstraintAttribution,
    NetContribution,
    attribute_constraint,
    attribute_margins,
    attributions_from_events,
    format_attribution,
)
from .density_profile import DensityProfile, profile_from_engine
from .heatmap import (
    HeatmapSnapshot,
    format_heatmap,
    format_snapshot,
    format_snapshot_table,
    snapshots_from_events,
)
from .run_diff import (
    DiffThresholds,
    RunDiff,
    classify_input,
    deletion_divergence,
    diff_runs,
)
from .rc_signoff import (
    ElmoreWireDelays,
    RcSignoffReport,
    compute_elmore_wire_delays,
    rc_sign_off,
)
from .render import render_placement, render_routed_chip
from .report import FullReport, full_report
from .signoff import SignoffReport, sign_off
from .skew import SkewReport, clock_skew_table, net_skew
from .timing_report import (
    PathReport,
    PathStage,
    critical_path_report,
    format_timing_reports,
)
from .wirestats import NetLengthStat, WireStats, wire_stats

__all__ = [
    "ConstraintAttribution",
    "DensityProfile",
    "DiffThresholds",
    "HeatmapSnapshot",
    "NetContribution",
    "RunDiff",
    "attribute_constraint",
    "attribute_margins",
    "attributions_from_events",
    "classify_input",
    "deletion_divergence",
    "diff_runs",
    "format_attribution",
    "format_heatmap",
    "format_snapshot",
    "format_snapshot_table",
    "snapshots_from_events",
    "FullReport",
    "full_report",
    "NetLengthStat",
    "PathReport",
    "PathStage",
    "WireStats",
    "critical_path_report",
    "format_timing_reports",
    "wire_stats",
    "render_placement",
    "render_routed_chip",
    "ElmoreWireDelays",
    "RcSignoffReport",
    "SignoffReport",
    "SkewReport",
    "clock_skew_table",
    "compute_elmore_wire_delays",
    "net_skew",
    "profile_from_engine",
    "rc_sign_off",
    "sign_off",
]
