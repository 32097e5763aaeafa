"""Trace-file analysis: the ``trace summarize`` CLI subcommand's engine.

Rebuilds the phase tree from ``phase_start``/``phase_end`` events
(:meth:`~repro.obs.profile.PhaseProfiler.from_events`, printed as the
same table ``route --metrics`` shows) and breaks the ``edge_deleted``
stream down by winning criterion and by phase — the per-iteration
telemetry view the Section 3.4 heuristics are tuned with.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Dict, List, Sequence, Tuple

from .events import EVENT_KINDS, TraceEvent
from .profile import PhaseProfiler


def partition_events(
    events: Sequence[TraceEvent],
) -> Tuple[List[TraceEvent], Dict[str, int]]:
    """Split a trace into recognized events and unknown-kind tallies.

    A trace written by a newer tool may carry kinds this build does not
    know; the contract is to skip them with a warning, never to fail —
    callers decide what to do when *nothing* is recognized.
    """
    known: List[TraceEvent] = []
    unknown: TallyCounter = TallyCounter()
    for event in events:
        if event.kind in EVENT_KINDS:
            known.append(event)
        else:
            unknown[event.kind] += 1
    return known, dict(unknown)


def summarize_trace(events: Sequence[TraceEvent]) -> str:
    """Human-readable multi-section summary of one run's trace.

    Unknown event kinds are ignored here (see :func:`partition_events`
    for the warn-and-skip entry point the CLI uses).
    """
    events, _ = partition_events(events)
    if not events:
        return "empty trace"
    lines: List[str] = []
    lines.extend(_header_lines(events))
    profile = PhaseProfiler.from_events(events)
    if profile.root.children:
        lines.extend(["", "phases:", profile.format()])
    lines.extend(_criterion_lines(events))
    lines.extend(_decision_lines(events))
    lines.extend(_density_lines(events))
    lines.extend(_reroute_lines(events))
    lines.extend(_violation_lines(events))
    return "\n".join(lines)


def _header_lines(events: Sequence[TraceEvent]) -> List[str]:
    lines = []
    starts = [e for e in events if e.kind == "run_start"]
    ends = [e for e in events if e.kind == "run_end"]
    if starts:
        data = starts[0].data
        lines.append(
            f"run: circuit {data.get('circuit', '?')} — "
            f"{data.get('nets', '?')} nets, "
            f"{data.get('constraints', '?')} constraints, "
            f"timing_driven={data.get('timing_driven', '?')}"
        )
    if ends:
        data = ends[0].data
        lines.append(
            f"finished in {data.get('wall_s', 0.0):.3f}s wall — "
            f"{data.get('deletions', 0)} deletions, "
            f"{data.get('reroutes', 0)} reroutes, "
            f"{data.get('violations', 0)} violations left"
        )
    lines.append(f"{len(events)} events")
    return lines


def _criterion_lines(events: Sequence[TraceEvent]) -> List[str]:
    deleted = [e for e in events if e.kind == "edge_deleted"]
    if not deleted:
        return []
    by_criterion = TallyCounter(
        e.data.get("criterion", "?") for e in deleted
    )
    by_phase = TallyCounter(e.data.get("phase", "?") for e in deleted)
    total = len(deleted)
    lines = ["", f"edge deletions: {total}", "  by winning criterion:"]
    for criterion, count in by_criterion.most_common():
        lines.append(
            f"    {criterion:<16s} {count:>7d}  ({100.0 * count / total:.1f}%)"
        )
    lines.append("  by phase:")
    for phase, count in by_phase.most_common():
        lines.append(f"    {phase:<16s} {count:>7d}")
    return lines


def _decision_lines(events: Sequence[TraceEvent]) -> List[str]:
    decisions = [e for e in events if e.kind == "deletion_decision"]
    if not decisions:
        return []
    sole = sum(
        1 for e in decisions if e.data.get("runner_up") is None
    )
    return [
        "",
        f"decision records: {len(decisions)} "
        f"({sole} sole-candidate; see `repro trace explain`)",
    ]


def _density_lines(events: Sequence[TraceEvent]) -> List[str]:
    snapshots = [e for e in events if e.kind == "density_snapshot"]
    if not snapshots:
        return []
    lines = ["", "density snapshots (sum C_M / sum C_m):"]
    for event in snapshots:
        channels = event.data.get("channels", [])
        total_max = sum(int(c.get("c_max", 0)) for c in channels)
        total_min = sum(int(c.get("c_min", 0)) for c in channels)
        label = event.data.get("label", "?")
        lines.append(f"    {label:<18s} {total_max:>6d} {total_min:>6d}")
    return lines


def _reroute_lines(events: Sequence[TraceEvent]) -> List[str]:
    reroutes = [e for e in events if e.kind == "reroute"]
    if not reroutes:
        return []
    kept = sum(1 for e in reroutes if e.data.get("kept"))
    return [
        "",
        f"reroutes: {len(reroutes)} "
        f"({kept} kept, {len(reroutes) - kept} reverted)",
    ]


def _violation_lines(events: Sequence[TraceEvent]) -> List[str]:
    found = [e for e in events if e.kind == "violation_found"]
    cleared = [e for e in events if e.kind == "violation_cleared"]
    if not found and not cleared:
        return []
    return [
        "",
        f"violations: {len(found)} found, {len(cleared)} cleared",
    ]
