"""Run-to-run regression diffing: the ``repro compare-runs`` engine.

Two run manifests (``repro-run-manifest/1``) are compared line by line
against configurable thresholds; any exceeded threshold becomes a
*failure* and the CLI exits non-zero.  Gated: headline result deltas
(critical delay, total length, violations) and the
``router.peak_density_total`` gauge.  Deletion counts and per-phase
wall times are report-only (wall clocks differ between machines).
Optionally, two **traces** alongside the manifests add the first
``edge_deleted`` divergence point (report-only — two seeds *should*
diverge) and per-channel ``C_M``/``C_m`` deltas from the final
``density_snapshot``, which *are* gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.manifest import MANIFEST_SCHEMA


@dataclass(frozen=True)
class DiffThresholds:
    """Gate limits; ``None`` disables a gate (report-only)."""

    max_delay_pct: Optional[float] = 5.0       # critical_delay_ps growth
    max_length_pct: Optional[float] = 5.0      # total_length_um growth
    max_peak_delta: Optional[float] = 8.0      # Σ C_M growth (tracks)
    max_violations_delta: Optional[int] = 0    # new timing violations


@dataclass
class DiffLine:
    """One compared quantity."""

    name: str
    old: Any
    new: Any
    delta: Optional[float] = None
    pct: Optional[float] = None
    failed: bool = False
    note: str = ""

    def format(self) -> str:
        parts = [f"{self.name:<44s} {_fmt(self.old):>12s} ->"
                 f" {_fmt(self.new):>12s}"]
        if self.delta is not None:
            parts.append(f" {self.delta:>+10.3f}")
        if self.pct is not None:
            parts.append(f" ({self.pct:+.2f}%)")
        if self.failed:
            parts.append("  FAIL")
        elif self.note:
            parts.append(f"  [{self.note}]")
        return "".join(parts)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class RunDiff:
    """Full comparison outcome."""

    kind: str
    lines: List[DiffLine] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    divergence: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "failures": list(self.failures),
            "divergence": self.divergence,
            "lines": [
                {
                    "name": line.name,
                    "old": line.old,
                    "new": line.new,
                    "delta": line.delta,
                    "pct": line.pct,
                    "failed": line.failed,
                    "note": line.note,
                }
                for line in self.lines
            ],
        }

    def format(self) -> str:
        out = [f"compare-runs ({self.kind})"]
        out.extend("  " + line.format() for line in self.lines)
        if self.divergence is not None:
            div = self.divergence
            if div.get("index") is None:
                out.append("  deletion sequences: identical "
                           f"({div.get('compared', 0)} deletions)")
            else:
                out.append(
                    "  deletion sequences diverge at deletion "
                    f"#{div['index']}: "
                    f"{div.get('old')} vs {div.get('new')}"
                )
        if self.failures:
            out.append("FAILURES:")
            out.extend(f"  - {failure}" for failure in self.failures)
        else:
            out.append("OK: all deltas within thresholds")
        return "\n".join(out)


def classify_input(payload: Dict[str, Any]) -> str:
    """``manifest`` — the only input kind; any other schema marker is
    rejected."""
    schema = payload.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"unsupported input schema {schema!r} (expected "
            f"{MANIFEST_SCHEMA!r})"
        )
    return "manifest"


def _pct(old: float, new: float) -> Optional[float]:
    if old == 0:
        return None
    return 100.0 * (new - old) / abs(old)


def _gate_pct(
    diff: RunDiff,
    name: str,
    old: Optional[float],
    new: Optional[float],
    limit_pct: Optional[float],
) -> None:
    """Add a percent-gated line (growth beyond ``limit_pct`` fails)."""
    if old is None or new is None:
        return
    old = float(old)
    new = float(new)
    pct = _pct(old, new)
    line = DiffLine(name, old, new, delta=new - old, pct=pct)
    if limit_pct is not None and pct is not None and pct > limit_pct:
        line.failed = True
        diff.failures.append(
            f"{name} grew {pct:+.2f}% (limit {limit_pct:+.2f}%)"
        )
    elif limit_pct is None:
        line.note = "report-only"
    diff.lines.append(line)


def _gate_delta(
    diff: RunDiff,
    name: str,
    old: Optional[float],
    new: Optional[float],
    limit_delta: Optional[float],
) -> None:
    """Add an absolute-delta-gated line."""
    if old is None or new is None:
        return
    old = float(old)
    new = float(new)
    delta = new - old
    line = DiffLine(name, old, new, delta=delta, pct=_pct(old, new))
    if limit_delta is not None and delta > limit_delta:
        line.failed = True
        diff.failures.append(
            f"{name} grew by {delta:+.3f} (limit {limit_delta:+.3f})"
        )
    elif limit_delta is None:
        line.note = "report-only"
    diff.lines.append(line)


# ----------------------------------------------------------------------
# Manifest diffing
# ----------------------------------------------------------------------
def _phase_walls(results: Dict[str, Any]) -> Dict[str, float]:
    """Flattened ``phase.path -> wall_s`` from ``results["phases"]``."""
    walls: Dict[str, float] = {}

    def walk(tree: Dict[str, Any], prefix: str) -> None:
        for name, node in tree.items():
            path = f"{prefix}{name}"
            wall = node.get("wall_s")
            if wall is not None:
                walls[path] = float(wall)
            walk(node.get("children", {}), path + ".")

    walk(results.get("phases", {}) or {}, "")
    return walls


def diff_manifests(
    old: Dict[str, Any],
    new: Dict[str, Any],
    thresholds: DiffThresholds = DiffThresholds(),
) -> RunDiff:
    """Compare two run manifests."""
    diff = RunDiff(kind="manifest")
    old_results = old.get("results", {})
    new_results = new.get("results", {})

    circuit_old = old_results.get("circuit")
    circuit_new = new_results.get("circuit")
    if circuit_old is not None or circuit_new is not None:
        line = DiffLine("circuit", circuit_old, circuit_new)
        if circuit_old != circuit_new:
            line.note = "different designs"
        diff.lines.append(line)

    _gate_pct(
        diff, "results.critical_delay_ps",
        old_results.get("critical_delay_ps"),
        new_results.get("critical_delay_ps"),
        thresholds.max_delay_pct,
    )
    _gate_pct(
        diff, "results.total_length_um",
        old_results.get("total_length_um"),
        new_results.get("total_length_um"),
        thresholds.max_length_pct,
    )
    _gate_delta(
        diff, "results.violations",
        old_results.get("violations"),
        new_results.get("violations"),
        (
            float(thresholds.max_violations_delta)
            if thresholds.max_violations_delta is not None
            else None
        ),
    )
    if (
        old_results.get("deletions") is not None
        and new_results.get("deletions") is not None
    ):
        deletions_old = float(old_results["deletions"])
        deletions_new = float(new_results["deletions"])
        diff.lines.append(
            DiffLine(
                "results.deletions",
                int(deletions_old),
                int(deletions_new),
                delta=deletions_new - deletions_old,
                pct=_pct(deletions_old, deletions_new),
                note="report-only",
            )
        )
    _gate_delta(
        diff, "metrics.router.peak_density_total",
        old.get("metrics", {}).get("router.peak_density_total"),
        new.get("metrics", {}).get("router.peak_density_total"),
        thresholds.max_peak_delta,
    )

    old_walls = _phase_walls(old_results)
    new_walls = _phase_walls(new_results)
    for path in sorted(set(old_walls) & set(new_walls)):
        _gate_pct(
            diff, f"phase.{path}.wall_s",
            old_walls[path], new_walls[path], None,
        )
    return diff


# ----------------------------------------------------------------------
# Trace diffing (optional supplement to a manifest diff)
# ----------------------------------------------------------------------
def deletion_divergence(
    old_events: Sequence, new_events: Sequence
) -> Dict[str, Any]:
    """First index where the ``edge_deleted`` streams disagree.

    Returns ``{"index": None, "compared": N}`` for identical sequences;
    otherwise ``index`` is the 0-based deletion number and ``old``/
    ``new`` identify the differing deletions (a missing side means one
    run simply deleted more edges).
    """
    def sequence(events: Sequence) -> List[Any]:
        return [
            (e.data.get("net"), e.data.get("edge"))
            for e in events
            if e.kind == "edge_deleted"
        ]

    old_seq = sequence(old_events)
    new_seq = sequence(new_events)
    for index, (a, b) in enumerate(zip(old_seq, new_seq)):
        if a != b:
            return {"index": index, "old": list(a), "new": list(b)}
    if len(old_seq) != len(new_seq):
        index = min(len(old_seq), len(new_seq))
        longer = old_seq if len(old_seq) > len(new_seq) else new_seq
        side = "old" if len(old_seq) > len(new_seq) else "new"
        return {
            "index": index,
            "old": list(longer[index]) if side == "old" else None,
            "new": list(longer[index]) if side == "new" else None,
        }
    return {"index": None, "compared": len(old_seq)}


def _final_channel_stats(events: Sequence) -> Dict[int, Dict[str, int]]:
    """Per-channel ``C_M``/``C_m`` from the last ``density_snapshot``."""
    from .heatmap import snapshots_from_events

    snapshots = snapshots_from_events(events)
    if not snapshots:
        return {}
    return {
        heat.channel: {"c_max": heat.c_max, "c_min": heat.c_min}
        for heat in snapshots[-1].channels
    }


def diff_traces(
    diff: RunDiff,
    old_events: Sequence,
    new_events: Sequence,
    thresholds: DiffThresholds = DiffThresholds(),
) -> None:
    """Fold trace-level comparisons into an existing manifest diff."""
    diff.divergence = deletion_divergence(old_events, new_events)
    old_stats = _final_channel_stats(old_events)
    new_stats = _final_channel_stats(new_events)
    for channel in sorted(set(old_stats) & set(new_stats)):
        _gate_delta(
            diff, f"channel[{channel}].C_M",
            old_stats[channel]["c_max"], new_stats[channel]["c_max"],
            thresholds.max_peak_delta,
        )
        _gate_delta(
            diff, f"channel[{channel}].C_m",
            old_stats[channel]["c_min"], new_stats[channel]["c_min"],
            thresholds.max_peak_delta,
        )


def diff_runs(
    old: Dict[str, Any],
    new: Dict[str, Any],
    thresholds: DiffThresholds = DiffThresholds(),
    old_events: Optional[Sequence] = None,
    new_events: Optional[Sequence] = None,
) -> RunDiff:
    """Diff two run manifests, plus their traces when both are given."""
    classify_input(old)
    classify_input(new)
    diff = diff_manifests(old, new, thresholds)
    if old_events is not None and new_events is not None:
        diff_traces(diff, old_events, new_events, thresholds)
    return diff
