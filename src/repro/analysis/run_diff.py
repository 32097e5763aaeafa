"""Run-to-run regression diffing: the ``repro compare-runs`` engine.

Both inputs are ``repro-run-manifest/2`` documents: two run manifests,
whose ``results`` hold one :class:`~repro.bench.runner.RunRecord` row
each (a row of the paper's Tables 2 and 3), or two sweep rollups, whose
``results.jobs`` carry one such row per finished job.  Every row is
diffed the same way against configurable thresholds, and any exceeded
threshold becomes a *failure* (the CLI exits 1):

* gated: ``delay_ps`` and ``length_mm`` growth in percent,
  ``violations`` and the ``router.peak_density_total`` metric in
  absolute terms — a gated field missing from either side is an input
  error naming the field and the file (the CLI exits 2);
* report-only: ``area_mm2``, ``deletions`` and per-phase wall times
  (wall clocks differ between machines).

A sweep diff runs the row diff once per job id and prefixes each line
with it; a job that finished in OLD but failed or is absent in NEW is a
failure, a job only NEW has is a report line.  Optionally, two
**traces** beside two run manifests add the first ``edge_deleted``
divergence point (report-only — two seeds *should* diverge) and
per-channel ``C_M``/``C_m`` deltas from the final ``density_snapshot``,
which *are* gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.manifest import MANIFEST_SCHEMA

#: Job statuses of a sweep rollup that carry a record.
_FINISHED = ("ok", "cached")
#: The gated metric of every row.
_PEAK = "router.peak_density_total"


@dataclass(frozen=True)
class DiffThresholds:
    """Gate limits; ``None`` disables a gate (report-only)."""

    max_delay_pct: Optional[float] = 5.0       # delay_ps growth
    max_length_pct: Optional[float] = 5.0      # length_mm growth
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


def classify_input(payload: Dict[str, Any], source: str = "input") -> str:
    """``run`` for a run manifest, ``sweep`` for a sweep rollup; any
    other schema marker (a ``/1`` manifest included) is rejected."""
    schema = payload.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"{source}: unsupported input schema {schema!r} (expected "
            f"{MANIFEST_SCHEMA!r})"
        )
    if payload.get("dataset", {}).get("kind") == "sweep":
        return "sweep"
    return "run"


def _pct(old: float, new: float) -> Optional[float]:
    if old == 0:
        return None
    return 100.0 * (new - old) / abs(old)


def _gate_pct(
    diff: RunDiff,
    name: str,
    old: float,
    new: float,
    limit_pct: Optional[float],
) -> None:
    """Add a percent-gated line (growth beyond ``limit_pct`` fails)."""
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
    old: float,
    new: float,
    limit_delta: Optional[float],
) -> None:
    """Add an absolute-delta-gated line."""
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
# Row diffing
# ----------------------------------------------------------------------
class _Row(NamedTuple):
    """One side of a row diff: a record row and its flat metrics, plus
    the file and key paths they came from (named by input errors)."""

    row: Dict[str, Any]
    metrics: Dict[str, Any]
    source: str
    row_path: str
    metrics_path: str

    def gated(self, name: str, metric: bool = False) -> float:
        values, path = (
            (self.metrics, self.metrics_path) if metric
            else (self.row, self.row_path)
        )
        value = values.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{self.source}: {path}.{name} is missing")
        return float(value)


def _diff_row(
    diff: RunDiff,
    old: _Row,
    new: _Row,
    thresholds: DiffThresholds,
    prefix: str = "",
) -> None:
    """Gate one pair of record rows (see the module docstring)."""
    if old.row.get("dataset") != new.row.get("dataset"):
        diff.lines.append(DiffLine(
            prefix + "dataset", old.row.get("dataset"),
            new.row.get("dataset"), note="different designs",
        ))
    for name, limit in (
        ("delay_ps", thresholds.max_delay_pct),
        ("length_mm", thresholds.max_length_pct),
    ):
        _gate_pct(diff, prefix + name, old.gated(name), new.gated(name),
                  limit)
    violations = thresholds.max_violations_delta
    _gate_delta(
        diff, prefix + "violations",
        old.gated("violations"), new.gated("violations"),
        float(violations) if violations is not None else None,
    )
    _gate_delta(
        diff, prefix + _PEAK,
        old.gated(_PEAK, metric=True), new.gated(_PEAK, metric=True),
        thresholds.max_peak_delta,
    )
    for name in ("area_mm2", "deletions"):
        if old.row.get(name) is not None and new.row.get(name) is not None:
            _gate_pct(diff, prefix + name, old.row[name], new.row[name],
                      None)


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
    sources: Tuple[str, str] = ("OLD", "NEW"),
) -> RunDiff:
    """Compare two run manifests: their record rows, then phase walls."""
    diff = RunDiff(kind="run")
    old_results = old.get("results", {})
    new_results = new.get("results", {})
    _diff_row(
        diff,
        _Row(old_results, old.get("metrics", {}), sources[0],
             "results", "metrics"),
        _Row(new_results, new.get("metrics", {}), sources[1],
             "results", "metrics"),
        thresholds,
    )
    old_walls = _phase_walls(old_results)
    new_walls = _phase_walls(new_results)
    for path in sorted(set(old_walls) & set(new_walls)):
        _gate_pct(
            diff, f"phase.{path}.wall_s",
            old_walls[path], new_walls[path], None,
        )
    return diff


def _job_row(job: Dict[str, Any], job_id: str, source: str) -> _Row:
    path = f"results.jobs.{job_id}.record"
    record = job.get("record")
    if not isinstance(record, dict):
        raise ValueError(f"{source}: {path} is missing")
    return _Row(record, record.get("metrics", {}), source, path,
                path + ".metrics")


def diff_sweeps(
    old: Dict[str, Any],
    new: Dict[str, Any],
    thresholds: DiffThresholds = DiffThresholds(),
    sources: Tuple[str, str] = ("OLD", "NEW"),
) -> RunDiff:
    """Compare two sweep rollups job by job."""
    diff = RunDiff(kind="sweep")
    old_jobs = old.get("results", {}).get("jobs", {})
    new_jobs = new.get("results", {}).get("jobs", {})
    for job_id, old_job in old_jobs.items():
        prefix = f"{job_id}: "
        old_status = old_job.get("status")
        new_status = new_jobs.get(job_id, {}).get("status", "absent")
        if old_status not in _FINISHED or new_status not in _FINISHED:
            line = DiffLine(prefix + "status", old_status, new_status)
            if old_status in _FINISHED:
                line.failed = True
                diff.failures.append(
                    f"{job_id} {old_status} in OLD, {new_status} in NEW"
                )
            else:
                line.note = "report-only"
            diff.lines.append(line)
            continue
        _diff_row(
            diff,
            _job_row(old_job, job_id, sources[0]),
            _job_row(new_jobs[job_id], job_id, sources[1]),
            thresholds, prefix,
        )
    for job_id, new_job in new_jobs.items():
        if job_id not in old_jobs:
            diff.lines.append(DiffLine(
                f"{job_id}: status", "absent", new_job.get("status"),
                note="new job",
            ))
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
    sources: Tuple[str, str] = ("OLD", "NEW"),
) -> RunDiff:
    """Diff two run manifests (plus their traces when both are given)
    or two sweep rollups; ``sources`` name the inputs in errors."""
    kinds = (classify_input(old, sources[0]),
             classify_input(new, sources[1]))
    if kinds[0] != kinds[1]:
        raise ValueError(
            f"cannot diff {sources[0]} ({kinds[0]}) against {sources[1]} "
            f"({kinds[1]}): pass two run manifests or two sweep rollups"
        )
    if kinds[0] == "sweep":
        if old_events is not None or new_events is not None:
            raise ValueError("--trace diffs run manifests, not sweeps")
        return diff_sweeps(old, new, thresholds, sources)
    diff = diff_manifests(old, new, thresholds, sources)
    if old_events is not None and new_events is not None:
        diff_traces(diff, old_events, new_events, thresholds)
    return diff
