"""Machine-readable run manifests.

A manifest pins down everything needed to interpret (or re-run) one
routing result: the configuration, the dataset identity, the source
revision the tool was built from, the run's
:class:`~repro.bench.runner.RunRecord` row and its flat metrics
snapshot.  ``route --manifest`` (or ``--json``) and every
``batch --manifests`` job write one; a sweep's rollup is a manifest
whose ``results.jobs`` carry one record per finished job.
``compare-runs`` diffs either kind.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

PathLike = Union[str, Path]

MANIFEST_SCHEMA = "repro-run-manifest/2"


def tool_version() -> str:
    """Installed package version, or the pyproject default when the
    package runs straight from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "unknown"


def describe_source(root: Optional[PathLike] = None) -> Dict[str, Any]:
    """``git describe``-style identity of the source tree, without
    shelling out: reads ``.git/HEAD`` (and the ref file / packed-refs it
    points at).  Every field is None when no repository is found."""
    info: Dict[str, Any] = {"ref": None, "commit": None, "describe": None}
    start = Path(root) if root is not None else Path(__file__).resolve()
    if start.is_file():
        start = start.parent
    git_dir = None
    for candidate in (start, *start.parents):
        probe = candidate / ".git"
        if probe.is_dir():
            git_dir = probe
            break
    if git_dir is None:
        return info
    try:
        head = (git_dir / "HEAD").read_text().strip()
    except OSError:
        return info
    if head.startswith("ref: "):
        ref = head[len("ref: "):]
        info["ref"] = ref.rsplit("/", 1)[-1]
        ref_file = git_dir / ref
        if ref_file.exists():
            info["commit"] = ref_file.read_text().strip()
        else:
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        info["commit"] = line.split(" ", 1)[0]
                        break
    else:
        info["commit"] = head or None
    if info["commit"]:
        short = info["commit"][:12]
        info["describe"] = (
            f"{info['ref']}@{short}" if info["ref"] else short
        )
    return info


def _jsonable_config(config: Any) -> Any:
    """Dataclass configs become nested dicts; everything else passes
    through (json.dumps handles the rest with ``default=str``)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return config


@dataclass
class RunManifest:
    """Everything one run needs to be interpreted later."""

    config: Dict[str, Any] = field(default_factory=dict)
    dataset: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    source: Dict[str, Any] = field(default_factory=describe_source)
    created_unix: float = field(default_factory=time.time)
    schema: str = MANIFEST_SCHEMA
    tool: str = "repro"
    version: str = field(default_factory=tool_version)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "tool": self.tool,
            "version": self.version,
            "created_unix": self.created_unix,
            "source": dict(self.source),
            "config": self.config,
            "dataset": dict(self.dataset),
            "results": dict(self.results),
            "metrics": dict(self.metrics),
        }

    def write(self, path: PathLike) -> Path:
        from ..io.fsutil import atomic_write_text

        return atomic_write_text(
            path,
            json.dumps(self.to_dict(), indent=2, sort_keys=True,
                       default=str),
        )


def build_run_manifest(
    config: Any = None,
    dataset: Optional[Dict[str, Any]] = None,
    record: Any = None,
    profiler: Any = None,
) -> RunManifest:
    """Assemble one run's manifest.

    ``results`` is ``record.to_row()`` (a
    :class:`~repro.bench.runner.RunRecord`: the signed-off Table 2/3
    row), plus the :class:`~repro.obs.profile.PhaseProfiler` tree under
    ``results["phases"]`` when ``profiler`` is given; ``metrics`` is the
    record's flat metrics snapshot.
    """
    results: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    if record is not None:
        results.update(record.to_row())
        metrics.update(record.metrics)
    if profiler is not None:
        results["phases"] = profiler.to_dict()
    return RunManifest(
        config=_jsonable_config(config) if config is not None else {},
        dataset=dict(dataset or {}),
        results=results,
        metrics=metrics,
    )


def read_manifest(path: PathLike) -> Dict[str, Any]:
    """Load a manifest file, checking the schema marker."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"{path}: not a {MANIFEST_SCHEMA} manifest")
    return payload
