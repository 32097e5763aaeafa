"""Declarative batch jobs and their content-addressed identities.

A :class:`JobSpec` pins down *everything* that determines one routing
result: the dataset spec (netlist generator + placement recipe +
constraint recipe), the :class:`~repro.core.config.RouterConfig`, the
:class:`~repro.tech.Technology`, the generator seed, and the
constrained/unconstrained mode.  Because every input is a frozen
dataclass of plain scalars, the spec serializes to a canonical JSON form
whose SHA-256 digest is a stable **cache key**: the same spec hashes to
the same key in any process on any machine, and any changed field
changes the key.

The key is salted with :data:`CODE_VERSION_SALT`; bump the salt whenever
a code change alters routing *results* (not just performance), and every
previously cached record is invalidated at once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..bench.circuits import DatasetSpec
from ..bench.runner import RunRecord, run_dataset
from ..core.config import RouterConfig
from ..errors import ConfigError
from ..tech import Technology

#: Identity of the routing algorithm generation.  Part of every cache
#: key: bumping it orphans all previously cached results.
CODE_VERSION_SALT = "repro-exec/1"


def canonical_value(obj: Any) -> Any:
    """Reduce a spec component to plain JSON-serializable structures.

    Dataclasses become ``{"__type__": name, field: ...}`` mappings in
    declaration order, enums their class + value, mappings are
    key-sorted.  Raises :class:`~repro.errors.ConfigError` on anything
    without an obvious canonical form (sets, arbitrary objects), because
    a silently unstable serialization would poison cache keys.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        payload: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            payload[f.name] = canonical_value(getattr(obj, f.name))
        return payload
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, dict):
        return {
            str(key): canonical_value(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key"
    )


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of any spec component."""
    return json.dumps(
        canonical_value(obj),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


@dataclass(frozen=True)
class JobSpec:
    """One unit of batch work: route one dataset in one mode.

    Attributes:
        dataset: the dataset recipe (circuit spec, placement style,
            constraint recipe).
        constrained: route with timing constraints (Table 2a) or the
            area-only baseline (Table 2b).
        technology: process parameters for generation, routing, signoff.
        config: router knobs; ``None`` means the paper-default
            ``RouterConfig(technology=technology)``.
        seed: optional generator-seed override; ``None`` keeps the seed
            baked into ``dataset.circuit``.
    """

    dataset: DatasetSpec
    constrained: bool = True
    technology: Technology = field(default_factory=Technology)
    config: Optional[RouterConfig] = None
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def effective_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return self.dataset.circuit.seed

    @property
    def job_id(self) -> str:
        """Short human-readable identity (not unique across configs —
        use :meth:`cache_key` for identity)."""
        mode = "c" if self.constrained else "u"
        return f"{self.dataset.name}.{mode}.s{self.effective_seed}"

    @property
    def unique_id(self) -> str:
        """:attr:`job_id` plus a short :meth:`cache_key` prefix: distinct
        for jobs that differ only in config (per-job manifest names, and
        rollup keys where job ids collide)."""
        return f"{self.job_id}-{self.cache_key()[:10]}"

    def resolved_dataset(self) -> DatasetSpec:
        """The dataset spec with any seed override applied."""
        if self.seed is None or self.seed == self.dataset.circuit.seed:
            return self.dataset
        return replace(
            self.dataset,
            circuit=replace(self.dataset.circuit, seed=self.seed),
        )

    def resolved_config(self) -> RouterConfig:
        config = self.config
        if config is None:
            config = RouterConfig(technology=self.technology)
        if not self.constrained:
            config = config.unconstrained()
        return config

    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Deterministic content hash of everything that shapes the
        result (dataset, mode, technology, config, code version)."""
        digest = hashlib.sha256()
        digest.update(CODE_VERSION_SALT.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(
            canonical_json(
                {
                    "dataset": self.resolved_dataset(),
                    "constrained": self.constrained,
                    "technology": self.technology,
                    "config": self.config,
                }
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def describe(self) -> Dict[str, Any]:
        """Summary fields for manifests and sweep rollups."""
        return {
            "job_id": self.job_id,
            "cache_key": self.cache_key(),
            "dataset": self.dataset.name,
            "circuit": self.dataset.circuit.name,
            "constrained": self.constrained,
            "seed": self.effective_seed,
            "code_version": CODE_VERSION_SALT,
        }


def execute_job(
    spec: JobSpec,
    *,
    trace_sink: Any = None,
    decision_sampling: Optional[str] = None,
) -> RunRecord:
    """Run one job to completion in the current process.

    This is the engine's default job runner: the record of
    :func:`~repro.bench.runner.run_dataset` on the job's resolved
    dataset and config, so batch, service and serial records are one
    and the same.

    ``trace_sink``/``decision_sampling`` are forwarded to
    :func:`~repro.bench.runner.run_dataset`, so a caller (the routing
    service streaming events to a client, a test capturing a run) can
    observe the run without changing what it computes — neither is part
    of the cache key.
    """
    return run_dataset(
        spec.resolved_dataset(),
        spec.constrained,
        spec.technology,
        spec.resolved_config(),
        trace_sink=trace_sink,
        decision_sampling=decision_sampling,
    )[0]
