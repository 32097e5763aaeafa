"""Job-submission schema: JSON payloads → canonical job identities.

A submission is one JSON object.  Required field ``kind`` selects the
job type; ``dataset`` names a suite dataset (``C1P1`` … from the
standard suite, ``S1P1`` … from the small suite):

``route``
    Route the dataset once (``constrained`` selects Table 2a/2b mode)
    and return the :class:`~repro.bench.runner.RunRecord`.
``explain``
    Route with full tracing and decision sampling forced on; the result
    adds the per-constraint margin attribution and decision counts.
``compare``
    Route the dataset in both modes (each half independently cacheable)
    and return both records plus their constrained-minus-unconstrained
    deltas: one dataset's Table 2 row pair, not a diff of two runs (that
    is the ``compare-runs`` CLI).

Optional fields: ``constrained`` (bool, default true; ``route``/
``explain`` only), ``engine`` (routing-engine name from
:func:`repro.engines.engine_names`, default ``"edge-deletion"``; an
unknown name is a 400), ``seed`` (generator-seed override), ``trace``
(bool — stream the run's obs events at ``GET /jobs/{id}/events``),
``tenant`` (quota bucket, default ``"default"``), ``priority`` (int,
larger runs first, default 0).  Unknown fields are rejected — a typo
must never silently change what gets routed.

Identity: :func:`job_key_of` reduces a request to a deterministic hex
key built from the :meth:`~repro.exec.jobs.JobSpec.cache_key` of every
spec the job executes.  For a ``route`` job the key **is** the spec's
cache key, so idempotent submission and the on-disk
:class:`~repro.exec.cache.ResultCache` agree about what "the same job"
means.  ``trace``/``tenant``/``priority`` shape delivery, not results,
and are excluded from the key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..bench.circuits import DatasetSpec, small_suite, standard_suite
from ..core.config import RouterConfig
from ..engines import engine_names
from ..exec.jobs import JobSpec

JOB_KINDS = ("route", "explain", "compare")

DEFAULT_ENGINE = "edge-deletion"

SERVICE_SCHEMA = "repro-service/1"


class ApiError(ValueError):
    """A rejected submission: message plus the HTTP status to return."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class JobRequest:
    """One validated job submission."""

    kind: str
    dataset: str
    constrained: bool = True
    engine: str = DEFAULT_ENGINE
    seed: Optional[int] = None
    trace: bool = False
    tenant: str = "default"
    priority: int = 0

    def to_payload(self) -> Dict[str, Any]:
        """The submission JSON this request round-trips through (used
        by the queue checkpoint)."""
        return {
            "kind": self.kind,
            "dataset": self.dataset,
            "constrained": self.constrained,
            "engine": self.engine,
            "seed": self.seed,
            "trace": self.trace,
            "tenant": self.tenant,
            "priority": self.priority,
        }

    @property
    def traced(self) -> bool:
        """Whether the job's run must produce an event stream
        (``explain`` jobs always trace: attribution needs the events)."""
        return self.trace or self.kind == "explain"


_FIELDS = {
    "kind", "dataset", "constrained", "engine", "seed", "trace",
    "tenant", "priority",
}


def known_datasets() -> Dict[str, DatasetSpec]:
    """Every dataset the service routes, by name (standard + small)."""
    return {
        spec.name: spec for spec in standard_suite() + small_suite()
    }


def parse_job_request(payload: Any) -> JobRequest:
    """Validate a submission payload; raises :class:`ApiError`."""
    if not isinstance(payload, dict):
        raise ApiError("submission must be a JSON object")
    unknown = sorted(set(payload) - _FIELDS)
    if unknown:
        raise ApiError(f"unknown field(s): {', '.join(unknown)}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ApiError(
            f"kind must be one of {', '.join(JOB_KINDS)} (got {kind!r})"
        )
    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ApiError("dataset must be a non-empty string")
    if dataset not in known_datasets():
        names = ", ".join(sorted(known_datasets()))
        raise ApiError(
            f"unknown dataset {dataset!r} (have: {names})", status=404
        )
    constrained = payload.get("constrained", True)
    if not isinstance(constrained, bool):
        raise ApiError("constrained must be a boolean")
    engine = payload.get("engine", DEFAULT_ENGINE)
    if not isinstance(engine, str) or engine not in engine_names():
        raise ApiError(
            f"engine must be one of {', '.join(engine_names())} "
            f"(got {engine!r})"
        )
    seed = payload.get("seed")
    if seed is not None and (
        not isinstance(seed, int) or isinstance(seed, bool)
    ):
        raise ApiError("seed must be an integer or null")
    trace = payload.get("trace", False)
    if not isinstance(trace, bool):
        raise ApiError("trace must be a boolean")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ApiError("tenant must be a non-empty string")
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ApiError("priority must be an integer")
    return JobRequest(
        kind=kind,
        dataset=dataset,
        constrained=constrained,
        engine=engine,
        seed=seed,
        trace=trace,
        tenant=tenant,
        priority=priority,
    )


def build_specs(request: JobRequest) -> List[JobSpec]:
    """The exec-engine specs a request executes, in execution order.

    The default engine maps to ``config=None`` (the spec's paper-default
    config) so pre-engine cache keys stay valid; any other engine rides
    in on an explicit :class:`RouterConfig` and therefore changes the
    cache key.
    """
    dataset = known_datasets()[request.dataset]
    config = (
        None
        if request.engine == DEFAULT_ENGINE
        else RouterConfig(routing_engine=request.engine)
    )
    if request.kind == "compare":
        return [
            JobSpec(dataset, constrained=True, config=config,
                    seed=request.seed),
            JobSpec(dataset, constrained=False, config=config,
                    seed=request.seed),
        ]
    return [
        JobSpec(dataset, constrained=request.constrained, config=config,
                seed=request.seed)
    ]


def job_key_of(request: JobRequest, specs: List[JobSpec]) -> str:
    """Deterministic job identity (idempotent-submission key).

    ``route`` jobs reuse the spec's cache key verbatim so the service's
    idempotency and the result cache address the same content.  Other
    kinds produce a different payload from the same record(s), so their
    key is a digest over the kind and every spec key.
    """
    keys = [spec.cache_key() for spec in specs]
    if request.kind == "route":
        return keys[0]
    digest = hashlib.sha256()
    digest.update(request.kind.encode("ascii"))
    for key in keys:
        digest.update(b"\x00")
        digest.update(key.encode("ascii"))
    return digest.hexdigest()
