"""End-to-end benchmark runs: dataset → global route → channel route →
sign-off → HPWL lower bound (:func:`run_flow`), with and without timing
constraints (the two halves of the paper's Table 2), each summed up as
one :class:`RunRecord` (a row of Tables 2 and 3)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.signoff import SignoffReport, sign_off
from ..baselines.lower_bound import critical_path_lower_bound_ps
from ..channelrouter.leftedge import ChannelRoutingResult, route_channels
from ..core.config import RouterConfig
from ..core.result import GlobalRoutingResult
from ..engines import RoutingEngine, make_engine
from ..layout.floorplan import assign_external_pins
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..obs.events import TraceSink, Tracer
from ..obs.metrics import MetricsRegistry, current_scoped_registry
from ..obs.profile import PhaseProfiler
from ..tech import Technology
from ..timing.constraint import PathConstraint
from .circuits import Dataset, DatasetSpec, make_dataset


class Flow(NamedTuple):
    """One routed design: the engine that routed it, each stage's result
    and the Table 3 bound."""

    router: RoutingEngine
    global_result: GlobalRoutingResult
    channel_result: ChannelRoutingResult
    signoff: SignoffReport
    lower_bound_ps: float


def run_flow(
    circuit: Circuit,
    placement: Placement,
    constraints: Sequence[PathConstraint],
    config: RouterConfig,
    *,
    trace_sink: Optional[TraceSink] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[PhaseProfiler] = None,
    decision_sampling: Optional[str] = None,
) -> Flow:
    """Globally route, channel-route, sign off and bound one design —
    the one place the flow is wired; the ``route`` command and every
    bench, batch and service run go through here.

    Sign-off uses the router's technology, width-cap exponent and delay
    graph ("the same delay model"); all stages share one tracer, the
    engine's metrics registry and one profiler, whose root phases are
    ``route``, ``build_result``, ``route_channels``, ``sign_off`` and
    ``lower_bound``.  The Table 3 bound is taken on the routed chip (the
    signed-off channel heights) for a timing-driven run, and before
    routing for the unconstrained baseline, so its ``lower_bound``
    phase comes first.  Routing mutates ``placement``.
    """
    tracer = Tracer.of(trace_sink)
    if profiler is None:
        profiler = PhaseProfiler()
    router = make_engine(
        circuit, placement, constraints, config,
        trace_sink=tracer, metrics=metrics, profiler=profiler,
        decision_sampling=decision_sampling,
    )
    technology = config.technology
    if not config.timing_driven:
        with profiler.phase("lower_bound"):
            # The router assigns the same pins; only unassigned ones move.
            assign_external_pins(circuit, placement)
            lower_bound = critical_path_lower_bound_ps(
                circuit, placement, technology
            )
    global_result = router.route()
    with profiler.phase("route_channels"):
        channel_result = route_channels(
            global_result, placement, technology,
            metrics=router.metrics, tracer=tracer,
        )
    with profiler.phase("sign_off"):
        signoff = sign_off(
            circuit, placement, global_result, channel_result,
            constraints, technology, config.width_cap_exponent,
            gd=router.gd,
        )
    if config.timing_driven:
        with profiler.phase("lower_bound"):
            lower_bound = critical_path_lower_bound_ps(
                circuit, placement, technology,
                channel_tracks=signoff.floorplan.channel_tracks,
            )
    return Flow(router, global_result, channel_result, signoff, lower_bound)


@dataclass
class RunRecord:
    """One row of raw results (one dataset, one routing mode).

    Scalar columns are exported everywhere — JSON, tables, CSV — in the
    single canonical order given by :meth:`fields` (declaration order
    plus the derived ``gap_to_bound_pct``); ``metrics`` is the run's
    observability snapshot and is exported as a nested mapping, never as
    a column.
    """

    dataset: str
    constrained: bool
    delay_ps: float
    area_mm2: float
    length_mm: float
    cpu_s: float
    lower_bound_ps: float
    violations: int
    worst_margin_ps: float
    cells: int
    nets: int
    n_constraints: int
    feed_cells_inserted: int
    deletions: int
    reroutes: int
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def gap_to_bound_pct(self) -> float:
        """Table 3's "difference from the lower bound" percentage."""
        if self.lower_bound_ps <= 0.0:
            return 0.0
        return 100.0 * (self.delay_ps - self.lower_bound_ps) / self.lower_bound_ps

    @classmethod
    def fields(cls) -> Tuple[str, ...]:
        """Canonical scalar export order (single source of truth for
        :func:`repro.io.json_report.run_record_to_dict` and any tabular
        export)."""
        names = tuple(
            f.name for f in dataclasses.fields(cls) if f.name != "metrics"
        )
        return names + ("gap_to_bound_pct",)

    def to_row(self) -> Dict[str, Any]:
        """Scalar columns as an ordered dict, following :meth:`fields`."""
        return {name: getattr(self, name) for name in self.fields()}

    @classmethod
    def from_flow(cls, flow: Flow, dataset: str) -> "RunRecord":
        """The record of one routed flow (the one place a record is
        built): the signed-off delay, area and length, the flow's Table 3
        bound, the routed design's Table 1 sizes and the engine's flat
        metrics snapshot."""
        engine, global_result, _, report, lower_bound = flow
        router = engine.router  # the engine's shared GlobalRouter state
        margins = report.constraint_margins
        return cls(
            dataset=dataset,
            constrained=router.config.timing_driven,
            delay_ps=report.critical_delay_ps,
            area_mm2=report.area_mm2,
            length_mm=report.total_length_mm,
            cpu_s=report.cpu_seconds,
            lower_bound_ps=lower_bound,
            violations=len(report.violations),
            worst_margin_ps=(
                min(margins.values()) if margins else float("inf")
            ),
            cells=len(router.circuit.logic_cells),
            nets=len(router.circuit.routable_nets),
            n_constraints=len(router.constraints),
            feed_cells_inserted=global_result.feed_cells_inserted,
            deletions=global_result.deletions,
            reroutes=global_result.reroutes,
            metrics=engine.metrics.flat(),
        )


def run_dataset(
    spec: DatasetSpec,
    constrained: bool = True,
    technology: Technology = Technology(),
    config: Optional[RouterConfig] = None,
    *,
    trace_sink: Optional[TraceSink] = None,
    profiler: Optional[PhaseProfiler] = None,
    decision_sampling: Optional[str] = None,
) -> Tuple[RunRecord, GlobalRoutingResult, SignoffReport, Dataset]:
    """Route one dataset in one mode and return all artifacts.

    A fresh netlist/placement is materialized per run (routing mutates the
    placement via feed-cell insertion, so runs must not share one).  Each
    run gets its own metrics registry — except under the batch engine's
    per-job :func:`~repro.obs.metrics.scoped_registry`, where the run
    publishes into that (equally fresh) scope so the relay's live
    ``metrics_snapshot`` records can see the counters mid-run.  Either
    way the flattened snapshot rides along on ``RunRecord.metrics``.
    Pass ``trace_sink`` to capture the run's structured event stream,
    ``profiler`` to share a phase profiler (each record still reports
    its own route time), and ``decision_sampling``
    (``all``/``off``/``nth:N``) to control deletion-decision records in
    the trace.
    """
    dataset = make_dataset(spec, technology)
    if config is None:
        config = RouterConfig(technology=technology)
    if not constrained:
        config = config.unconstrained()
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints, config,
        trace_sink=trace_sink, metrics=current_scoped_registry(),
        profiler=profiler, decision_sampling=decision_sampling,
    )
    record = RunRecord.from_flow(flow, spec.name)
    return record, flow.global_result, flow.signoff, dataset


def pair_records(
    with_c: RunRecord, without_c: RunRecord
) -> Tuple[RunRecord, RunRecord]:
    """Stitch two independently produced records into a Table 2/3 pair.

    The constrained record's Table 3 bound is measured on the routed
    chip (see :func:`run_flow`); the unconstrained record adopts it
    so both rows share one per-dataset bound.
    """
    without_c.lower_bound_ps = with_c.lower_bound_ps
    return with_c, without_c


def run_pair(
    spec: DatasetSpec,
    technology: Technology = Technology(),
    config: Optional[RouterConfig] = None,
) -> Tuple[RunRecord, RunRecord]:
    """Route one dataset with and without constraints (one Table 2 row
    pair).

    Both records share the constrained run's Table 3 bound, measured on
    the routed chip (see :func:`pair_records`).  Delegates to the batch
    engine's job runner so serial and batch results are identical.
    """
    from ..exec.jobs import JobSpec, execute_job

    with_c = execute_job(JobSpec(spec, True, technology, config))
    without_c = execute_job(JobSpec(spec, False, technology, config))
    return pair_records(with_c, without_c)


def run_suite(
    specs: List[DatasetSpec],
    technology: Technology = Technology(),
    config: Optional[RouterConfig] = None,
    *,
    workers: int = 0,
    cache: Optional["ResultCache"] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    on_event=None,
) -> List[Tuple[RunRecord, RunRecord]]:
    """Route every dataset in both modes, via the batch engine.

    With the defaults this is the historical serial sweep (inline, no
    cache).  ``workers`` fans the 2×len(specs) jobs out across
    subprocesses; ``cache`` memoizes each job on disk (see
    :mod:`repro.exec`).  Raises :class:`~repro.errors.RoutingError` if
    any job ultimately fails, since a suite with holes cannot fill the
    paper's tables.
    """
    from ..errors import RoutingError
    from ..exec import JobSpec, run_batch

    jobs: List["JobSpec"] = []
    for spec in specs:
        jobs.append(JobSpec(spec, True, technology, config))
        jobs.append(JobSpec(spec, False, technology, config))
    sweep = run_batch(
        jobs,
        workers=workers,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        on_event=on_event,
    )
    if not sweep.all_ok:
        raise RoutingError(f"suite sweep failed:\n{sweep.summary()}")
    records = sweep.records()
    return [
        pair_records(records[2 * i], records[2 * i + 1])
        for i in range(len(specs))
    ]
