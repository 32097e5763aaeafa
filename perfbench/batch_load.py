"""Batch workloads ``table2`` and ``negotiated``: verified flows in-process.

One job is one verified flow, the calls ``run_dataset`` makes plus the
verifier:

    make_dataset                      (input generation, counted as set-up)
    critical_path_lower_bound_ps  ->  make_engine(...).route()
        ->  route_channels  ->  sign_off  ->  verify_routing

Each call is timed from outside.  Route sub-phases and work counts come
from the ``PhaseProfiler`` and ``MetricsRegistry`` passed into
``make_engine``; nothing inside the router is instrumented for the
benchmark.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.signoff import sign_off
from repro.baselines.lower_bound import critical_path_lower_bound_ps
from repro.bench.circuits import (
    DatasetSpec,
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.channelrouter.leftedge import route_channels
from repro.core.config import RouterConfig
from repro.core.verify import verify_routing
from repro.engines import make_engine
from repro.exec import JobSpec
from repro.layout.floorplan import assign_external_pins
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler

from ledger import (
    OUT_DIR,
    Spans,
    at_nominal,
    load_expected,
    median,
    probe_s,
    ratio,
)

#: Spans of one flow, in call order; their sum is the job's flow time.
FLOW_SPANS = (
    "lower_bound.wall_s",
    "router.route_s",
    "channel.route_channels_s",
    "signoff.sign_off_s",
    "verify.verify_routing_s",
)

#: Route sub-phases read from the profiler tree (path below the root).
ROUTE_PHASES = {
    "router.setup_s": ("route", "setup"),
    "router.setup.timing_s": ("route", "setup", "timing"),
    "router.setup.assignment_s": ("route", "setup", "assignment"),
    "router.setup.graphs_s": ("route", "setup", "graphs"),
    "router.setup.density_s": ("route", "setup", "density"),
    "router.initial_s": ("route", "initial"),
    "router.recover_violate_s": ("route", "recover_violate"),
    "router.improve_delay_s": ("route", "improve_delay"),
    "router.improve_area_s": ("route", "improve_area"),
    "router.negotiate_s": ("route", "negotiate"),
    "router.finalize_s": ("route", "finalize"),
}

#: The phases directly below the profiler's ``route`` scope.
ROUTE_TOP_PHASES = tuple(
    name for name, path in ROUTE_PHASES.items() if len(path) == 2
)

#: Benchmark metric name -> flattened ``MetricsRegistry`` key.
REGISTRY = {
    "router.deletions": "router.deletions",
    "router.heap_stale": "router.heap_stale",
    "router.tree_dijkstra_runs": "router.tree_dijkstra_runs",
    "router.timing_update_calls": "router.timing_analyses",
    "router.reroutes": "router.reroutes",
    "router.tree_eval_s": "router.tree_eval_s.total",
    "router.timing_analysis_s": "router.timing_analysis_s.total",
    "graph.reclassify_s": "graph.reclassify_s.total",
    "negotiate.iterations": "negotiate.iterations",
    "negotiate.astar_pops": "negotiate.astar_pops",
    "negotiate.reroutes": "negotiate.reroutes",
    "negotiate.cap_relaxations": "negotiate.cap_relaxations",
    "channel.tracks_total": "channel.tracks_total",
    "channel.dogleg_splits": "channel.dogleg_splits",
    "channel.constraint_breaks": "channel.constraint_breaks",
    # Ratio operands, reported only as the ratios in ``per_layer``.
    "_key_evals": "router.key_evals",
    "_tree_evals": "router.tree_evals",
    "_tree_fastpath_hits": "router.tree_fastpath_hits",
    "_bridge_local": "graph.bridge_local_recomputes",
    "_bridge_full": "graph.bridge_full_fallbacks",
}


def design_seed(spec: DatasetSpec, seed: int, variant: int) -> Optional[int]:
    """Generator seed of one design.  Variant 0 at workload seed 0 keeps
    the committed seed; every other (seed, variant) pair derives its own,
    shared by the P1 and P2 placements of one circuit."""
    if seed == 0 and variant == 0:
        return None
    return spec.circuit.seed + 1000 * (16 * seed + variant)


def table2_jobs(seed: int) -> List[JobSpec]:
    """The paper's Table 2 (five designs, with and without constraints)
    for four design variants."""
    return [
        JobSpec(spec, constrained, seed=design_seed(spec, seed, variant))
        for variant in range(4)
        for spec in standard_suite()
        for constrained in (True, False)
    ]


def negotiated_jobs(seed: int) -> List[JobSpec]:
    """CGP1 and C1P1 with constraints under the negotiated engine, for
    sixteen design variants.  Small designs give many independent ones
    per second: one C3P1 takes as long as eight of these and swings the
    sum by a quarter from one variant to the next."""
    config = RouterConfig(routing_engine="negotiated")
    specs = congestion_suite() + [
        s for s in standard_suite() if s.name == "C1P1"
    ]
    return [
        JobSpec(spec, True, config=config,
                seed=design_seed(spec, seed, variant))
        for variant in range(16)
        for spec in specs
    ]


#: A run repeats one fixed job list per workload.  Many design variants
#: per list keep the sums steady from one workload seed to the next,
#: since single designs of one size differ in routing effort by a
#: fifth to a quarter.
JOBS = {"table2": table2_jobs, "negotiated": negotiated_jobs}


@dataclass
class FlowOutcome:
    """One verified flow.  ``quality`` holds the values compared against
    ``expected.json``; it stays ``None`` when the flow raised."""

    job: str
    make_dataset_s: float
    flow_s: float = 0.0
    #: Mean of the host probes taken just before and just after the flow.
    probe_s: float = 0.0
    quality: Optional[Dict[str, float]] = None
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)


def run_flow(spec: JobSpec, spans: Spans) -> FlowOutcome:
    """Generate one job's design, then run and time its verified flow."""
    job = spec.job_id
    with spans.span("job", job):
        started = time.perf_counter()
        with spans.span("circuits.make_dataset_s", job):
            dataset = make_dataset(spec.resolved_dataset(), spec.technology)
        outcome = FlowOutcome(job, time.perf_counter() - started)
        try:
            _flow(spec, dataset, spans, outcome)
        except Exception as exc:  # noqa: BLE001 - a raising job fails, the run goes on
            outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
    return outcome


def _flow(spec: JobSpec, dataset, spans: Spans, outcome: FlowOutcome) -> None:
    job = outcome.job
    technology = spec.technology
    config = spec.resolved_config()
    circuit, placement = dataset.circuit, dataset.placement
    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    probe_before = probe_s()
    started = time.perf_counter()
    with spans.span("lower_bound.wall_s", job):
        assign_external_pins(circuit, placement)
        critical_path_lower_bound_ps(circuit, placement, technology)
    with spans.span("router.route_s", job):
        router = make_engine(
            circuit, placement, dataset.constraints, config,
            metrics=metrics, profiler=profiler,
        )
        result = router.route()
    with spans.span("channel.route_channels_s", job):
        channels = route_channels(
            result, placement, technology, metrics=metrics
        )
    with spans.span("signoff.sign_off_s", job):
        report = sign_off(
            circuit, placement, result, channels, dataset.constraints,
            technology, config.width_cap_exponent, gd=router.gd,
        )
    with spans.span("verify.verify_routing_s", job):
        violations = verify_routing(
            circuit, placement, result, router.assignment
        )
    outcome.flow_s = time.perf_counter() - started
    outcome.probe_s = (probe_before + probe_s()) / 2
    outcome.problems.extend(f"verify: {v}" for v in violations[:5])
    outcome.quality = {
        "delay_ps": report.critical_delay_ps,
        "area_mm2": report.area_mm2,
        "length_mm": report.total_length_mm,
        "deletions": result.deletions,
    }
    if not spans.enabled:
        return
    layers = outcome.layers
    layers["circuits.make_dataset_s"] = outcome.make_dataset_s
    for name in FLOW_SPANS:
        layers[name] = spans.wall_s(name, job)
    for name, path in ROUTE_PHASES.items():
        layers[name] = profiler.wall_s(*path)
    flat = metrics.flat()
    for name, key in REGISTRY.items():
        layers[name] = flat.get(key, 0.0)
    layers["signoff.timing_violations"] = float(len(report.violations))
    layers["verify.violations"] = float(len(violations))
    outcome.profile = profiler.to_dict()


@dataclass
class Round:
    """One pass over the job list."""

    untraced: List[FlowOutcome] = field(default_factory=list)
    traced: List[FlowOutcome] = field(default_factory=list)


def run_round(jobs: List[JobSpec], spans: Optional[Spans]) -> Round:
    """Each job's verified flow and, with ``spans``, the same flow again,
    traced, on a fresh copy of its design: pairing them job by job keeps
    the tracing overhead apart from the machine's drift."""
    untraced = Spans(False, 0.0)
    rnd = Round()
    for spec in jobs:
        rnd.untraced.append(run_flow(spec, untraced))
        if spans is not None:
            rnd.traced.append(run_flow(spec, spans))
    return rnd


def warm_up(workload: str) -> float:
    """One small verified flow under the workload's engine, so numpy's
    first calls and lazy imports land in set-up, not in the first job;
    returns its probe (see ``ledger.probe_s``)."""
    config = JOBS[workload](0)[0].config
    spec = JobSpec(small_suite()[0], True, config=config)
    outcome = run_flow(spec, Spans(False, 0.0))
    if outcome.problems:
        raise RuntimeError(f"warm-up flow failed: {outcome.problems}")
    return outcome.probe_s


def check_rounds(
    rounds: List[Round], expected: Optional[Dict[str, Dict[str, float]]]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every flow.

    A flow fails when it raised, failed verification, or produced
    quality values that differ from the job's first flow or, at the
    default seed, from ``expected.json``.
    """
    attempted = failed = 0
    problems: List[str] = []
    first: Dict[str, Dict[str, float]] = {}
    for rnd in rounds:
        for outcome in rnd.untraced + rnd.traced:
            attempted += 1
            faults = list(outcome.problems)
            got = outcome.quality
            if got is not None:
                reference = first.setdefault(outcome.job, got)
                if got != reference:
                    faults.append(f"not repeatable: {got} vs {reference}")
                if expected is not None and got != expected.get(outcome.job):
                    faults.append(
                        f"expected {expected.get(outcome.job)}, got {got}"
                    )
            if faults:
                failed += 1
                problems.extend(f"{outcome.job}: {i}" for i in faults)
    return attempted, failed, problems


def per_job_median(
    rounds: List[Round], value: Callable[[FlowOutcome], float]
) -> Dict[str, float]:
    """Each job's median over the rounds of ``value`` of its untraced
    flow."""
    samples: Dict[str, List[float]] = {}
    for rnd in rounds:
        for outcome in rnd.untraced:
            samples.setdefault(outcome.job, []).append(value(outcome))
    return {job: median(values) for job, values in samples.items()}


def nominal_flow_s(outcome: FlowOutcome) -> float:
    """The flow's wall time at the host's nominal speed (see
    ``ledger.probe_s``)."""
    return at_nominal(outcome.flow_s, outcome.probe_s)


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """User-facing metrics of the untraced flows; ``flow_s`` sums each
    job's median flow time at nominal host speed over the jobs."""
    flow_s = sum(per_job_median(rounds, nominal_flow_s).values())
    done = [o.quality for o in rounds[0].untraced if o.quality is not None]
    return {
        "flow_s": flow_s,
        "delay_ps": sum(q["delay_ps"] for q in done),
        "area_mm2": sum(q["area_mm2"] for q in done),
        "length_mm": sum(q["length_mm"] for q in done),
        "jobs_per_s": ratio(len(done), flow_s),
    }


def per_layer(outcomes: List[FlowOutcome]) -> Dict[str, float]:
    """Per-layer metrics of traced flows, summed over them."""
    totals: Counter = Counter()
    for outcome in outcomes:
        totals.update(outcome.layers)
    flow_s = sum(o.flow_s for o in outcomes)
    layers = {k: v for k, v in totals.items() if not k.startswith("_")}
    layers["router.key_evals_per_deletion"] = ratio(
        totals["_key_evals"], totals["router.deletions"]
    )
    layers["router.tree_fastpath_ratio"] = ratio(
        totals["_tree_fastpath_hits"], totals["_tree_evals"]
    )
    layers["graph.local_recompute_ratio"] = ratio(
        totals["_bridge_local"],
        totals["_bridge_local"] + totals["_bridge_full"],
    )
    # Engine construction and result building run outside every
    # profiler phase but inside the route layer's span.
    layers["router.unprofiled_s"] = totals["router.route_s"] - sum(
        totals[name] for name in ROUTE_TOP_PHASES
    )
    for name in list(layers):
        if name.endswith("_s") and name != "circuits.make_dataset_s":
            layers[name[:-2] + "_share"] = ratio(layers[name], flow_s)
    return layers


def measure(
    workload: str, seed: int, trace: bool, deadline: float, scratch: str
) -> Dict[str, Any]:
    """Run rounds of the workload until ``deadline``; see ``run.py``."""
    probe_s()  # builds the probe's memory ring before any timing
    started = time.perf_counter()
    probe = warm_up(workload)
    warm_up_s = at_nominal(time.perf_counter() - started, probe)
    jobs = JOBS[workload](seed)
    spans = Spans(True, started) if trace else None
    rounds: List[Round] = []
    durations: List[float] = []
    while not rounds or time.perf_counter() + durations[-1] <= deadline:
        round_started = time.perf_counter()
        rounds.append(run_round(jobs, spans))
        durations.append(time.perf_counter() - round_started)

    expected = load_expected(workload) if seed == 0 else None
    attempted, failed, problems = check_rounds(rounds, expected)
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(rounds),
        "jobs": len(jobs),
        "setup_parts": {
            "warm_up_s": warm_up_s,
            "make_dataset_s": sum(
                per_job_median(
                    rounds, lambda o: at_nominal(o.make_dataset_s, o.probe_s)
                ).values()
            ),
        },
        "end_to_end": end_to_end(rounds),
        "wall_flow_s": sum(
            per_job_median(rounds, lambda o: o.flow_s).values()
        ),
    }
    if spans is not None:
        layers = [per_layer(r.traced) for r in rounds]
        merged = {
            name: median([layer[name] for layer in layers])
            for name in layers[0]
        }
        untraced_s = sum(
            nominal_flow_s(o) for r in rounds for o in r.untraced
        )
        traced_s = sum(nominal_flow_s(o) for r in rounds for o in r.traced)
        merged["trace.overhead_pct"] = 100.0 * ratio(
            traced_s - untraced_s, untraced_s
        )
        result["per_layer"] = merged
        spans.write(
            OUT_DIR / f"{workload}-seed{seed}.json",
            {
                "workload": workload,
                "seed": seed,
                "profiles": {o.job: o.profile for o in rounds[-1].traced},
            },
        )
    return result
