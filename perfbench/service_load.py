"""Service workload: small-suite route jobs through the HTTP API.

Each round starts an in-process ``RoutingService`` on ``ServiceThread``
with a fresh ``ResultCache`` and ``workers`` = nproc, then runs a closed
loop of ``CLIENTS`` client threads over ``ServiceClient``:

* cold: ``COLD_JOBS`` route submissions over S1P1, S1P2 and S2P1 in both
  modes, each with its own generator seed drawn from the workload seed,
  so every one misses the cache and runs in a pool subprocess.  Every
  fourth is traced, so its events cross the telemetry relay.  A client
  learns that a job ended when its ``/jobs/{id}/events`` stream closes,
  which resolves far below a job's few tenths of a second
  (``ServiceClient.wait`` polls every 100 ms);
* warm: as soon as a cold job ends, its client submits it again,
  untraced, and the cache answers.  Warm samples thus spread over the
  round instead of landing in one burst.

Queue wait and execution time come from the job status timestamps.
Host probes taken every half second while the jobs run
(``ledger.ProbeSampler``) scale the round's ``flow_s`` and
``jobs_per_s`` to the host's nominal speed.
"""

from __future__ import annotations

import gc
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exec import ResultCache
from repro.service import (
    RoutingService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.api import build_specs, parse_job_request

from batch_load import run_flow
from ledger import (
    OUT_DIR,
    ProbeSampler,
    Spans,
    at_nominal,
    load_expected,
    median,
    percentile,
    probe_s,
    ratio,
)

COMBOS = [
    (name, constrained)
    for name in ("S1P1", "S1P2", "S2P1")
    for constrained in (True, False)
]

#: Cold jobs per round; a run has two rounds at least, so p90 has ten
#: samples beyond it.
COLD_JOBS = 60
MIN_ROUNDS = 2
CLIENTS = 2

#: Cold jobs re-run in-process (with the verifier) to check the
#: service's records at any seed.
RECHECKED = (0, COLD_JOBS // 2, COLD_JOBS - 1)

QUALITY = ("delay_ps", "area_mm2", "length_mm", "deletions")


def submissions(seed: int) -> List[Dict[str, Any]]:
    return [
        {
            "kind": "route",
            "dataset": COMBOS[i % len(COMBOS)][0],
            "constrained": COMBOS[i % len(COMBOS)][1],
            "seed": 10_000 * (seed + 1) + i,
            "trace": i % 4 == 3,
        }
        for i in range(COLD_JOBS)
    ]


def job_spec(payload: Dict[str, Any]):
    """The ``JobSpec`` the server builds for ``payload``."""
    return build_specs(parse_job_request(payload))[0]


@dataclass
class Call:
    """One submission as the client saw it."""

    index: int
    latency_s: float = 0.0
    status: Dict[str, Any] = field(default_factory=dict)
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def quality(self) -> Optional[Dict[str, float]]:
        if self.record is None:
            return None
        return {name: self.record[name] for name in QUALITY}


@dataclass
class Round:
    traced: bool
    setup_s: float
    loop_wall_s: float
    cold: List[Call]
    warm: List[Call]
    stats: Dict[str, Any]
    #: Mean of the host probes taken while the round's jobs ran.
    probe_s: float = 0.0


def _closed_loop(count: int, work) -> float:
    """Run ``work(i)`` for i < count over ``CLIENTS`` threads; each
    thread takes the next index only after its previous call ended."""
    lock = threading.Lock()
    next_index = iter(range(count))
    errors: List[BaseException] = []

    def client() -> None:
        while True:
            with lock:
                i = next(next_index, None)
            if i is None:
                return
            try:
                work(i)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                return

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def _cold_call(client, payload, call: Call, spans: Spans) -> None:
    job = f"cold{call.index}"
    started = time.perf_counter()
    with spans.span("service.submit", job):
        status = client.submit(payload)
    if status["status"] not in ("done", "failed"):
        with spans.span("service.events", job):
            for _ in client.events(status["id"]):
                pass
    call.latency_s = time.perf_counter() - started
    call.status = client.job(status["id"])
    if call.status["status"] not in ("done", "failed"):
        call.status = client.wait(status["id"], timeout_s=60.0, poll_s=0.01)


def _warm_call(client, payload, call: Call, spans: Spans) -> None:
    started = time.perf_counter()
    with spans.span("service.submit", f"warm{call.index}"):
        call.status = client.submit(dict(payload, trace=False))
    call.latency_s = time.perf_counter() - started


def _job_calls(client, payload, cold: Call, warm: Call, spans: Spans) -> None:
    for step, call in ((_cold_call, cold), (_warm_call, warm)):
        try:
            step(client, payload, call, spans)
        except (ServiceError, OSError, TimeoutError) as exc:
            call.error = f"{type(exc).__name__}: {exc}"
            return


def _fetch_record(client, call: Call) -> None:
    if call.status.get("status") != "done":
        call.error = call.error or f"ended {call.status.get('status')}"
        return
    record = client.result(call.status["id"])["result"]["record"]
    # Only what the checks and metrics read: whole records of every
    # round would grow the process with the number of rounds.
    call.record = {name: record[name] for name in QUALITY + ("violations",)}


def run_round(
    payloads: List[Dict[str, Any]], spans: Spans, scratch: str
) -> Round:
    setup_probe = probe_s()
    started = time.perf_counter()
    service = RoutingService(
        ServiceConfig(port=0, workers=os.cpu_count() or 1),
        cache=ResultCache(tempfile.mkdtemp(dir=scratch)),
    )
    thread = ServiceThread(service).start()
    try:
        client = ServiceClient(thread.base_url)
        client.healthz()
        setup_s = time.perf_counter() - started
        cold = [Call(i) for i in range(len(payloads))]
        warm = [Call(i) for i in range(len(payloads))]
        with ProbeSampler() as sampler:
            loop_wall_s = _closed_loop(
                len(payloads),
                lambda i: _job_calls(
                    client, payloads[i], cold[i], warm[i], spans
                ),
            )
        for call in cold + warm:
            if call.error is None:
                _fetch_record(client, call)
        stats = client.stats()
    finally:
        thread.stop()
    # The stopped service leaves reference cycles behind; collecting
    # them here keeps the process's peak memory from growing with the
    # number of rounds a run fits.
    gc.collect()
    return Round(
        spans.enabled, at_nominal(setup_s, setup_probe), loop_wall_s,
        cold, warm, stats, sampler.mean(),
    )


def check_rounds(
    rounds: List[Round],
    payloads: List[Dict[str, Any]],
    expected: Optional[Dict[str, Dict[str, float]]],
):
    """``(attempted, failed, problems)`` over every job (a cold submission
    and its warm resubmission).

    A cold job fails if it got a non-2xx answer, timed out or ended
    ``failed``, or if its record differs from an earlier round or, at the
    default seed, from ``expected.json``.  A warm one fails if it was not
    a cache hit or its record differs from the cold one.  The jobs in
    ``RECHECKED`` are also re-run in-process with the verifier.
    """
    attempted = failed = 0
    problems: List[str] = []
    first: Dict[int, Dict[str, float]] = {}
    for rnd in rounds:
        for cold, warm in zip(rnd.cold, rnd.warm):
            faults: List[str] = []
            attempted += 1
            job_id = job_spec(payloads[cold.index]).job_id
            got = cold.quality
            if got is None:
                faults.append(f"cold: {cold.error}")
            else:
                if got != first.setdefault(cold.index, got):
                    faults.append("cold record not repeatable")
                if expected is not None and got != expected.get(job_id):
                    faults.append(f"expected {expected.get(job_id)}, got {got}")
                if warm.quality != got:
                    faults.append(f"warm record differs: {warm.error}")
            if not warm.status.get("cached"):
                faults.append("warm resubmission was not a cache hit")
            if faults:
                failed += 1
                problems.extend(f"{job_id}: {fault}" for fault in faults)
    for index in RECHECKED:
        attempted += 1
        outcome = run_flow(job_spec(payloads[index]), Spans(False, 0.0))
        served = first.get(index)
        if outcome.problems or outcome.quality != served:
            failed += 1
            problems.append(
                f"cold{index}: in-process rerun {outcome.problems} "
                f"disagrees with the service's {served}"
            )
    return attempted, failed, problems


def _timings(rounds: List[Round]) -> Dict[str, List[float]]:
    """Client- and server-side timings of the rounds' jobs, pooled."""
    cold = [c for rnd in rounds for c in rnd.cold]
    done = [c for c in cold if c.status.get("finished_t")]
    exec_s = [c.status["finished_t"] - c.status["started_t"] for c in done]
    return {
        "latency": [c.latency_s for c in cold],
        "queue_wait": [
            c.status["started_t"] - c.status["created_t"] for c in done
        ],
        "exec": exec_s,
        "overhead": [c.latency_s - e for c, e in zip(done, exec_s)],
        "traced_exec": [
            e for c, e in zip(done, exec_s) if c.status.get("traced")
        ],
        "cached": [c.latency_s for rnd in rounds for c in rnd.warm],
    }


def wall_flow_s(rnd: Round) -> float:
    """The round's summed client latency of the cold jobs."""
    return sum(_timings([rnd])["latency"])


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """``flow_s`` is a round's summed client latency of the cold jobs at
    the host's nominal speed, the median over the rounds."""
    done = [c.quality for c in rounds[0].cold if c.quality is not None]
    return {
        "flow_s": median([
            at_nominal(wall_flow_s(r), r.probe_s) for r in rounds
        ]),
        "delay_ps": sum(q["delay_ps"] for q in done),
        "area_mm2": sum(q["area_mm2"] for q in done),
        "length_mm": sum(q["length_mm"] for q in done),
        "jobs_per_s": median([
            COLD_JOBS / at_nominal(r.loop_wall_s, r.probe_s) for r in rounds
        ]),
    }


def per_layer(rounds: List[Round]) -> Dict[str, float]:
    """Service-side metrics over every round of a traced run; shares are
    of the summed client latency."""
    t = _timings(rounds)
    latency = sum(t["latency"])
    cache = [r.stats.get("cache") or {} for r in rounds]
    hits = sum(c.get("hits", 0) for c in cache)
    lookups = hits + sum(c.get("misses", 0) for c in cache)
    return {
        "service.job_latency_p50_s": median(t["latency"]),
        "service.job_latency_p90_s": percentile(t["latency"], 90),
        "service.cached_latency_p50_s": median(t["cached"]),
        "service.queue_wait_s_p50": median(t["queue_wait"]),
        "service.exec_s_p50": median(t["exec"]),
        "service.exec_s_p90": percentile(t["exec"], 90),
        "service.overhead_s_p50": median(t["overhead"]),
        "service.queue_wait_share": ratio(sum(t["queue_wait"]), latency),
        "service.exec_share": ratio(sum(t["exec"]), latency),
        "service.overhead_share": ratio(sum(t["overhead"]), latency),
        "service.pool_executions": median([
            float(r.stats["metrics"].get("service.pool_executions", 0))
            for r in rounds
        ]),
        "exec.cache_hit_ratio": ratio(hits, lookups),
        "relay.traced_exec_s_p50": median(t["traced_exec"]),
        "signoff.timing_violations": float(sum(
            c.record["violations"] for c in rounds[0].cold if c.record
        )),
    }


def measure(
    workload: str, seed: int, trace: bool, deadline: float, scratch: str
) -> Dict[str, Any]:
    payloads = submissions(seed)
    spans = Spans(False, time.perf_counter())
    rounds: List[Round] = []
    durations: List[float] = []
    # Set-up (server start) is sampled in every round, and a traced run
    # alternates untraced and traced rounds.
    while (
        len(rounds) < MIN_ROUNDS
        or time.perf_counter() + durations[-1] <= deadline
    ):
        spans.enabled = trace and len(rounds) % 2 == 1
        round_started = time.perf_counter()
        rounds.append(run_round(payloads, spans, scratch))
        durations.append(time.perf_counter() - round_started)

    expected = load_expected(workload) if seed == 0 else None
    attempted, failed, problems = check_rounds(rounds, payloads, expected)
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(rounds),
        "jobs": COLD_JOBS,
        "setup_parts": {
            "server_start_s": median([r.setup_s for r in rounds]),
        },
        "end_to_end": end_to_end(untraced),
        "wall_flow_s": median([wall_flow_s(r) for r in untraced]),
    }
    if traced:
        layers = per_layer(rounds)
        untraced_p50 = median(_timings(untraced)["latency"])
        layers["trace.overhead_pct"] = 100.0 * ratio(
            median(_timings(traced)["latency"]) - untraced_p50, untraced_p50
        )
        result["per_layer"] = layers
        spans.write(
            OUT_DIR / f"{workload}-seed{seed}.json",
            {"workload": workload, "seed": seed},
        )
    return result
