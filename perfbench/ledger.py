"""Shared pieces of the benchmark: spans, statistics, machine stamp.

Nothing here imports the router, so ``run.py`` can time the router's
import separately.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parents[1]

#: Where traced runs write their spans; listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench-out"

#: Per-job quality values at the default seed (``record_expected.py``).
EXPECTED = Path(__file__).resolve().with_name("expected.json")


def load_expected(workload: str) -> Dict[str, Dict[str, float]]:
    """Job id -> quality values recorded for ``workload`` at seed 0."""
    return json.loads(EXPECTED.read_text())[workload]


class Spans:
    """Benchmark-side spans around calls into the router's public API.

    A disabled recorder yields without reading the clock, so untraced
    rounds run the same code path as traced ones.  Spans stay in memory
    until :meth:`write`.
    """

    def __init__(self, enabled: bool, origin: float):
        self.enabled = enabled
        self.origin = origin
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, job: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record: Dict[str, Any] = {
            "name": name,
            "job": job,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self.origin,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_s"] = time.perf_counter() - self.origin
            self._stack.pop()

    def wall_s(self, name: str, job: str) -> float:
        """Summed duration of the spans called ``name`` within ``job``."""
        return sum(
            s["end_s"] - s["start_s"]
            for s in self.spans
            if s["name"] == name and s["job"] == job
        )

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, spans=self.spans)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))


#: What :func:`probe_s` takes on an idle 2-vCPU Xeon at 2.0 GHz.
NOMINAL_PROBE_S = 0.019

@functools.lru_cache(maxsize=None)
def _ring() -> List[int]:
    """One cycle through 2**18 slots (Sattolo's shuffle) for the probe's
    pointer chase, so that it reads memory beyond the core's own caches
    as the router does.  Built on first use, not on import, so that it
    stays out of the import time ``run.py`` measures."""
    ring = list(range(1 << 18))
    rng = random.Random(0)
    for i in range(len(ring) - 1, 0, -1):
        j = rng.randrange(i)
        ring[i], ring[j] = ring[j], ring[i]
    return ring


def probe_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """Time by ``clock`` of a fixed piece of interpreter work: dict
    updates, a bounded heap and a pointer chase, the router's own mix.

    A shared host runs this process at full speed or at about half of it
    for seconds at a time.  A flow's wall time times ``NOMINAL_PROBE_S``
    over the probe taken beside it is its time at the nominal speed.
    The probe runs no router code, so a faster router still reads
    faster.
    """
    ring = _ring()
    started = clock()
    counts: Dict[int, int] = {}
    heap: List[int] = []
    for i in range(30_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 256:
            heapq.heappop(heap)
    slot = 0
    for _ in range(15_000):
        slot = ring[slot]
    return clock() - started


class ProbeSampler:
    """Probes taken on a thread of their own every half second while the
    ``with`` block runs, for work spread over several processes.

    Each probe is timed by the thread's CPU clock, which runs at the
    speed of whichever core the thread landed on and does not count
    waits for the GIL held by the threads being measured.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.probes.append(probe_s(time.thread_time))
            if self._stop.wait(0.5):
                return

    def __enter__(self) -> "ProbeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def mean(self) -> float:
        return statistics.fmean(self.probes)


def at_nominal(wall_s: float, probe: float) -> float:
    """``wall_s``, measured beside a probe that took ``probe`` seconds,
    at the host's nominal speed."""
    return wall_s * NOMINAL_PROBE_S / probe


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "commit": _git_commit(),
    }
