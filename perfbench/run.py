"""Verified-flow benchmark of the router: one workload, one seed, one run.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the router is imported from ``src/``.
Workloads and metrics are listed in ``BENCHMARK.json``:

* ``table2``: the paper's Table 2 run, five designs with and without
  constraints under the edge-deletion engine (``batch_load.py``);
* ``negotiated``: CGP1 and C1P1 under the negotiated engine, which
  shares every layer but the deletion loop (``batch_load.py``);
* ``service``: small-suite jobs through the HTTP API (``service_load.py``).

A run repeats rounds of the workload's fixed job list for ``--seconds``
and reports medians.  A shared host runs the benchmark at full speed or
at about half of it for seconds at a time, so ``flow_s``,
``jobs_per_s`` and ``setup_s`` are wall times scaled to the host's
nominal speed by a fixed probe timed beside them (``ledger.probe_s``);
the flows' raw wall time is in the JSON line as ``wall_flow_s``.
``setup_s`` counts the median import time over ``IMPORT_SAMPLES`` fresh
interpreters.
``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds traced work beside the untraced work, prints the
per-layer metrics and writes the traced spans to ``.perfbench-out/``.
Every run checks its outputs (see ``check_rounds`` in each workload).
Before the result, stdout carries a metric table and one JSON line
with the machine stamp, seed, round and job counts and any problems;
the last line is the result object.
"""

import argparse
import importlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MODULES = {
    "table2": "batch_load",
    "negotiated": "batch_load",
    "service": "service_load",
}

#: Fresh interpreters that time the workload's imports; ``setup_s``
#: counts the median.
IMPORT_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_metrics(measured, trace, spec, setup_s, rss_mb):
    """``{name: {"value", "unit"}}`` for every metric ``BENCHMARK.json``
    lists for this mode.  Per-layer metrics of a layer the workload
    bypasses read 0."""
    if trace:
        values = dict(measured.get("per_layer", {}))
        values["failed_share"] = measured["failed"] / measured["attempted"]
        return {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    values = dict(measured["end_to_end"], setup_s=setup_s, peak_rss_mb=rss_mb)
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def import_s(module: str) -> float:
    """Median wall time, at the host's nominal speed, of importing
    ``module``, and through it the router, in a fresh interpreter.  The
    interpreter scales its own import by the median of three probes it
    takes right after it, on the core it ran on."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        f"started = time.perf_counter(); import {module}; "
        "wall_s = time.perf_counter() - started; import ledger; "
        "probes = [ledger.probe_s() for _ in range(3)]; "
        "print(ledger.at_nominal(wall_s, ledger.median(probes)))"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(child.stdout))
    return ledger.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT} holds no src/repro to benchmark")
    module = importlib.import_module(MODULES[args.workload])
    imports_s = import_s(MODULES[args.workload])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ledger.OUT_DIR) as scratch:
        measured = module.measure(
            args.workload, args.seed, bool(args.trace),
            time.perf_counter() + args.seconds, scratch,
        )
    setup_s = imports_s + sum(measured["setup_parts"].values())
    metrics = report_metrics(
        measured, args.trace, spec, setup_s, ledger.peak_rss_mb()
    )
    for name, metric in metrics.items():
        print(f"{name:<34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": ledger.machine_stamp(),
        "rounds": measured["rounds"],
        "jobs": measured["jobs"],
        "setup_parts": dict(measured["setup_parts"], import_s=imports_s),
        "wall_flow_s": measured.get("wall_flow_s"),
        "problems": measured["problems"][:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
