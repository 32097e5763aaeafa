"""CI smoke test for the observability surface of the routing service.

Black-box, over real HTTP against a real server subprocess (workers and
crash isolation ON, so traced jobs exercise the telemetry relay):

1. start ``python -m repro.cli serve`` on an ephemeral port;
2. submit a **traced** route job; assert its event stream carries
   ``progress_heartbeat`` events and full relay context
   (``run_id``/``job_id``/``worker``) on every event, with the worker a
   real subprocess, and that ``PhaseProfiler.from_events`` rebuilds a
   balanced phase tree from it: roots ``route``, ``build_result``,
   ``route_channels``, ``sign_off``, with ``route`` holding ``setup``,
   ``initial`` and ``finalize``;
3. assert ``GET /jobs/{id}/metrics`` returns the live/heartbeat/final
   triple with real router counters;
4. fetch ``GET /metrics`` and validate the Prometheus text exposition
   line by line (TYPE comments, sample syntax, quantile labels, the
   ``repro_jobs_*`` fleet families);
5. run ``repro-router trace tail <job> --url ...`` against the finished
   job and assert it renders one line per event;
6. SIGINT the server and assert a clean exit.

Exit code 0 on success, 1 on any assertion failure (the server log is
uploaded by CI when that happens).

Usage::

    python benchmarks/obs_smoke.py [--dataset C1P1] [--log-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.obs import PhaseProfiler, TraceEvent  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)
    print(f"  ok: {message}")


def wait_for_healthz(client: ServiceClient, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if client.healthz()["status"] == "ok":
                return
        except Exception:
            pass
        time.sleep(0.2)
    raise SmokeFailure(f"/healthz not ready within {timeout_s}s")


def read_banner_port(log_path: Path, timeout_s: float) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        text = log_path.read_text() if log_path.exists() else ""
        if "listening on http://" in text:
            address = text.split("listening on http://")[1].split()[0]
            return int(address.rsplit(":", 1)[1])
        time.sleep(0.2)
    raise SmokeFailure(f"no listening banner within {timeout_s}s")


_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf'^{_NAME}(\{{quantile="[0-9.]+"\}})? (-?[0-9.eE+-]+|NaN|\+Inf)$'
)
_TYPE = re.compile(rf"^# TYPE {_NAME} (counter|gauge|summary)$")


def validate_exposition(text: str) -> int:
    """Every line must be a TYPE comment or a valid sample; returns the
    number of sample lines."""
    samples = 0
    for line in text.strip().splitlines():
        if line.startswith("#"):
            if not _TYPE.match(line):
                raise SmokeFailure(f"bad comment line: {line!r}")
        elif _SAMPLE.match(line):
            samples += 1
        else:
            raise SmokeFailure(f"bad sample line: {line!r}")
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="C1P1")
    parser.add_argument(
        "--log-dir", type=Path, default=Path("obs-smoke"),
        help="server log + cache location (uploaded by CI on failure)",
    )
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    args.log_dir.mkdir(parents=True, exist_ok=True)
    log_path = args.log_dir / "server.log"
    cache_dir = args.log_dir / "cache"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    )
    print(f"starting server (log: {log_path}) ...")
    with open(log_path, "w") as log_file:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "2",
                "--cache-dir", str(cache_dir),
            ],
            stdout=log_file, stderr=subprocess.STDOUT, env=env,
        )
    try:
        port = read_banner_port(log_path, args.timeout)
        base_url = f"http://127.0.0.1:{port}"
        client = ServiceClient(base_url)
        wait_for_healthz(client, args.timeout)
        print(f"server up on port {port}")

        print("traced job through the relay ...")
        job = client.submit({
            "kind": "route", "dataset": args.dataset, "trace": True,
        })
        events = list(client.events(job["id"]))
        final = client.wait(job["id"], timeout_s=args.timeout)
        check(final["status"] == "done", "traced job completed")
        kinds = [e["kind"] for e in events]
        check("run_start" in kinds and "run_end" in kinds,
              "stream brackets the run")
        check(kinds.count("progress_heartbeat") >= 1,
              f"heartbeats streamed ({kinds.count('progress_heartbeat')})")
        check("metrics_snapshot" not in kinds,
              "control records filtered from the event stream")
        check(
            all(
                "run_id" in e and "job_id" in e and "worker" in e
                for e in events
            ),
            "every event carries relay context",
        )
        workers = {e["worker"] for e in events}
        check(
            all(isinstance(w, int) and w != server.pid for w in workers),
            f"events produced by worker subprocess(es) {sorted(workers)}",
        )

        print("relayed phase tree ...")
        starts, ends = (
            Counter(e["phase"] for e in events if e["kind"] == kind)
            for kind in ("phase_start", "phase_end")
        )
        check(bool(starts) and starts == ends,
              f"phase events balanced ({sum(starts.values())} phases)")
        phases = PhaseProfiler.from_events(
            TraceEvent.from_dict(e) for e in events
        )
        roots = list(phases.root.children)
        check(
            roots == ["route", "build_result", "route_channels",
                      "sign_off"],
            f"phase tree roots in order: {roots}",
        )
        check(
            {"setup", "initial", "finalize"}
            <= set(phases.node("route").children),
            "route holds setup, initial and finalize",
        )

        print("per-job metrics ...")
        job_metrics = client.job_metrics(job["id"])
        check(job_metrics["schema"] == "repro-job-metrics/1",
              "/jobs/{id}/metrics schema present")
        check(job_metrics["final"].get("router.deletions", 0) > 0,
              "final metrics carry router counters")
        check(job_metrics["live"].get("router.deletions", 0) > 0,
              "live (relayed) metrics carry router counters")
        check(job_metrics["heartbeat"] is not None,
              "last heartbeat retained")

        print("fleet /metrics exposition ...")
        text = client.metrics_text()
        samples = validate_exposition(text)
        check(samples > 10, f"exposition has {samples} sample lines")
        check("# TYPE repro_service_jobs_completed counter" in text,
              "service counters exported")
        check("repro_jobs_router_deletions" in text,
              "fleet-aggregated router counters exported")
        check('quantile="0.99"' in text,
              "histogram percentiles exported as summary quantiles")

        print("trace tail over HTTP ...")
        tail = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "trace", "tail",
                job["id"], "--url", base_url,
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        check(tail.returncode == 0, "trace tail exits 0")
        tail_lines = tail.stdout.strip().splitlines()
        check(len(tail_lines) == len(events),
              f"tail rendered one line per event ({len(tail_lines)})")
        check(any("progress_heartbeat" in line for line in tail_lines),
              "tail renders heartbeat lines")

        print("graceful shutdown (SIGINT) ...")
        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=60)
        check(code == 0, f"server exited cleanly (code {code})")
    except SmokeFailure as failure:
        print(f"SMOKE FAILED: {failure}", file=sys.stderr)
        print(f"--- {log_path} ---", file=sys.stderr)
        if log_path.exists():
            sys.stderr.write(log_path.read_text())
        return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    print("OBS SMOKE PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
