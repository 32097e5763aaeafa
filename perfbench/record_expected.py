"""Regenerate ``expected.json``: every job's quality values at seed 0.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  Each job's verified flow runs once
in-process; a job that fails verification aborts the recording.  Rerun
only when a change to the router is meant to change routing results.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from batch_load import JOBS, run_flow  # noqa: E402
from ledger import EXPECTED, Spans  # noqa: E402
from service_load import job_spec, submissions  # noqa: E402


def main() -> None:
    workloads = {name: make(0) for name, make in JOBS.items()}
    workloads["service"] = [job_spec(p) for p in submissions(0)]
    expected = {}
    for name, specs in workloads.items():
        expected[name] = {}
        for spec in specs:
            outcome = run_flow(spec, Spans(False, 0.0))
            if outcome.problems:
                raise SystemExit(f"{spec.job_id}: {outcome.problems}")
            expected[name][spec.job_id] = outcome.quality
        print(f"{name}: {len(specs)} jobs")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
