"""Exact output of the end-to-end flow, pinned against a committed golden.

The flow — route, channel route, sign off, plus the Table 3 bound — has
three entry points: a batch job (``execute_job``), a serial bench run
and the ``route`` command.  This test pins what the job runner and the
command produce, so a refactor of how they share the flow cannot change
a number:

* every field of ``execute_job(...).to_row()`` except the wall-clock
  ``cpu_s``, for each small-suite design, constrained and
  unconstrained, under the default and the negotiated engine, and for
  the designs of the negotiated-quality bars (C1P1, C1P2, C3P1, CGP1),
  constrained, under both engines;
* four ``route --verify --json`` runs on a netlist and placement written
  by ``generate``: exit code 0, the ``verifier: clean`` line, and a
  sha256 over the canonical JSON payload with both ``cpu_seconds``
  fields removed;
* the ``--report`` block of the constrained run, minus its wall-clock
  ``router effort`` line.

Every value must match ``benchmarks/golden/flow.json`` exactly.  A
deliberate change of the flow's output rewrites the golden with::

    PYTHONPATH=src python -m tests.test_flow_golden
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.bench.circuits import (
    congestion_suite,
    small_suite,
    standard_suite,
)
from repro.cli import main
from repro.core.config import RouterConfig
from repro.exec import JobSpec, execute_job

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "flow.json"
)

ENGINES = {
    "default": None,
    "negotiated": RouterConfig(routing_engine="negotiated"),
}

_SPECS = {
    spec.name: spec
    for spec in small_suite() + standard_suite() + congestion_suite()
}

#: Designs whose constrained jobs under both engines carry the
#: negotiated-quality bars (``test_negotiated_quality_bars``).
BAR_DESIGNS = ("C1P1", "C1P2", "C3P1", "CGP1")

#: ``(design, constrained, engine)`` jobs pinned by the golden.
JOBS = tuple(
    (spec.name, constrained, engine)
    for spec in small_suite()
    for constrained in (True, False)
    for engine in ENGINES
) + tuple(
    (name, True, engine) for name in BAR_DESIGNS for engine in ENGINES
)

#: ``route`` runs pinned by the golden: name -> extra CLI arguments.
ROUTES = {
    "constraints3": ("--placement", "{rpl}", "--constraints", "3"),
    "unconstrained": ("--placement", "{rpl}", "--unconstrained"),
    "negotiated": (
        "--placement", "{rpl}", "--constraints", "3",
        "--engine", "negotiated",
    ),
    "autoplace": ("--rows", "4"),
}

GENERATE = (
    "generate", "demo", "--gates", "60", "--flops", "8",
    "--inputs", "5", "--outputs", "4",
)


def job_id(name, constrained, engine):
    return f"job.{name}.{'timing' if constrained else 'area'}.{engine}"


def job_row(name, constrained, engine):
    """One job's record row without the wall-clock ``cpu_s``."""
    row = execute_job(
        JobSpec(_SPECS[name], constrained, config=ENGINES[engine])
    ).to_row()
    row.pop("cpu_s")
    return row


def _canonical_sha256(payload):
    payload["global"].pop("cpu_seconds")
    payload["signoff"].pop("cpu_seconds")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_block(out):
    """The ``--report`` text, which the CLI prints before the result
    summary, without its wall-clock ``router effort`` line."""
    lines = out.splitlines()
    block = lines[: lines.index("circuit demo:") - 1]
    return [line for line in block if not line.startswith("router effort")]


@functools.lru_cache(maxsize=None)
def route_runs():
    """The pinned values of every ``route`` run (computed once)."""
    values = {}
    with tempfile.TemporaryDirectory() as tmp:
        rnl, rpl = Path(tmp, "demo.rnl"), Path(tmp, "demo.rpl")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(
                [*GENERATE, "--out", str(rnl), "--placement-out", str(rpl)]
            ) == 0
        for name, extra in ROUTES.items():
            out_json = Path(tmp, f"{name}.json")
            argv = ["route", str(rnl), "--verify", "--json", str(out_json)]
            argv += [arg.format(rpl=rpl) for arg in extra]
            if name == "constraints3":
                argv.append("--report")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            out = stdout.getvalue()
            values[f"route.{name}"] = {
                "exit_code": code,
                "verifier_clean": "  verifier: clean" in out.splitlines(),
                "payload_sha256": _canonical_sha256(
                    json.loads(out_json.read_text())
                ),
            }
            if name == "constraints3":
                values["report.constraints3"] = _report_block(out)
    return values


def record():
    """Every pinned value, keyed as in the golden file."""
    values = {job_id(*job): job_row(*job) for job in JOBS}
    values.update(route_runs())
    return values


@functools.lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("job", JOBS, ids=[job_id(*j) for j in JOBS])
def test_job_row_matches_golden(job):
    assert job_row(*job) == golden()[job_id(*job)]


@pytest.mark.parametrize("name", ROUTES)
def test_route_command_matches_golden(name):
    run = route_runs()[f"route.{name}"]
    assert run["exit_code"] == 0
    assert run["verifier_clean"]
    assert run == golden()[f"route.{name}"]


def test_route_report_matches_golden():
    assert (
        route_runs()["report.constraints3"]
        == golden()["report.constraints3"]
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
