"""Exact output of the negotiated engine, pinned against a committed golden.

The convergence tests only require zero overuse and a clean verifier, so
a change that reroutes nets differently but still legally would pass
them.  This test pins what the engine actually chose: total length,
deletion count, the negotiation work counters and a digest of every
net's route edges, for three designs at their committed seeds.  Every
value must match ``benchmarks/golden/negotiated.json`` exactly.

A deliberate change of the engine's routes rewrites the golden with::

    PYTHONPATH=src python -m tests.test_negotiated_golden
"""

import json
from pathlib import Path

import pytest

from repro.bench.circuits import congestion_suite, standard_suite
from repro.bench.runner import run_dataset
from repro.core.config import RouterConfig
from tests.conftest import routes_sha256

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "negotiated.json"
)

#: ``(design, constrained)`` pairs pinned by the golden.
CASES = (("CGP1", True), ("C1P1", True), ("C1P1", False))

_COUNTERS = (
    "negotiate.iterations",
    "negotiate.astar_pops",
    "negotiate.cap_relaxations",
)


def _spec(name):
    return next(
        s for s in congestion_suite() + standard_suite() if s.name == name
    )


def case_id(name, constrained):
    return f"{name}.{'timing' if constrained else 'area'}"


def fingerprint(name, constrained):
    """The pinned values of one negotiated run."""
    config = RouterConfig(routing_engine="negotiated")
    record, result, _, _ = run_dataset(
        _spec(name), constrained, config=config
    )
    values = {
        "total_length_um": result.total_length_um,
        "deletions": result.deletions,
        "routes_sha256": routes_sha256(result),
    }
    for counter in _COUNTERS:
        values[counter] = int(record.metrics.get(counter, 0))
    return values


@pytest.mark.parametrize(
    "name,constrained", CASES, ids=[case_id(*c) for c in CASES]
)
def test_negotiated_output_matches_golden(name, constrained):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(name, constrained) == golden[case_id(name, constrained)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case_id(*c): fingerprint(*c) for c in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
