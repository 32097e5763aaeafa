"""Exact output of the channel router, pinned against a committed golden.

Table 2's delay and area are read "from routing lengths after channel
routing", so every track the left-edge router and its track-order pass
assign reaches the reported numbers.  The other goldens pin the global
route that feeds channel routing, and the flow golden the signed-off
totals; this one pins the channel router itself, per case:

* each channel's ``tracks``, ``constraint_breaks``, ``pin_conflicts``
  and ``dogleg_splits``, in channel order;
* a sha256 over every ``ChannelResult.segments`` entry in result order
  — ``(net, lo, hi, part, parts, attach_top, attach_bottom, track)`` —
  plus each channel's ``through_columns``;
* a sha256 over ``net_vertical_um``, each length as ``float.hex``.

Cases: every small- and standard-suite design and CGP1, constrained
(``timing``) and unconstrained (``area``), under the edge-deletion
engine; C1P1 and CGP1 both ways under the negotiated engine; and X1P1
constrained.  The edge-deletion cases of
``test_edge_deletion_golden.py`` (X1P1 among them) are channel-routed
while that golden routes them (``CHANNEL_VALUES``), so they cost no
second route.  Every value must match
``benchmarks/golden/channel.json`` exactly.

A deliberate change of the channel router's output rewrites the golden
with::

    PYTHONPATH=src python -m tests.test_channel_golden
"""

import functools
import json
from pathlib import Path

import pytest

from repro.bench.circuits import (
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.bench.runner import run_flow
from repro.core.config import RouterConfig
from tests.conftest import channel_fingerprint
from tests.test_edge_deletion_golden import CHANNEL_VALUES
from tests.test_edge_deletion_golden import CASES as EDGE_CASES
from tests.test_edge_deletion_golden import fingerprint as edge_fingerprint

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "channel.json"
)

_SPECS = {
    spec.name: spec
    for spec in standard_suite() + small_suite() + congestion_suite()
}

#: ``(engine, design, mode)`` triples pinned by the golden.
CASES = tuple(
    ("edge-deletion", spec.name, mode)
    for spec in standard_suite() + small_suite() + congestion_suite()
    for mode in ("timing", "area")
) + tuple(
    ("negotiated", name, mode)
    for name in ("C1P1", "CGP1")
    for mode in ("timing", "area")
) + (
    ("edge-deletion", "X1P1", "timing"),
)


def case_id(engine, name, mode):
    return f"{engine}.{name}.{mode}"


@functools.lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


def fingerprint(engine, name, mode):
    """The channel-routing values of one case: read off the
    edge-deletion golden's route when that golden pins the case, routed
    through :func:`~repro.bench.runner.run_flow` otherwise."""
    if engine == "edge-deletion" and (name, mode) in EDGE_CASES:
        edge_fingerprint(name, mode)
        return CHANNEL_VALUES[f"{name}.{mode}"]
    dataset = make_dataset(_SPECS[name])
    config = RouterConfig(routing_engine=engine)
    if mode == "area":
        config = config.unconstrained()
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )
    return channel_fingerprint(flow.channel_result)


@pytest.mark.parametrize(
    "engine,name,mode", CASES, ids=[case_id(*c) for c in CASES]
)
def test_channel_output_matches_golden(engine, name, mode):
    assert fingerprint(engine, name, mode) == golden()[
        case_id(engine, name, mode)
    ]


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
