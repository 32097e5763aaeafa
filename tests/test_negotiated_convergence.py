"""Convergence guarantees of the negotiated engine.

Slower than the unit tests: routes the whole standard suite and the
congestion-adversarial CGP1 with the negotiated engine in both modes
and asserts the engine's termination contract — every run ends with
zero overused columns and a route set the independent checker accepts.
Its quality against edge-deletion is held by
``test_negotiated_golden.py::test_negotiated_quality_bars``.
"""

import pytest

from repro.bench.circuits import congestion_suite, standard_suite
from repro.bench.runner import run_dataset
from repro.core.config import RouterConfig
from repro.core.verify import verify_routing

_MODES = (True, False)  # TIMING, AREA


@pytest.mark.parametrize(
    "spec", standard_suite() + congestion_suite(), ids=lambda spec: spec.name
)
@pytest.mark.parametrize(
    "constrained", _MODES, ids=("timing", "area")
)
def test_negotiated_converges_to_zero_overuse(spec, constrained):
    config = RouterConfig(routing_engine="negotiated")
    record, result, report, dataset = run_dataset(
        spec, constrained, config=config
    )
    assert record.metrics.get("negotiate.overused_columns") == 0.0
    assert record.metrics.get("negotiate.iterations", 0) >= 1
    problems = verify_routing(dataset.circuit, dataset.placement, result)
    assert problems == [], problems[:3]
    assert report.critical_delay_ps > 0
    assert report.area_mm2 > 0

