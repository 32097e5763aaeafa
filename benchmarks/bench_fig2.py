"""Fig. 2 — the global-routing algorithm outline.

Benchmarks one full constrained routing run and verifies that its phase
tree follows the paper's flow: setup — delay graphs, assignment
(line 01), graph construction and density/tree init (02-04) — then the
initial edge-deletion loop (05-07) and the three improvement loops
(08-10).
"""

import pytest

from repro.bench.circuits import make_dataset
from repro.core import GlobalRouter, RouterConfig

#: Fig. 2's lines, in order, as the router's phases under ``route``.
FIG2 = [
    "setup", "initial", "recover_violate", "improve_delay", "improve_area",
]
SETUP = ["timing", "assignment", "graphs", "density"]


@pytest.mark.bench
def test_fig2_phase_flow(benchmark, s1_spec):
    def route_once():
        dataset = make_dataset(s1_spec)
        router = GlobalRouter(
            dataset.circuit,
            dataset.placement,
            dataset.constraints,
            RouterConfig(),
        )
        return router, router.route()

    router, result = benchmark.pedantic(route_once, rounds=2, iterations=1)
    route = router.profiler.node("route")

    # Ordering of the Fig. 2 lines: phases appear in entry order.
    phases = list(route.children)
    assert [phase for phase in phases if phase in FIG2] == FIG2
    assert list(route.children["setup"].children) == SETUP

    assert result.deletions > 0
    benchmark.extra_info["deletions"] = result.deletions
    benchmark.extra_info["reroutes"] = result.reroutes
    print()
    print(router.profiler.format())
