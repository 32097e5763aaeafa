"""Fig. 4 — the channel-density parameters.

Benchmarks density-profile extraction from a routed chip and checks every
relationship the figure illustrates: ``C_m <= C_M`` pointwise, plateau
lengths ``NC_M``/``NC_m``, and the per-edge ``D_M <= C_M`` /
``ND_M <= NC_M`` restrictions.
"""

import pytest

from repro.analysis import profile_from_engine
from repro.bench.circuits import make_dataset
from repro.core import GlobalRouter, RouterConfig
from repro.routegraph.graph import EdgeKind


@pytest.mark.bench
def test_fig4_density_parameters(benchmark, s1_spec):
    dataset = make_dataset(s1_spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router.route()
    engine = router.engine
    channel = engine.max_channel()

    def extract():
        return profile_from_engine(engine, channel)

    profile, _ = benchmark(extract)

    # d_m(c,x) <= d_M(c,x) everywhere (bridges are a subset of edges).
    assert (profile.d_min <= profile.d_max).all()
    stats = profile.stats
    assert stats.c_min <= stats.c_max
    assert len(profile.peak_columns()) == stats.nc_max
    assert len(profile.bridge_peak_columns()) == stats.nc_min

    # Per-edge restrictions for a handful of final trunks.
    checked = 0
    for state in router.states.values():
        for edge in state.graph.alive_edges():
            if edge.kind is not EdgeKind.TRUNK:
                continue
            if edge.channel != channel:
                continue
            params = engine.edge_params(edge.coverage)
            assert params.d_max <= stats.c_max
            assert params.nd_max <= stats.nc_max
            assert params.d_min <= stats.c_min
            assert params.nd_min <= stats.nc_min
            checked += 1
    assert checked > 0
    benchmark.extra_info["channel"] = channel
    benchmark.extra_info["C_M"] = stats.c_max
    benchmark.extra_info["C_m"] = stats.c_min
    print()
    print(f"  channel {channel}: C_M={stats.c_max} NC_M={stats.nc_max} "
          f"C_m={stats.c_min} NC_m={stats.nc_min}")
    print(profile.ascii_chart())
