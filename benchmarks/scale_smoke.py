#!/usr/bin/env python
"""Scale-tier smoke: route the generated 10x and 100x designs under wall
ceilings.

The point is catching accidental quadratics at scale (slot scans,
placement repacks, wholesale re-analysis, per-track rescans in the
channel router), not checking output: X1P1's output is pinned by
``tests/test_edge_deletion_golden.py`` and its channel routing by
``tests/test_channel_golden.py``.  X1P1 must route within
``X1_CEILING_S``, and channel-routing its result may take at most
``MAX_CHANNEL_RATIO`` of that route's wall (a ratio, so that it holds
across machines).  X2P1 must route within ``X2_CEILING_S`` with local
bridge recomputes answering at least ``REQUIRED_LOCAL_RATIO`` of its
reclassifications.  Exits non-zero on any miss::

    PYTHONPATH=src python benchmarks/scale_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.bench.circuits import make_dataset, scale_suite
from repro.channelrouter import route_channels
from repro.core import GlobalRouter, RouterConfig

# Ceilings sit far above a normal route on a shared CI runner (X1P1
# routes in 15-30 s on a 2-vCPU Xeon), so they catch quadratic
# blow-ups, not drift.
X1_CEILING_S = 120.0
X2_CEILING_S = 3600.0
# At scale nearly every deletion must stay on the local reclassify
# path; full fallbacks are the defensive escape hatch, not a steady
# state.
REQUIRED_LOCAL_RATIO = 0.90
# Channel routing is one sorted sweep per channel: X1P1's takes about
# 0.07 of its route wall.  The per-track rescan it replaced took 0.30.
MAX_CHANNEL_RATIO = 0.15


def route(spec, channels=False):
    """Route one design, and channel-route its result if ``channels``;
    returns (deletions, wall_s, local, fallbacks, channel_wall_s)."""
    dataset = make_dataset(spec)
    config = RouterConfig()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
    )
    start = time.perf_counter()
    result = router.route()
    wall = time.perf_counter() - start
    channel_wall = 0.0
    if channels:
        start = time.perf_counter()
        route_channels(result, dataset.placement, config.technology)
        channel_wall = time.perf_counter() - start
    flat = router.metrics.flat()
    return (
        result.deletions,
        wall,
        int(flat.get("graph.bridge_local_recomputes", 0)),
        int(flat.get("graph.bridge_full_fallbacks", 0)),
        channel_wall,
    )


def main() -> int:
    specs = {spec.name: spec for spec in scale_suite()}
    failures = []
    for name, ceiling in (("X1P1", X1_CEILING_S), ("X2P1", X2_CEILING_S)):
        print(f"scale-tier smoke: {name} (ceiling {ceiling:.0f}s)")
        deletions, wall, local, fallbacks, channel_wall = route(
            specs[name], channels=name == "X1P1"
        )
        ratio = local / max(1, local + fallbacks)
        print(
            f"{name:6s} dels {deletions:5d}  wall {wall:6.2f}s  "
            f"local {local}  fallbacks {fallbacks}  "
            f"local-ratio {ratio:5.1%}"
        )
        if wall > ceiling:
            failures.append(
                f"{name}: wall {wall:.1f}s exceeds the {ceiling:.0f}s "
                "ceiling"
            )
        if name == "X1P1":
            channel_ratio = channel_wall / wall
            print(
                f"{name:6s} route_channels {channel_wall:6.2f}s  "
                f"= {channel_ratio:.3f} of route (max "
                f"{MAX_CHANNEL_RATIO:.2f})"
            )
            if channel_ratio > MAX_CHANNEL_RATIO:
                failures.append(
                    f"{name}: route_channels took {channel_ratio:.3f} of "
                    f"the route wall (max {MAX_CHANNEL_RATIO:.2f})"
                )
        if name == "X2P1" and ratio < REQUIRED_LOCAL_RATIO:
            failures.append(
                f"{name}: local recomputes cover only {ratio:.1%} of "
                f"reclassifications (required {REQUIRED_LOCAL_RATIO:.0%})"
            )
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: scale designs routed under the wall ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
