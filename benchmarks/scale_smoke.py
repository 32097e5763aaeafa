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
across machines); so may its feedthrough assignment
(``route/setup/assignment`` in the route's phase profile), at most
``MAX_ASSIGNMENT_RATIO``, and its routing-graph build
(``route/setup/graphs``), at most ``MAX_GRAPHS_RATIO``.  Its three
post-route layers together — ``build_result``, channel routing and a
``verify_routing`` with the slot assignment, each a profiler phase —
may take at most ``MAX_POST_ROUTE_RATIO``.  Each ratio is printed with
the gated layer's own wall and the route wall beside it, so a ratio
that rose only because the route got faster reads as such, and each
post-route layer's cyclic-GC time (``gc_s``) too, report-only, so a
failure shows whether a full collection landed there.  The walls of the
initial deletion loop's picks and deletions (``route/initial/select``
and ``route/initial/delete``, per-call scopes) are printed,
report-only.  Routing must leave
X1P1's netlist as generation made it: feed-cell insertion widens the
placement's feed runs and adds no cell, so ``len(circuit.cells)`` is the
same after ``route()`` as before it.  The process's peak RSS
after X1P1's route and channel routing, read before the verification
and X2P1 start, may be at most ``MAX_X1_PEAK_RSS_MB``.  X2P1 must route within
``X2_CEILING_S`` with local
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
from repro.core.verify import verify_routing
from repro.obs import PhaseProfiler
from repro.obs.profile import peak_rss_mb

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
# Single-pitch slot searches bisect a sorted free list, and feed-cell
# insertion widens the placement's feed runs: X1P1's two-pass assignment
# takes 0.09-0.11 of its route wall.  Making a netlist Cell per inserted
# feed cell and splicing it into its row took it to 0.15-0.20; masking
# the whole row per search, with every pass and reroute re-deriving its
# crossing rows, to 0.25.
MAX_ASSIGNMENT_RATIO = 0.14
# Each net's routing graph is a fixed set of columns over one static
# CSR: X1P1's graph build takes about 0.10 of its route wall.  One
# object per vertex, edge and column span, rescanned by every full
# collection, took 0.17-0.21.
MAX_GRAPHS_RATIO = 0.14
# X1P1's route and channel routing peak at about 253 MB with the column
# store; with one object per vertex and edge they peaked at 287-298 MB.
MAX_X1_PEAK_RSS_MB = 270.0
# build_result fills one route table that channel routing and the
# verifier read in bulk: X1P1's three post-route layers take 0.18-0.20
# of its route wall, a full collection in route_channels included.
# Copying every tree into per-edge tuples that both consumers decoded
# again took 0.25-0.29.
MAX_POST_ROUTE_RATIO = 0.24
#: The gated post-route layers: profiler phase -> printed name.
POST_ROUTE_LAYERS = {
    "build_result": "build_result",
    "route_channels": "route_channels",
    "verify": "verify_routing",
}


def route(spec, channels=False):
    """Route one design, and channel-route and verify its result if
    ``channels``; returns (deletions, wall_s, local, fallbacks,
    profiler, rss_mb, cells), channel routing and verification as the
    profiler's ``route_channels`` and ``verify`` phases, ``rss_mb`` the
    peak RSS read right after channel routing (``None`` without it) and
    ``cells`` the circuit's cell count before and after the route."""
    dataset = make_dataset(spec)
    cells_before = len(dataset.circuit.cells)
    config = RouterConfig()
    profiler = PhaseProfiler()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
        profiler=profiler,
    )
    start = time.perf_counter()
    result = router.route()
    wall = time.perf_counter() - start
    cells = (cells_before, len(dataset.circuit.cells))
    rss = None
    if channels:
        with profiler.phase("route_channels"):
            route_channels(result, dataset.placement, config.technology)
        rss = peak_rss_mb()
        with profiler.phase("verify"):
            verify_routing(
                dataset.circuit, dataset.placement, result,
                router.assignment,
            )
    flat = router.metrics.flat()
    return (
        result.deletions,
        wall,
        int(flat.get("graph.bridge_local_recomputes", 0)),
        int(flat.get("graph.bridge_full_fallbacks", 0)),
        profiler,
        rss,
        cells,
    )


def main() -> int:
    specs = {spec.name: spec for spec in scale_suite()}
    failures = []
    for name, ceiling in (("X1P1", X1_CEILING_S), ("X2P1", X2_CEILING_S)):
        print(f"scale-tier smoke: {name} (ceiling {ceiling:.0f}s)")
        deletions, wall, local, fallbacks, profiler, rss, cells = route(
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
            print(
                f"{name:6s} cells {cells[0]} before route, {cells[1]} "
                "after"
            )
            if cells[1] != cells[0]:
                failures.append(
                    f"{name}: routing changed the netlist's cell count "
                    f"from {cells[0]} to {cells[1]}"
                )
            channel_wall = profiler.wall_s("route_channels")
            assign_wall = profiler.wall_s("route", "setup", "assignment")
            graphs_wall = profiler.wall_s("route", "setup", "graphs")
            for scope in ("select", "delete"):
                node = profiler.node("route", "initial", scope)
                print(
                    f"{name:6s} initial/{scope} {node.wall_s:6.2f}s in "
                    f"{node.calls} calls  (initial "
                    f"{profiler.wall_s('route', 'initial'):.2f}s, route "
                    f"{wall:.2f}s)"
                )
            channel_ratio = channel_wall / wall
            print(
                f"{name:6s} route_channels {channel_wall:6.2f}s  "
                f"= {channel_ratio:.3f} of route {wall:.2f}s (max "
                f"{MAX_CHANNEL_RATIO:.2f})"
            )
            if channel_ratio > MAX_CHANNEL_RATIO:
                failures.append(
                    f"{name}: route_channels took {channel_ratio:.3f} of "
                    f"the route wall (max {MAX_CHANNEL_RATIO:.2f})"
                )
            assign_ratio = assign_wall / wall
            print(
                f"{name:6s} assignment {assign_wall:6.2f}s  "
                f"= {assign_ratio:.3f} of route {wall:.2f}s (max "
                f"{MAX_ASSIGNMENT_RATIO:.2f})"
            )
            if assign_ratio > MAX_ASSIGNMENT_RATIO:
                failures.append(
                    f"{name}: feedthrough assignment took "
                    f"{assign_ratio:.3f} of the route wall (max "
                    f"{MAX_ASSIGNMENT_RATIO:.2f})"
                )
            graphs_ratio = graphs_wall / wall
            print(
                f"{name:6s} graphs {graphs_wall:6.2f}s  "
                f"= {graphs_ratio:.3f} of route {wall:.2f}s (max "
                f"{MAX_GRAPHS_RATIO:.2f})"
            )
            if graphs_ratio > MAX_GRAPHS_RATIO:
                failures.append(
                    f"{name}: the routing-graph build took "
                    f"{graphs_ratio:.3f} of the route wall (max "
                    f"{MAX_GRAPHS_RATIO:.2f})"
                )
            post_wall = 0.0
            for phase, label in POST_ROUTE_LAYERS.items():
                node = profiler.node(phase)
                post_wall += node.wall_s
                print(
                    f"{name:6s} {label} {node.wall_s:6.2f}s  "
                    f"= {node.wall_s / wall:.3f} of route {wall:.2f}s  "
                    f"(gc {node.gc_s:.2f}s in {node.gc_collections} "
                    "collections)"
                )
            post_ratio = post_wall / wall
            print(
                f"{name:6s} post-route {post_wall:6.2f}s  "
                f"= {post_ratio:.3f} of route {wall:.2f}s (max "
                f"{MAX_POST_ROUTE_RATIO:.2f})"
            )
            if post_ratio > MAX_POST_ROUTE_RATIO:
                failures.append(
                    f"{name}: build_result, route_channels and "
                    f"verify_routing took {post_ratio:.3f} of the route "
                    f"wall (max {MAX_POST_ROUTE_RATIO:.2f})"
                )
            if rss is not None:
                print(
                    f"{name:6s} peak RSS {rss:6.1f} MB (max "
                    f"{MAX_X1_PEAK_RSS_MB:.0f})"
                )
                if rss > MAX_X1_PEAK_RSS_MB:
                    failures.append(
                        f"{name}: peak RSS {rss:.1f} MB exceeds "
                        f"{MAX_X1_PEAK_RSS_MB:.0f} MB"
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
