"""The three improvement phases (Section 3.5, lines 08–10 of Fig. 2).

All three phases rip up and reroute nets one by one, reusing the initial
routing's selection machinery:

* **violation recovery** — while constraints are violated, every net on a
  violated constraint's critical path is rerouted (most-violated
  constraint first);
* **delay improvement** — all critical-path nets of all constraints are
  rerouted, constraints with smaller margin ``M(P)`` first (net order
  within a path is arbitrary — we keep path order);
* **area improvement** — nets running through the most congested columns
  are rerouted first, under the area-variant comparator (densities before
  ``Gl``/``LD``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from ..routegraph.graph import EdgeKind
from .density import coverage_columns
from .selection import SelectionMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import GlobalRouter


def recover_violations(router: "GlobalRouter") -> int:
    """Line 08: reroute critical-path nets of violated constraints.

    A reroute changes wire caps, so the critical paths computed before it
    are stale: the violated constraint may clear, another may take over
    as most-violated, and a constraint's critical path may run through
    different nets afterwards.  Each reroute target is therefore chosen
    from *fresh* timings — most-violated constraint first, first not-yet-
    attempted net on its current critical path — instead of iterating a
    snapshot taken at the top of the pass.

    Returns the number of reroutes attempted.
    """
    attempts = 0
    for _ in range(router.config.max_recovery_passes):
        progressed = False
        attempted: Set[Tuple[str, str]] = set()
        while True:
            target = _next_violation_target(router, attempted)
            if target is None:
                break
            constraint_name, net_name = target
            attempted.add(target)
            attempts += 1
            if router.reroute_net(net_name, SelectionMode.TIMING):
                progressed = True
        still_violated = any(
            t.violated for t in router._ensure_timings().values()
        )
        if not still_violated or not progressed:
            break
    remaining = sum(
        1 for t in router._ensure_timings().values() if t.violated
    )
    router.metrics.counter("improve.recover_attempts").inc(attempts)
    router.metrics.gauge("improve.violations_remaining").set(
        float(remaining)
    )
    return attempts


def _next_violation_target(
    router: "GlobalRouter", attempted: Set[Tuple[str, str]]
) -> Optional[Tuple[str, str]]:
    """The next ``(constraint, net)`` reroute target under fresh timings.

    ``None`` once no violated constraint has an untried critical-path net
    left this pass.
    """
    timings = router._ensure_timings()
    violated = sorted(
        (t for t in timings.values() if t.violated),
        key=lambda t: t.margin_ps,
    )
    for timing in violated:
        for net in timing.critical_nets():
            target = (timing.graph.name, net.name)
            if net.name in router.states and target not in attempted:
                return target
    return None


def improve_delay(router: "GlobalRouter") -> int:
    """Line 09: reroute all critical-path nets, tightest margin first.

    Passes stop early once the phase converged: a pass that keeps no
    reroute, or keeps some but fails to improve the worst constraint
    margin, cannot make the next pass see a different design, so running
    ``max_delay_passes`` unconditionally would only repeat it.
    """
    attempts = 0
    passes = 0
    for _ in range(router.config.max_delay_passes):
        passes += 1
        timings = router._ensure_timings()
        worst_before = min(
            (t.margin_ps for t in timings.values()), default=None
        )
        ordered = sorted(timings.values(), key=lambda t: t.margin_ps)
        rerouted: Set[str] = set()
        kept = 0
        for timing in ordered:
            for net in timing.critical_nets():
                if net.name not in router.states or net.name in rerouted:
                    continue
                rerouted.add(net.name)
                attempts += 1
                if router.reroute_net(net.name, SelectionMode.TIMING):
                    kept += 1
        if worst_before is None or kept == 0:
            break
        worst_after = min(
            t.margin_ps for t in router._ensure_timings().values()
        )
        if worst_after <= worst_before:
            break
    router.metrics.counter("improve.delay_attempts").inc(attempts)
    router.metrics.counter("improve.delay_passes").inc(passes)
    return attempts


def improve_area(router: "GlobalRouter") -> int:
    """Line 10: reroute nets through the congestion peak, area comparator."""
    attempts = 0
    for _ in range(router.config.max_area_passes):
        targets = _congested_nets(router)
        if not targets:
            break
        for net_name in targets[: router.config.area_nets_per_pass]:
            attempts += 1
            router.reroute_net(net_name, SelectionMode.AREA)
    router.metrics.counter("improve.area_attempts").inc(attempts)
    return attempts


def _congested_nets(router: "GlobalRouter") -> List[str]:
    """Nets with final wiring over the peak-density columns of the most
    congested channel, widest coverage first."""
    engine = router.engine
    channel = engine.max_channel()
    stats = engine.channel_stats(channel)
    if stats.c_max == 0:
        return []
    peak_columns = {
        column
        for column in range(engine.width_columns)
        if engine.d_max[channel][column] == stats.c_max
    }
    scored = []
    for name in sorted(router.states):
        state = router.states[name]
        if state.is_follower:
            continue
        coverage = 0
        for edge in state.graph.alive_edges():
            if edge.kind is not EdgeKind.TRUNK or edge.channel != channel:
                continue
            # Same coverage convention as DensityEngine: a zero-span
            # trunk (lo == hi) still occupies its lo column.
            lo, hi = coverage_columns(edge)
            coverage += sum(
                1 for column in peak_columns if lo <= column <= hi
            )
        if coverage:
            scored.append((coverage, name))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [name for _, name in scored]
