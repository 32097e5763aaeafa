"""The routing verifier as it was before its per-net checks became one
pass over each route's edges, kept only to prove the production
verifier equivalent.

:func:`reference_verify_routing` runs every check as its own walk over
a route: geometry, tree (over single trunks), terminals, length,
duplicates and slots, then density over freshly merged trunk spans per
net.  ``test_verify_linear.py`` requires :func:`repro.core.verify.
verify_routing` to return the same violations, in the same order, on
routed results with faults injected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.result import GlobalRoutingResult, NetRoute
from repro.layout.feedthrough import FeedthroughAssignment
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.routegraph.graph import EdgeKind


def reference_verify_routing(
    circuit: Circuit,
    placement: Placement,
    result: GlobalRoutingResult,
    assignment: Optional[FeedthroughAssignment] = None,
) -> List[str]:
    """Check a routing result; returns all violations found."""
    violations: List[str] = []
    routable = {net.name for net in circuit.routable_nets}
    missing = routable - set(result.routes)
    for name in sorted(missing):
        violations.append(f"net {name}: no route")
    extra = set(result.routes) - routable
    for name in sorted(extra):
        violations.append(f"net {name}: routed but not routable")

    # Placement.width_columns re-sums every placed cell on each read.
    width = placement.width_columns
    slot_owner: Dict[Tuple[int, int], str] = {}
    for name in sorted(result.routes):
        if name not in routable:
            continue
        route = result.routes[name]
        net = circuit.net(name)
        violations.extend(_reference_check_geometry(route, placement, width))
        violations.extend(_reference_check_tree(route))
        violations.extend(_reference_check_terminals(route, net, placement))
        violations.extend(_reference_check_length(route))
        violations.extend(_reference_check_duplicates(route))
        if assignment is not None:
            violations.extend(
                _reference_check_slots(route, net, assignment, slot_owner)
            )
    violations.extend(_reference_check_density(result, placement, width))
    return violations


# ----------------------------------------------------------------------
def _reference_check_geometry(
    route: NetRoute, placement: Placement, width: int
) -> List[str]:
    problems = []
    for edge in route.edges:
        if not (0 <= edge.channel < placement.n_channels):
            problems.append(
                f"net {route.net_name}: edge in illegal channel "
                f"{edge.channel}"
            )
        if edge.interval.lo < 0 or edge.interval.hi >= max(1, width):
            problems.append(
                f"net {route.net_name}: edge spans columns "
                f"{edge.interval.lo}..{edge.interval.hi} outside chip "
                f"width {width}"
            )
        if edge.length_um < 0:
            problems.append(
                f"net {route.net_name}: negative edge length"
            )
    return problems


def _reference_check_tree(route: NetRoute) -> List[str]:
    """The trunks and branches must form one connected structure.

    The snapshot stores geometry, not graph endpoints, so connectivity is
    checked physically: two wires connect when they share a column of a
    channel — trunks of one channel whose intervals share a column, a
    branch tapping a trunk at its column in either channel it joins, or
    two branches stacked through adjacent rows at one column.  Pins
    connecting segments *through a cell* (a terminal reachable from both
    adjacent channels) also merge the wires at that pin's column.

    Each channel's wires are swept in order of ``lo``: a wire joins the
    running group while its ``lo`` is at most the largest ``hi`` seen so
    far, which finds the same groups as testing every pair of wires.
    """
    trunks = [e for e in route.edges if e.kind is EdgeKind.TRUNK]
    branches = [e for e in route.edges if e.kind is EdgeKind.BRANCH]
    wires = trunks + branches
    if len(wires) <= 1:
        return []

    parent = list(range(len(wires)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    # A branch crosses a row, so it joins the lists of both channels.
    by_channel: Dict[int, List[Tuple[int, int, int]]] = {}
    for index, wire in enumerate(wires):
        span = (wire.interval.lo, wire.interval.hi, index)
        by_channel.setdefault(wire.channel, []).append(span)
        if wire.kind is EdgeKind.BRANCH:
            by_channel.setdefault(wire.channel + 1, []).append(span)
    for spans in by_channel.values():
        spans.sort()
        group, reach = -1, float("-inf")
        for lo, hi, index in spans:
            if lo <= reach:
                union(index, group)
                reach = max(reach, hi)
            else:
                group, reach = index, hi

    # A pin reachable from both adjacent channels merges wires at its
    # column (the route crosses through the cell).
    channels_at: Dict[int, Set[int]] = {}
    for attachment in route.attachments:
        channels_at.setdefault(attachment.column, set()).add(
            attachment.channel
        )
    for column, channels in channels_at.items():
        incident = [
            index
            for channel in channels
            for lo, hi, index in by_channel.get(channel, ())
            if lo <= column <= hi
        ]
        for a, b in zip(incident, incident[1:]):
            union(a, b)

    roots = {find(i) for i in range(len(wires))}
    if len(roots) > 1:
        return [
            f"net {route.net_name}: wiring is not connected "
            f"({len(roots)} separate pieces)"
        ]
    return []


def _reference_check_terminals(
    route: NetRoute, net, placement: Placement
) -> List[str]:
    problems = []
    attach_points = {(a.channel, a.column) for a in route.attachments}
    for pin in net.pins:
        column, _ = placement.pin_position(pin)
        channels = placement.pin_adjacent_channels(pin)
        if not any(
            (channel, column) in attach_points for channel in channels
        ):
            problems.append(
                f"net {route.net_name}: pin {pin.full_name} at column "
                f"{column} has no attachment"
            )
    return problems


def _reference_check_length(route: NetRoute) -> List[str]:
    total = sum(edge.length_um for edge in route.edges)
    if abs(total - route.total_length_um) > 1e-6:
        return [
            f"net {route.net_name}: reported length "
            f"{route.total_length_um} != edge sum {total}"
        ]
    return []


def _reference_check_duplicates(route: NetRoute) -> List[str]:
    """No route may list the same physical wire twice.

    A duplicated wire passes the connectivity and length checks (the
    reported total *includes* the duplicate) while silently inflating
    wire length, capacitance, and density.  Only TRUNK and BRANCH wires
    are physical metal; correspondence edges are zero-length bookkeeping
    hops, and several may legitimately share one column footprint.
    """
    seen: Set[Tuple[EdgeKind, int, int, int]] = set()
    problems = []
    for edge in route.edges:
        if edge.kind not in (EdgeKind.TRUNK, EdgeKind.BRANCH):
            continue
        key = (edge.kind, edge.channel, edge.interval.lo, edge.interval.hi)
        if key in seen:
            problems.append(
                f"net {route.net_name}: duplicate {edge.kind.name} wire "
                f"in channel {edge.channel} at columns "
                f"{edge.interval.lo}..{edge.interval.hi}"
            )
        seen.add(key)
    return problems


def _reference_check_density(
    result: GlobalRoutingResult, placement: Placement, width: int
) -> List[str]:
    """The reported peak density must cover the actual trunk coverage.

    Recomputes each channel's peak column density from every net's
    *merged* trunk intervals (weighted by the net's width in pitches)
    and flags any channel whose reported ``channel_peak_density`` falls
    short.  Follows the density engine's coverage convention — a trunk
    spanning ``[lo, hi]`` covers columns ``lo .. hi-1`` — and merged
    coverage is a lower bound on any honest per-edge accounting
    (abutting edges of one net count once), so a shortfall always means
    under-reported density — an under-sized floorplan — never a
    representation difference.
    """
    width = max(1, width)
    coverage: Dict[int, List[int]] = {}
    for name in sorted(result.routes):
        route = result.routes[name]
        weight = route.width_pitches
        for channel, spans in route.trunk_intervals().items():
            if not (0 <= channel < placement.n_channels):
                continue  # reported separately by _reference_check_geometry
            diff = coverage.setdefault(channel, [0] * (width + 1))
            for span in spans:
                lo = max(0, span.lo)
                hi = min(width, span.hi)
                if lo < hi:
                    diff[lo] += weight
                    diff[hi] -= weight
    problems = []
    for channel in sorted(coverage):
        peak = running = 0
        for delta in coverage[channel][:-1]:
            running += delta
            peak = max(peak, running)
        reported = result.channel_peak_density.get(channel, 0)
        if peak > reported:
            problems.append(
                f"channel {channel}: actual peak density {peak} exceeds "
                f"reported {reported}"
            )
    return problems


def _reference_check_slots(
    route: NetRoute,
    net,
    assignment: FeedthroughAssignment,
    slot_owner: Dict[Tuple[int, int], str],
) -> List[str]:
    problems = []
    granted = assignment.of_net(net)
    granted_columns = {
        (row, column)
        for row, slot in granted.items()
        for column in slot.columns
    }
    for edge in route.edges:
        if edge.kind is not EdgeKind.BRANCH:
            continue
        key = (edge.channel, edge.interval.lo)
        if key not in granted_columns:
            problems.append(
                f"net {route.net_name}: branch at row {edge.channel} "
                f"column {edge.interval.lo} uses an ungranted slot"
            )
    for row, slot in granted.items():
        for column in slot.columns:
            owner = slot_owner.get((row, column))
            if owner is not None and owner != net.name:
                problems.append(
                    f"slot row {row} column {column} granted to both "
                    f"{owner} and {net.name}"
                )
            slot_owner[(row, column)] = net.name
    return problems
