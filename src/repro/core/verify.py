"""Routing verification — a design-rule checker for global routes.

Independent of the router's internal state, :func:`verify_routing` checks
a :class:`GlobalRoutingResult` against the netlist, placement, and
feedthrough assignment:

1. **completeness** — every routable net has a route;
2. **tree legality** — each route's edges form one connected tree;
3. **geometry** — every trunk lies inside the chip and inside a legal
   channel; every branch sits on a feedthrough slot granted to that net;
4. **slot exclusivity** — no two nets share a feedthrough column;
5. **terminal coverage** — each net's route attaches at every pin's
   column/channel;
6. **length accounting** — the reported total equals the edge sum;
7. **wire uniqueness** — no route lists the same physical wire twice;
8. **density accounting** — the per-channel peak density recomputed
   from the routes' merged trunk coverage never exceeds the result's
   reported ``channel_peak_density``.

Checks 7 and 8 exist because the edge-deletion engine guarantees both
properties *by construction* (routes are read off a pruned graph in
which every edge appears once, and density is maintained incrementally
as edges die), so the checker used to take them on faith.  An iterative
rip-up-and-reroute engine rebuilds trees from scratch every round; a
bug there can double-adopt a wire or under-report density — inflating
wire length or shrinking the floorplan — while still passing checks
1-6.  The verifier must not trust any engine's bookkeeping.

Cost, for a net with ``e`` route edges, ``a`` attachments, ``p`` pins
and ``s`` granted slot columns, on a chip ``W`` columns wide with ``C``
channels — every check but density is per net, so a call costs the sum
over nets plus the density pass.  The chip width and channel count are
read once per call (``Placement.width_columns`` re-sums every placed
cell), and one pass over each net's edges does checks 3, 4 (the
per-branch half), 6 and 7 and collects the net's trunks and branches:

1. completeness — one set difference over the net names;
2. tree legality — ``O(e log e)``: the merged trunk spans and the
   branches of each channel are sorted once and swept, plus ``O(a·e)``
   at worst for the through-cell merges;
3. geometry, 6. length accounting and 7. wire uniqueness — ``O(e)``
   together, in the one pass;
4. slot exclusivity — ``O(e + s)``;
5. terminal coverage — ``O(a + p)``;
8. density accounting — ``O(e log e)`` per net to merge its trunks,
   once, for both the tree check and this one; then ``O(W)`` per
   channel that holds a trunk, ``O(C·W)`` at most.

Violations come back as a list of human-readable strings (empty = clean),
so the checker slots directly into tests, CI, and post-run sanity checks.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..geometry import Interval
from ..layout.feedthrough import FeedthroughAssignment
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..routegraph.graph import EdgeKind
from .result import GlobalRoutingResult, NetRoute, RoutedEdge, merge_intervals

_TRUNK, _BRANCH = EdgeKind.TRUNK, EdgeKind.BRANCH


def verify_routing(
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
    n_channels = placement.n_channels
    slot_owner: Dict[Tuple[int, int], str] = {}
    merged: Dict[str, Dict[int, List[Interval]]] = {}
    for name in sorted(result.routes):
        if name not in routable:
            continue
        route = result.routes[name]
        net = circuit.net(name)
        scan = _scan_edges(route, n_channels, width)
        merged[name] = scan.trunk_spans
        violations.extend(scan.geometry)
        violations.extend(
            _check_tree(route, scan.trunk_spans, scan.branches)
        )
        violations.extend(_check_terminals(route, net, placement))
        if abs(scan.total_length_um - route.total_length_um) > 1e-6:
            violations.append(
                f"net {route.net_name}: reported length "
                f"{route.total_length_um} != edge sum "
                f"{scan.total_length_um}"
            )
        violations.extend(scan.duplicates)
        if assignment is not None:
            violations.extend(
                _check_slots(
                    route, net, scan.branches, assignment, slot_owner
                )
            )
    violations.extend(_check_density(result, n_channels, width, merged))
    return violations


# ----------------------------------------------------------------------
class _EdgeScan(NamedTuple):
    """What one pass over a route's edges finds (see :func:`_scan_edges`)."""

    geometry: List[str]
    duplicates: List[str]
    total_length_um: float
    trunk_spans: Dict[int, List[Interval]]
    branches: List[RoutedEdge]


def _scan_edges(route: NetRoute, n_channels: int, width: int) -> _EdgeScan:
    """One pass over ``route.edges``: the geometry problems (channel,
    columns, length sign; check 3), the edge-length sum (check 6) and
    repeated physical wires (check 7), plus the net's merged trunk spans
    per channel and its branches, which the tree, slot and density
    checks read.

    Only TRUNK and BRANCH wires are physical metal.  A duplicated wire
    passes the connectivity and length checks (the reported total
    *includes* the duplicate) while silently inflating wire length,
    capacitance, and density; correspondence edges are zero-length
    bookkeeping hops, and several may legitimately share one column
    footprint.
    """
    name = route.net_name
    limit = max(1, width)
    geometry: List[str] = []
    duplicates: List[str] = []
    lengths: List[float] = []
    trunks: Dict[int, List[Interval]] = {}
    branches: List[RoutedEdge] = []
    seen: Set[Tuple[int, int, int, bool]] = set()
    for edge in route.edges:
        kind, channel, interval, length_um = edge
        lo, hi = interval.lo, interval.hi
        if not 0 <= channel < n_channels:
            geometry.append(
                f"net {name}: edge in illegal channel {channel}"
            )
        if lo < 0 or hi >= limit:
            geometry.append(
                f"net {name}: edge spans columns {lo}..{hi} outside chip "
                f"width {width}"
            )
        if length_um < 0:
            geometry.append(f"net {name}: negative edge length")
        lengths.append(length_um)
        if kind is _TRUNK:
            trunks.setdefault(channel, []).append(interval)
        elif kind is _BRANCH:
            branches.append(edge)
        else:
            continue
        count = len(seen)
        seen.add((channel, lo, hi, kind is _BRANCH))
        if len(seen) == count:
            duplicates.append(
                f"net {name}: duplicate {kind.name} wire in channel "
                f"{channel} at columns {lo}..{hi}"
            )
    spans = {
        channel: merge_intervals(intervals)
        for channel, intervals in trunks.items()
    }
    return _EdgeScan(geometry, duplicates, sum(lengths), spans, branches)


def _check_tree(
    route: NetRoute,
    trunk_spans: Optional[Dict[int, List[Interval]]] = None,
    branches: Optional[List[RoutedEdge]] = None,
) -> List[str]:
    """The trunks and branches must form one connected structure.

    The snapshot stores geometry, not graph endpoints, so connectivity is
    checked physically: two wires connect when they share a column of a
    channel — trunks of one channel whose intervals share a column, a
    branch tapping a trunk at its column in either channel it joins, or
    two branches stacked through adjacent rows at one column.  Pins
    connecting segments *through a cell* (a terminal reachable from both
    adjacent channels) also merge the wires at that pin's column.

    Trunks of one channel that share a column are one merged span
    (``trunk_spans``, :meth:`NetRoute.trunk_intervals`), so the wires
    are the merged spans plus the branches; merging only joins wires
    that are connected anyway, so the count of pieces is the same as
    over single trunks.  Each channel's wires are swept in order of
    ``lo``: a wire joins the running group while its ``lo`` is at most
    the largest ``hi`` seen so far, which finds the same groups as
    testing every pair of wires.
    """
    if trunk_spans is None:
        trunk_spans = route.trunk_intervals()
    if branches is None:
        branches = [e for e in route.edges if e.kind is _BRANCH]
    # Each channel's wires as (lo, hi, wire): its merged trunk spans,
    # and every branch, which crosses a row and so joins the lists of
    # both channels beside it.
    by_channel: Dict[int, List[Tuple[int, int, int]]] = {}
    wires = 0
    for channel, spans in trunk_spans.items():
        by_channel[channel] = [
            (span.lo, span.hi, wire)
            for wire, span in enumerate(spans, wires)
        ]
        wires += len(spans)
    for edge in branches:
        span = (edge.interval.lo, edge.interval.hi, wires)
        by_channel.setdefault(edge.channel, []).append(span)
        by_channel.setdefault(edge.channel + 1, []).append(span)
        wires += 1
    if wires <= 1:
        return []

    parent = list(range(wires))

    def union(i: int, j: int) -> int:
        """Join the pieces of wires ``i`` and ``j``; 1 if they were two."""
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i == j:
            return 0
        parent[i] = j
        return 1

    pieces = wires
    for spans in by_channel.values():
        if len(spans) < 2:
            continue
        spans.sort()
        group, reach = -1, -1
        for lo, hi, wire in spans:
            if group >= 0 and lo <= reach:
                pieces -= union(wire, group)
                if hi > reach:
                    reach = hi
            else:
                group, reach = wire, hi

    # A pin reachable from both adjacent channels merges wires at its
    # column (the route crosses through the cell).  Wires of one channel
    # that share a column are already one group, so only columns
    # reached from two or more channels can join anything.
    channels_at: Dict[int, Set[int]] = {}
    for attachment in route.attachments:
        channels_at.setdefault(attachment.column, set()).add(
            attachment.channel
        )
    for column, channels in channels_at.items():
        if len(channels) < 2:
            continue
        incident = [
            wire
            for channel in channels
            for lo, hi, wire in by_channel.get(channel, ())
            if lo <= column <= hi
        ]
        for a, b in zip(incident, incident[1:]):
            pieces -= union(a, b)

    if pieces > 1:
        return [
            f"net {route.net_name}: wiring is not connected "
            f"({pieces} separate pieces)"
        ]
    return []


def _check_terminals(
    route: NetRoute, net, placement: Placement
) -> List[str]:
    problems = []
    attach_points = {(a.channel, a.column) for a in route.attachments}
    for pin in net.pins:
        column, channels = placement.pin_access(pin)
        if not any(
            (channel, column) in attach_points for channel in channels
        ):
            problems.append(
                f"net {route.net_name}: pin {pin.full_name} at column "
                f"{column} has no attachment"
            )
    return problems


def _check_density(
    result: GlobalRoutingResult,
    n_channels: int,
    width: int,
    merged: Dict[str, Dict[int, List[Interval]]],
) -> List[str]:
    """The reported peak density must cover the actual trunk coverage.

    Recomputes each channel's peak column density from every net's
    *merged* trunk intervals (``merged``, as the per-net pass found
    them; a route of an unroutable net merges its own) weighted by the
    net's width in pitches, and flags any channel whose reported
    ``channel_peak_density`` falls short.  Follows the density engine's
    coverage convention — a trunk spanning ``[lo, hi]`` covers columns
    ``lo .. hi-1`` — and merged coverage is a lower bound on any honest
    per-edge accounting (abutting edges of one net count once), so a
    shortfall always means under-reported density — an under-sized
    floorplan — never a representation difference.
    """
    width = max(1, width)
    coverage: Dict[int, List[int]] = {}
    for name in sorted(result.routes):
        route = result.routes[name]
        weight = route.width_pitches
        spans_of = merged.get(name)
        if spans_of is None:
            spans_of = route.trunk_intervals()
        for channel, spans in spans_of.items():
            if not (0 <= channel < n_channels):
                continue  # reported separately by the geometry check
            diff = coverage.setdefault(channel, [0] * (width + 1))
            for span in spans:
                lo = max(0, span.lo)
                hi = min(width, span.hi)
                if lo < hi:
                    diff[lo] += weight
                    diff[hi] -= weight
    problems = []
    for channel in sorted(coverage):
        peak = max(accumulate(coverage[channel][:-1], initial=0))
        reported = result.channel_peak_density.get(channel, 0)
        if peak > reported:
            problems.append(
                f"channel {channel}: actual peak density {peak} exceeds "
                f"reported {reported}"
            )
    return problems


def _check_slots(
    route: NetRoute,
    net,
    branches: List[RoutedEdge],
    assignment: FeedthroughAssignment,
    slot_owner: Dict[Tuple[int, int], str],
) -> List[str]:
    """Every branch sits on a slot column granted to the net, and no
    feedthrough column is granted to two nets (check 4)."""
    problems = []
    granted = assignment.of_net(net)
    if branches:
        granted_columns = {
            (row, column)
            for row, slot in granted.items()
            for column in slot.columns
        }
        for edge in branches:
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
