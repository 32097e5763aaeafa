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
   from the routes' trunk coverage never exceeds the result's reported
   ``channel_peak_density``.

Checks 7 and 8 exist because the edge-deletion engine guarantees both
properties *by construction* (routes are read off a pruned graph in
which every edge appears once, and density is maintained incrementally
as edges die), so the checker used to take them on faith.  An iterative
rip-up-and-reroute engine rebuilds trees from scratch every round; a
bug there can double-adopt a wire or under-report density — inflating
wire length or shrinking the floorplan — while still passing checks
1-6.  The verifier must not trust any engine's bookkeeping.

The checks read the result's :class:`~repro.core.result.RouteTable`
(:func:`~repro.core.result.route_table`: the router's own table while
every route still is its view, else one built from the routes), never
a tuple per wire, and each runs over the whole chip at once: masks over
every wire for geometry (3), a stable sort for wire uniqueness (7), one
``searchsorted`` lookup for the branch half of slot
exclusivity (4) and for terminal coverage (5), a numpy union-find over
each net's wire runs for tree legality (2), sorted coverage changes for
density (8).  Only the inputs that are Python objects are walked in
Python: the pins (one ``pin_access`` each), the granted slots, and per
net one ``sum`` over its lengths' slice (6).  The chip width and
channel count are read once per call.  For ``E`` wires, ``A``
attachments, ``P`` pins and ``S`` granted slot columns a call costs
``O((E + A + P + S) log(E + A + P + S))``; each check returns its
problems per net, and the messages come out per net in name order,
check by check, then density by channel.

Violations come back as a list of human-readable strings (empty = clean),
so the checker slots directly into tests, CI, and post-run sanity checks.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..layout.feedthrough import FeedthroughAssignment
from ..layout.placement import Placement
from ..netlist.circuit import Circuit, Net
from .result import (
    BRANCH,
    KINDS,
    TRUNK,
    GlobalRoutingResult,
    NetRoute,
    RouteTable,
    locate,
    merge_runs,
    pack_keys,
    route_table,
    run_starts,
)


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

    width = placement.width_columns
    n_channels = placement.n_channels
    routes = result.routes
    table = route_table(routes)
    names = table.names
    labels = [routes[name].net_name for name in names]
    nets = {
        index: circuit.net(name)
        for index, name in enumerate(names)
        if name in routable
    }
    problems = [
        _check_geometry(table, labels, n_channels, width),
        _check_trees(table, labels),
        _check_terminals(table, labels, nets, placement),
        _check_lengths(table, labels, routes),
        _check_duplicates(table, labels),
    ]
    if assignment is not None:
        problems.append(_check_slots(table, labels, nets, assignment))
    # Per routable net in name order, its problems check by check.
    for index in sorted(set().union(*problems).intersection(nets)):
        for found in problems:
            violations.extend(found.get(index, ()))
    violations.extend(
        _check_density(
            table,
            [routes[name].width_pitches for name in names],
            result.channel_peak_density,
            n_channels,
            width,
        )
    )
    return violations


# ----------------------------------------------------------------------
def _check_geometry(
    table: RouteTable, labels: Sequence[str], n_channels: int, width: int
) -> Dict[int, List[str]]:
    """Check 3 over every wire: a legal channel, columns inside the
    chip, a non-negative length; per net, the problems in wire order."""
    limit = max(1, width)
    channel = table.wire_channel
    lo = table.wire_lo
    hi = table.wire_hi
    bad_channel = (channel < 0) | (channel >= n_channels)
    bad_span = (lo < 0) | (hi >= limit)
    bad_length = table.wire_length < 0
    problems: Dict[int, List[str]] = {}
    for row in np.flatnonzero(bad_channel | bad_span | bad_length).tolist():
        index = int(table.wire_net[row])
        name = labels[index]
        out = problems.setdefault(index, [])
        if bad_channel[row]:
            out.append(
                f"net {name}: edge in illegal channel {int(channel[row])}"
            )
        if bad_span[row]:
            out.append(
                f"net {name}: edge spans columns {int(lo[row])}.."
                f"{int(hi[row])} outside chip width {width}"
            )
        if bad_length[row]:
            out.append(f"net {name}: negative edge length")
    return problems


def _check_duplicates(
    table: RouteTable, labels: Sequence[str]
) -> Dict[int, List[str]]:
    """Check 7: no route lists the same physical wire twice; per net,
    each repeat after the first, in wire order.

    Only TRUNK and BRANCH wires are physical metal.  A duplicated wire
    passes the connectivity and length checks (the reported total
    *includes* the duplicate) while silently inflating wire length,
    capacitance, and density; correspondence edges are zero-length
    bookkeeping hops, and several may legitimately share one column
    footprint.
    """
    kind = table.wire_kind
    rows = np.flatnonzero((kind == TRUNK) | (kind == BRANCH))
    columns = [
        column[rows]
        for column in (
            table.wire_hi, table.wire_lo, table.wire_channel, kind,
            table.wire_net,
        )
    ]
    # Stable: equal wires keep their row order, so each run's first
    # row is the original and the rest are repeats.
    order = np.lexsort(columns)
    repeat = np.ones(max(0, len(rows) - 1), dtype=bool)
    for column in columns:
        ordered = column[order]
        repeat &= ordered[1:] == ordered[:-1]
    problems: Dict[int, List[str]] = {}
    for row in np.sort(rows[order][1:][repeat]).tolist():
        index = int(table.wire_net[row])
        problems.setdefault(index, []).append(
            f"net {labels[index]}: duplicate "
            f"{KINDS[table.wire_kind[row]].name} wire in channel "
            f"{int(table.wire_channel[row])} at columns "
            f"{int(table.wire_lo[row])}..{int(table.wire_hi[row])}"
        )
    return problems


def _tree_pieces(table: RouteTable) -> np.ndarray:
    """Check 2 for every net at once: how many connected pieces its
    trunks and branches form (0 without any).

    The snapshot stores geometry, not graph endpoints, so connectivity is
    checked physically: two wires connect when they share a column of a
    channel — trunks of one channel whose intervals share a column, a
    branch tapping a trunk at its column in either channel it joins, or
    two branches stacked through adjacent rows at one column.  Pins
    connecting segments *through a cell* (a terminal reachable from both
    adjacent channels) also merge the wires at that pin's column.

    The wires are each net's merged trunk spans
    (:meth:`RouteTable.merged_trunks`; merging only joins wires that are
    connected anyway, so the count of pieces is the same as over single
    trunks) and its branches, a branch listed in the channels on both
    sides of its row.  Per net and channel, the wires that share
    columns form maximal runs (:func:`run_starts`, the sweep in order of
    ``lo``), and every wire joins its run's first.  An attachment joins
    the run of its channel that holds its column, and the runs that a
    net's attachments at one column reach are joined in a chain: a
    column reached from one channel only joins nothing new.  Pieces are
    the components of these joins (:func:`_components`).
    """
    net, channel, lo, hi = table.merged_trunks()
    rows = np.flatnonzero(table.wire_kind == BRANCH)
    branch_net = table.wire_net[rows]
    branch_channel = table.wire_channel[rows]
    branch_lo = table.wire_lo[rows]
    branch_hi = table.wire_hi[rows]
    wire_net = np.concatenate((net, branch_net))
    wires = np.arange(len(wire_net))
    branches = wires[len(net):]
    # Each channel's wires: its spans, and the branches of both rows
    # beside it.
    net = np.concatenate((net, branch_net, branch_net))
    channel = np.concatenate(
        (channel, branch_channel, branch_channel + 1)
    )
    lo = np.concatenate((lo, branch_lo, branch_lo))
    hi = np.concatenate((hi, branch_hi, branch_hi))
    order, starts = run_starts(net, channel, lo, hi)
    member = np.concatenate((wires, branches, branches))[order]
    first = np.flatnonzero(starts)
    leader = member[first]
    joins_a = [member]
    joins_b = [leader[np.cumsum(starts) - 1]]
    if len(first):
        run = locate(
            (
                net[order][first],
                channel[order][first],
                lo[order][first],
                np.maximum.reduceat(hi[order], first),
            ),
            (table.attach_net, table.attach_channel, table.attach_column),
        )
        inside = run >= 0
        at_net = table.attach_net[inside]
        at_column = table.attach_column[inside]
        at_leader = leader[run[inside]]
        chain = np.lexsort((at_column, at_net))
        at_net = at_net[chain]
        at_column = at_column[chain]
        at_leader = at_leader[chain]
        same = (at_net[1:] == at_net[:-1]) & (
            at_column[1:] == at_column[:-1]
        )
        joins_a.append(at_leader[1:][same])
        joins_b.append(at_leader[:-1][same])
    label = _components(
        len(wires), np.concatenate(joins_a), np.concatenate(joins_b)
    )
    return np.bincount(
        wire_net[label == wires], minlength=len(table.names)
    )


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of ``n`` nodes' component over the joins ``a[k]``–``b[k]``,
    named by its smallest node.

    Every label names a root (a node labelled with itself).  Each round
    hooks, for every join whose ends still differ, the larger root
    under the smaller, then points every node at its label's label
    until the labels settle; labels only fall, so the rounds end.
    """
    label = np.arange(n)
    while True:
        label_a = label[a]
        label_b = label[b]
        apart = label_a != label_b
        if not apart.any():
            return label
        low = np.minimum(label_a, label_b)[apart]
        np.minimum.at(label, label_a[apart], low)
        np.minimum.at(label, label_b[apart], low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _check_trees(
    table: RouteTable, labels: Sequence[str]
) -> Dict[int, List[str]]:
    """Check 2, per net: its wires form one connected piece."""
    return {
        index: [
            f"net {labels[index]}: wiring is not connected "
            f"({pieces} separate pieces)"
        ]
        for index, pieces in enumerate(_tree_pieces(table).tolist())
        if pieces > 1
    }


def _check_tree(route: NetRoute) -> List[str]:
    """Check 2 for one route, read from its own rows."""
    table = RouteTable.from_routes({route.net_name: route})
    return _check_trees(table, [route.net_name]).get(0, [])


def _check_lengths(
    table: RouteTable, labels: Sequence[str], routes: Dict[str, NetRoute]
) -> Dict[int, List[str]]:
    """Check 6, per net: the reported total equals the sum of its wire
    lengths, added in row order by Python's ``sum`` over the net's own
    slice (no chip-wide copy)."""
    lengths = table.wire_length
    start = table.wire_start.tolist()
    problems: Dict[int, List[str]] = {}
    for index, (name, lo, hi) in enumerate(
        zip(table.names, start, start[1:])
    ):
        total = sum(lengths[lo:hi].tolist())
        reported = routes[name].total_length_um
        if abs(total - reported) > 1e-6:
            problems[index] = [
                f"net {labels[index]}: reported length {reported} != "
                f"edge sum {total}"
            ]
    return problems


def _check_terminals(
    table: RouteTable,
    labels: Sequence[str],
    nets: Dict[int, Net],
    placement: Placement,
) -> Dict[int, List[str]]:
    """Check 5, per checked net (``nets``, by table index): each pin has
    an attachment at its column in a channel it can be reached from
    (the lowest or the highest of :meth:`Placement.pin_access`, which
    lists one or two).  The pins' access points are read once, then
    looked up among the attachments in bulk; per net, the unattached
    pins in pin order.  The access columns are filled pin by pin into
    typed arrays, with no list of pins or of access tuples."""
    net, column, low, high = (array("q") for _ in range(4))
    pin_access = placement.pin_access
    for index, checked in nets.items():
        for pin in checked.pins:
            at, channels = pin_access(pin)
            net.append(index)
            column.append(at)
            low.append(channels[0])
            high.append(channels[-1])
    net, column, low, high = (
        np.frombuffer(values, dtype=np.int64)
        for values in (net, column, low, high)
    )
    low_key, high_key, attach_key = pack_keys(
        (net, low, column),
        (net, high, column),
        (table.attach_net, table.attach_channel, table.attach_column),
    )
    attached = _member(low_key, attach_key) | _member(high_key, attach_key)
    problems: Dict[int, List[str]] = {}
    unattached = np.flatnonzero(~attached).tolist()
    if unattached:
        pins = [pin for checked in nets.values() for pin in checked.pins]
        for k in unattached:
            index = int(net[k])
            problems.setdefault(index, []).append(
                f"net {labels[index]}: pin {pins[k].full_name} at column "
                f"{int(column[k])} has no attachment"
            )
    return problems


def _member(keys: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Whether each key occurs in ``among``: one sort and one
    ``searchsorted``, memory in proportion to the inputs (``np.isin``
    may allocate a table or hash over the keys' whole range)."""
    among = np.sort(among)
    at = np.searchsorted(among, keys)
    found = np.zeros(len(keys), dtype=bool)
    inside = at < len(among)
    found[inside] = among[at[inside]] == keys[inside]
    return found


def _check_density(
    table: RouteTable,
    weights: Sequence[int],
    reported: Dict[int, int],
    n_channels: int,
    width: int,
) -> List[str]:
    """The reported peak density must cover the actual trunk coverage.

    Recomputes each channel's peak column density from every route's
    trunks (a route of an unroutable net included) and flags any
    channel that holds a trunk and whose reported
    ``channel_peak_density`` falls short.  Follows the density engine's
    coverage convention (:func:`~repro.core.density.coverage_columns`):
    a trunk spanning ``[lo, hi]`` covers columns ``lo .. hi-1``, a
    zero-span trunk its one column ``lo``.  A net counts each column it
    covers in a channel once, weighted by its width in pitches (its
    ranges merged per channel), which is a lower bound on any honest
    per-edge accounting (abutting edges of one net count once), so a
    shortfall always means under-reported density — an under-sized
    floorplan — never a representation difference.

    Each merged range adds its weight at its first column and takes it
    back past its last.  A channel's changes sum to zero, so one
    running sum over all changes, sorted by channel and column, starts
    every channel at zero; a column's density is the sum after its
    last change.
    """
    width = max(1, width)
    channel = table.wire_channel
    trunk = (
        (table.wire_kind == TRUNK) & (channel >= 0) & (channel < n_channels)
    )
    net = table.wire_net[trunk]
    channel = channel[trunk]
    lo = table.wire_lo[trunk]
    holding = np.unique(channel).tolist()
    first = np.maximum(lo, 0)
    last = np.minimum(np.maximum(lo, table.wire_hi[trunk] - 1), width - 1)
    kept = first <= last
    net, channel, first, last = merge_runs(
        net[kept], channel[kept], first[kept], last[kept]
    )
    weight = np.asarray(weights, dtype=np.int64)[net]
    at_channel = np.concatenate((channel, channel))
    at_column = np.concatenate((first, last + 1))
    order = np.lexsort((at_column, at_channel))
    at_channel = at_channel[order]
    at_column = at_column[order]
    density = np.cumsum(np.concatenate((weight, -weight))[order])
    settled = np.ones(len(order), dtype=bool)
    settled[:-1] = (at_channel[1:] != at_channel[:-1]) | (
        at_column[1:] != at_column[:-1]
    )
    at_channel = at_channel[settled]
    density = density[settled]
    peaks: Dict[int, int] = {}
    if len(at_channel):
        starts = np.flatnonzero(
            np.concatenate(([True], at_channel[1:] != at_channel[:-1]))
        )
        peaks = dict(
            zip(
                at_channel[starts].tolist(),
                np.maximum.reduceat(density, starts).tolist(),
            )
        )
    problems = []
    for channel in holding:
        peak = max(0, peaks.get(channel, 0))
        limit = reported.get(channel, 0)
        if peak > limit:
            problems.append(
                f"channel {channel}: actual peak density {peak} exceeds "
                f"reported {limit}"
            )
    return problems


def _check_slots(
    table: RouteTable,
    labels: Sequence[str],
    nets: Dict[int, Net],
    assignment: FeedthroughAssignment,
) -> Dict[int, List[str]]:
    """Check 4, per checked net (``nets``, by table index): every branch
    sits on a slot column granted to the net, and no feedthrough column
    is granted to two nets.

    The grants are read once, nets in name order, each slot's columns
    in order; the branches are looked up among them in bulk.  A column
    granted again is reported under the later net, naming the net that
    held it last.
    """
    slots = [
        (index, row, slot.x, slot.width)
        for index, net in nets.items()
        for row, slot in assignment.of_net(net).items()
    ]
    if slots:
        slot_net, slot_row, slot_x, slot_width = (
            np.array(column, dtype=np.int64) for column in zip(*slots)
        )
    else:
        slot_net = slot_row = slot_x = slot_width = np.zeros(0, np.int64)
    # One grant per slot column, in slot order.
    slot_of = np.repeat(np.arange(len(slots)), slot_width)
    offset = np.arange(len(slot_of)) - np.repeat(
        np.cumsum(slot_width) - slot_width, slot_width
    )
    grant_net = slot_net[slot_of]
    grant_row = slot_row[slot_of]
    grant_column = slot_x[slot_of] + offset
    checked = np.zeros(len(table.names), dtype=bool)
    checked[list(nets)] = True
    rows = np.flatnonzero(
        (table.wire_kind == BRANCH) & checked[table.wire_net]
    )
    net = table.wire_net[rows]
    channel = table.wire_channel[rows]
    column = table.wire_lo[rows]
    branch_key, grant_key = pack_keys(
        (net, channel, column), (grant_net, grant_row, grant_column)
    )
    ungranted = ~_member(branch_key, grant_key)
    problems: Dict[int, List[str]] = {}
    for index, row, at in zip(
        net[ungranted].tolist(),
        channel[ungranted].tolist(),
        column[ungranted].tolist(),
    ):
        problems.setdefault(index, []).append(
            f"net {labels[index]}: branch at row {row} column {at} uses "
            "an ungranted slot"
        )
    (place,) = pack_keys((grant_row, grant_column))
    order = np.argsort(place, kind="stable")
    again = np.flatnonzero(place[order][1:] == place[order][:-1])
    later = order[again + 1]
    earlier = order[again]
    names = table.names
    for g, owner in sorted(zip(later.tolist(), earlier.tolist())):
        index = int(grant_net[g])
        if grant_net[owner] != index:
            problems.setdefault(index, []).append(
                f"slot row {int(grant_row[g])} column "
                f"{int(grant_column[g])} granted to both "
                f"{names[grant_net[owner]]} and {names[index]}"
            )
    return problems
