"""The verifier's checks cost in proportion to the chip.

``_check_tree`` finds connected wires with the runs of a per-channel
sweep; the oracle below is the all-pairs formulation it replaced.  The
two must return the same list on any wire set, including two-channel
branches, zero-span trunks, through-cell attachments and nets split in
pieces.  The work-count tests pin that ``verify_routing`` reads the
chip width and the channel count once per call, not once per net, and
merges the route table's trunks once per call, from the router's own
table.  Against ``tests/verify_reference.py``, the verifier that walked
each route once per check, it must return the same violations in the
same order on routed results with faults injected, zero-span trunks
among them.
"""

import dataclasses
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import make_dataset, small_suite
from repro.core.config import RouterConfig
from repro.core.result import (
    AttachSide,
    ChannelAttachment,
    NetRoute,
    RoutedEdge,
    RouteTable,
)
from repro.core.verify import _check_tree, verify_routing
from repro.engines import make_engine
from repro.geometry import Interval
from repro.layout.feedthrough import FeedthroughAssignment
from repro.layout.placement import Placement
from repro.routegraph.graph import EdgeKind
from tests.verify_reference import reference_verify_routing


def pairwise_check_tree(route: NetRoute) -> List[str]:
    """Oracle: union every pair of wires that share a column."""
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

    def channels_of(edge) -> Tuple[int, ...]:
        if edge.kind is EdgeKind.TRUNK:
            return (edge.channel,)
        return (edge.channel, edge.channel + 1)

    def touches(a, b) -> bool:
        shared = set(channels_of(a)) & set(channels_of(b))
        if not shared:
            return False
        return a.interval.overlaps(b.interval)

    for i in range(len(wires)):
        for j in range(i + 1, len(wires)):
            if touches(wires[i], wires[j]):
                union(i, j)

    columns_with_attachments: Dict[int, List[int]] = {}
    for attachment in route.attachments:
        columns_with_attachments.setdefault(
            attachment.column, []
        ).append(attachment.channel)
    for column, channels in columns_with_attachments.items():
        incident: List[int] = []
        for channel in set(channels):
            for index, wire in enumerate(wires):
                if channel in channels_of(wire) and wire.interval.contains(
                    column
                ):
                    incident.append(index)
        for a, b in zip(incident, incident[1:]):
            union(a, b)

    roots = {find(i) for i in range(len(wires))}
    if len(roots) > 1:
        return [
            f"net {route.net_name}: wiring is not connected "
            f"({len(roots)} separate pieces)"
        ]
    return []


_CHANNELS = 4
_COLUMNS = 16

_trunk = st.builds(
    lambda channel, lo, span: RoutedEdge(
        EdgeKind.TRUNK, channel, Interval(lo, lo + span), 4.0 * span
    ),
    st.integers(0, _CHANNELS - 1),
    st.integers(0, _COLUMNS - 1),
    st.integers(0, 6),
)
_vertical = st.builds(
    lambda kind, channel, column: RoutedEdge(
        kind, channel, Interval(column, column), 10.0
    ),
    st.sampled_from((EdgeKind.BRANCH, EdgeKind.CORRESPONDENCE)),
    st.integers(0, _CHANNELS - 2),
    st.integers(0, _COLUMNS - 1),
)
_attachment = st.builds(
    ChannelAttachment,
    st.integers(0, _CHANNELS - 1),
    st.integers(0, _COLUMNS - 1),
    st.sampled_from(AttachSide),
)
#: A pin reached from both channels beside its row: the route may cross
#: the cell there.
_through_cell = st.builds(
    lambda row, column: [
        ChannelAttachment(row, column, AttachSide.TOP),
        ChannelAttachment(row + 1, column, AttachSide.BOTTOM),
    ],
    st.integers(0, _CHANNELS - 2),
    st.integers(0, _COLUMNS - 1),
)


def _shifted(edge: RoutedEdge, offset: int) -> RoutedEdge:
    return RoutedEdge(
        edge.kind, edge.channel,
        Interval(edge.interval.lo + offset, edge.interval.hi + offset),
        edge.length_um,
    )


def _route(edges, attachments) -> NetRoute:
    return NetRoute(
        "n", 1, list(edges), list(attachments),
        sum(e.length_um for e in edges), 0.0,
    )


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.one_of(_trunk, _vertical), max_size=14),
    attachments=st.lists(_attachment, max_size=6),
    through=st.lists(_through_cell, max_size=4),
    split=st.lists(st.one_of(_trunk, _vertical), max_size=4),
)
def test_sweep_matches_pairwise_oracle(edges, attachments, through, split):
    # ``split`` lands far right of everything else: a second piece.
    edges = edges + [_shifted(e, 10 * _COLUMNS) for e in split]
    route = _route(edges, attachments + sum(through, []))
    assert _check_tree(route) == pairwise_check_tree(route)


def _trunk_at(channel, lo, hi):
    return RoutedEdge(EdgeKind.TRUNK, channel, Interval(lo, hi), 4.0)


def _branch_at(row, column):
    return RoutedEdge(EdgeKind.BRANCH, row, Interval(column, column), 10.0)


_TOP, _BOTTOM = AttachSide.TOP, AttachSide.BOTTOM


@pytest.mark.parametrize(
    "edges,attachments,pieces",
    [
        ([_trunk_at(1, 0, 4), _trunk_at(1, 4, 9)], [], 1),
        ([_trunk_at(1, 0, 3), _trunk_at(1, 4, 9)], [], 2),
        ([_trunk_at(1, 0, 5), _branch_at(1, 5), _trunk_at(2, 5, 8)], [], 1),
        ([_trunk_at(0, 0, 9), _trunk_at(0, 3, 3)], [], 1),
        ([_trunk_at(1, 0, 5), _trunk_at(2, 3, 8)], [], 2),
        (
            [_trunk_at(1, 0, 5), _trunk_at(2, 3, 8)],
            [ChannelAttachment(1, 4, _TOP), ChannelAttachment(2, 4, _BOTTOM)],
            1,
        ),
        # The long first trunk keeps the group open past the short one.
        (
            [_trunk_at(0, 0, 20), _trunk_at(0, 2, 3), _trunk_at(0, 15, 30)],
            [],
            1,
        ),
    ],
    ids=[
        "shared-column", "adjacent-columns-apart", "branch-joins-channels",
        "zero-span-inside", "two-channels-apart", "through-cell",
        "nested-reach",
    ],
)
def test_sweep_cases(edges, attachments, pieces):
    expected = [] if pieces == 1 else [
        f"net n: wiring is not connected ({pieces} separate pieces)"
    ]
    assert _check_tree(_route(edges, attachments)) == expected


@pytest.fixture(scope="module")
def routed():
    dataset = make_dataset(small_suite()[0])
    router = make_engine(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    return dataset, router, router.route()


def test_routed_nets_agree_with_oracle(routed):
    _, _, result = routed
    for route in result.routes.values():
        assert _check_tree(route) == pairwise_check_tree(route) == []


def test_width_read_once_per_verify_call(routed, monkeypatch):
    dataset, router, result = routed
    reads = []
    width = Placement.width_columns

    def counted(placement):
        reads.append(1)
        return width.fget(placement)

    monkeypatch.setattr(Placement, "width_columns", property(counted))
    assert verify_routing(
        dataset.circuit, dataset.placement, result, router.assignment
    ) == []
    assert len(result.routes) > 1
    assert len(reads) == 1


def test_channel_count_read_once_per_verify_call(routed, monkeypatch):
    dataset, router, result = routed
    reads = []
    n_channels = Placement.n_channels

    def counted(placement):
        reads.append(1)
        return n_channels.fget(placement)

    monkeypatch.setattr(Placement, "n_channels", property(counted))
    assert verify_routing(
        dataset.circuit, dataset.placement, result, router.assignment
    ) == []
    assert len(reads) == 1


def test_trunks_merged_once_per_call(routed, monkeypatch):
    dataset, router, result = routed
    merges, rescans, rebuilds = [], [], []
    merged_trunks = RouteTable.merged_trunks

    def counted(table):
        merges.append(table)
        return merged_trunks(table)

    monkeypatch.setattr(RouteTable, "merged_trunks", counted)
    monkeypatch.setattr(
        NetRoute, "trunk_intervals", lambda route: rescans.append(1)
    )
    monkeypatch.setattr(
        RouteTable, "from_routes",
        classmethod(lambda cls, routes: rebuilds.append(1)),
    )
    assert verify_routing(
        dataset.circuit, dataset.placement, result, router.assignment
    ) == []
    # One chip-wide merge of the router's own table, read by the tree
    # check; no check re-reads a net's trunks or rebuilds the table.
    assert len(merges) == 1
    assert rescans == [] and rebuilds == []


def _copy(result):
    """A result whose routes, edge and attachment lists and peak
    densities can be changed without touching ``result``."""
    routes = {
        name: dataclasses.replace(
            route, edges=list(route.edges),
            attachments=list(route.attachments),
        )
        for name, route in result.routes.items()
    }
    return dataclasses.replace(
        result, routes=routes,
        channel_peak_density=dict(result.channel_peak_density),
    )


def _inject(rng, placement, result, assignment):
    """One random fault: a bad, extra, duplicated, moved or missing
    wire, attachment, length, density, route or slot, or a zero-span
    trunk."""
    # Most faults land on a few nets with branches, so that one net
    # often collects several kinds of violation.
    names = sorted(result.routes)
    few = [n for n in names if any(
        e.kind is EdgeKind.BRANCH for e in result.routes[n].edges
    )][:3]
    route = result.routes[rng.choice(few if rng.random() < 0.8 else names)]
    width = placement.width_columns
    fault = rng.randrange(13)
    edges = route.edges
    if fault == 0:  # off the chip
        lo = rng.randrange(width)
        edges.append(
            RoutedEdge(EdgeKind.TRUNK, 1, Interval(lo, width + 5), 4.0)
        )
    elif fault == 1:  # illegal channel
        channel = rng.choice((-1, placement.n_channels))
        edges.append(
            RoutedEdge(EdgeKind.TRUNK, channel, Interval(0, 2), 8.0)
        )
    elif fault == 2 and edges:  # negative length
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(length_um=-1.0)
    elif fault == 3 and edges:  # duplicated wire, mostly a physical one
        wires = [e for e in edges if e.kind is not EdgeKind.CORRESPONDENCE]
        edge = rng.choice(wires if wires and rng.random() < 0.8 else edges)
        edges.insert(rng.randrange(len(edges) + 1), edge)
        if rng.random() < 0.5:
            route.total_length_um += edge.length_um
    elif fault == 4 and edges:  # missing wire
        del edges[rng.randrange(len(edges))]
    elif fault == 5:  # moved branch
        branches = [
            k for k, e in enumerate(edges) if e.kind is EdgeKind.BRANCH
        ]
        if branches:
            k = rng.choice(branches)
            column = edges[k].interval.lo + rng.choice((-1, 1))
            edges[k] = edges[k]._replace(interval=Interval(column, column))
    elif fault == 6:  # misreported length
        route.total_length_um += rng.choice((-3.0, 1e-7, 50.0))
    elif fault == 7 and route.attachments:  # lost attachment
        del route.attachments[rng.randrange(len(route.attachments))]
    elif fault == 8:  # under-reported density
        channel = rng.choice(sorted(result.channel_peak_density))
        result.channel_peak_density[channel] -= rng.randint(1, 3)
    elif fault == 9:  # missing route
        del result.routes[route.net_name]
    elif fault == 10:  # a route for no routable net
        result.routes["zz_not_a_net"] = dataclasses.replace(
            route, net_name="zz_not_a_net", edges=list(edges)
        )
    elif fault == 11 and len(assignment.slots) > 1:  # slot granted twice
        a, b = rng.sample(sorted(assignment.slots), 2)
        if assignment.slots[a]:
            row = rng.choice(sorted(assignment.slots[a]))
            assignment.slots[b] = dict(assignment.slots[b])
            assignment.slots[b][row] = assignment.slots[a][row]
    elif fault == 12:  # a zero-span trunk, mostly at a trunk's end
        trunks = [e for e in edges if e.kind is EdgeKind.TRUNK]
        if trunks and rng.random() < 0.8:
            trunk = rng.choice(trunks)
            channel = trunk.channel
            column = rng.choice((trunk.interval.lo, trunk.interval.hi))
        else:
            channel = rng.randrange(placement.n_channels)
            column = rng.randrange(width)
        edges.append(
            RoutedEdge(EdgeKind.TRUNK, channel, Interval(column, column), 0.0)
        )
    else:  # a far, disconnected trunk
        edges.append(
            RoutedEdge(
                EdgeKind.TRUNK, rng.randrange(placement.n_channels),
                Interval(width - 2, width - 1), 4.0,
            )
        )


@pytest.fixture(scope="module")
def routed_negotiated():
    dataset = make_dataset(small_suite()[1])
    router = make_engine(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(routing_engine="negotiated"),
    )
    return dataset, router, router.route()


@pytest.mark.parametrize("which", ["routed", "routed_negotiated"])
def test_same_violations_as_reference(which, request):
    dataset, router, routed_result = request.getfixturevalue(which)
    circuit, placement = dataset.circuit, dataset.placement
    rng = random.Random(5)
    found = 0
    for _ in range(150):
        result = _copy(routed_result)
        assignment = FeedthroughAssignment(
            slots=dict(router.assignment.slots),
            failures=list(router.assignment.failures),
        )
        for _ in range(rng.randint(1, 4)):
            _inject(rng, placement, result, assignment)
        for granted in (assignment, None):
            expected = reference_verify_routing(
                circuit, placement, result, granted
            )
            assert verify_routing(
                circuit, placement, result, granted
            ) == expected
            found += bool(expected)
    assert found > 200
