"""The verifier's per-net checks cost in proportion to the net.

``_check_tree`` finds connected wires with a per-channel sweep; the
oracle below is the all-pairs formulation it replaced.  The two must
return the same list on any wire set, including two-channel branches,
zero-span trunks, through-cell attachments and nets split in pieces.
The work-count tests pin that ``verify_routing`` reads the chip width
once per call, not once per net.
"""

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
)
from repro.core.verify import _check_tree, verify_routing
from repro.engines import make_engine
from repro.geometry import Interval
from repro.layout.placement import Placement
from repro.routegraph.graph import EdgeKind


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
