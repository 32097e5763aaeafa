"""Unit tests for the channel router's net-collection stage (the
chip-wide ``collect_channels`` over one-net results) and the
vertical-length accounting."""

import pytest

from repro.channelrouter.leftedge import (
    _vertical_lengths,
    collect_channels,
    route_channel,
)
from repro.core.result import (
    AttachSide,
    ChannelAttachment,
    NetRoute,
    RoutedEdge,
)
from repro.geometry import Interval
from repro.routegraph.graph import EdgeKind
from repro.tech import Technology


def make_route(edges, attachments, width=1):
    return NetRoute(
        net_name="n",
        width_pitches=width,
        edges=edges,
        attachments=attachments,
        total_length_um=sum(e.length_um for e in edges),
        wire_cap_pf=0.0,
    )


class TestCollectNet:
    def test_trunk_becomes_segment_with_attachments(self):
        route = make_route(
            [RoutedEdge(EdgeKind.TRUNK, 1, Interval(2, 8), 24.0)],
            [
                ChannelAttachment(1, 2, AttachSide.TOP),
                ChannelAttachment(1, 8, AttachSide.BOTTOM),
            ],
        )
        segments, throughs = collect_channels({route.net_name: route})
        assert list(segments) == [1]
        (segment,) = segments[1]
        assert segment.interval == Interval(2, 8)
        assert segment.attach_top == [2]
        assert segment.attach_bottom == [8]
        assert throughs == {}

    def test_adjacent_trunks_merge(self):
        route = make_route(
            [
                RoutedEdge(EdgeKind.TRUNK, 0, Interval(0, 4), 16.0),
                RoutedEdge(EdgeKind.TRUNK, 0, Interval(4, 9), 20.0),
            ],
            [ChannelAttachment(0, 0, AttachSide.TOP)],
        )
        segments, throughs = collect_channels({route.net_name: route})
        assert len(segments[0]) == 1
        assert segments[0][0].interval == Interval(0, 9)

    def test_attachment_without_span_is_through(self):
        route = make_route(
            [],
            [
                ChannelAttachment(2, 5, AttachSide.TOP),
                ChannelAttachment(2, 5, AttachSide.BOTTOM),
            ],
        )
        segments, throughs = collect_channels({route.net_name: route})
        assert 2 not in segments
        assert throughs[2]["n"] == [5]

    def test_multipitch_expands_parts(self):
        route = make_route(
            [RoutedEdge(EdgeKind.TRUNK, 0, Interval(0, 6), 24.0)],
            [ChannelAttachment(0, 0, AttachSide.TOP)],
            width=3,
        )
        segments, throughs = collect_channels({route.net_name: route})
        assert len(segments[0]) == 3
        parts = sorted(s.part for s in segments[0])
        assert parts == [0, 1, 2]

    def test_multipitch_parts_get_distinct_tracks(self):
        route = make_route(
            [RoutedEdge(EdgeKind.TRUNK, 0, Interval(0, 6), 24.0)],
            [],
            width=2,
        )
        segments, throughs = collect_channels({route.net_name: route})
        result = route_channel(0, segments[0], {})
        tracks = sorted(s.track for s in result.segments)
        assert tracks == [1, 2]


class TestVerticalLengths:
    def test_hand_computed_case(self):
        tech = Technology(track_pitch_um=4.0, channel_base_um=8.0)
        route = make_route(
            [RoutedEdge(EdgeKind.TRUNK, 0, Interval(0, 6), 24.0)],
            [
                ChannelAttachment(0, 0, AttachSide.TOP),
                ChannelAttachment(0, 6, AttachSide.BOTTOM),
            ],
        )
        segments, throughs = collect_channels({route.net_name: route})
        result = route_channel(0, segments[0], {})
        lengths = _vertical_lengths({0: result}, tech)
        # One track: top attach = 1*4, bottom attach = (1-1+1)*4.
        assert lengths["n"] == pytest.approx(8.0)

    def test_through_charged_full_height(self):
        tech = Technology(track_pitch_um=4.0, channel_base_um=8.0)
        result = route_channel(0, [], {"n": [3]})
        lengths = _vertical_lengths({0: result}, tech)
        # Zero tracks -> channel height is the base height.
        assert lengths["n"] == pytest.approx(8.0)

    def test_deeper_track_costs_more(self):
        tech = Technology(track_pitch_um=4.0, channel_base_um=0.0)
        routes = {}
        for i in range(3):
            route = make_route(
                [RoutedEdge(EdgeKind.TRUNK, 0, Interval(0, 6), 24.0)],
                [ChannelAttachment(0, 0, AttachSide.TOP)],
            )
            route.net_name = f"n{i}"
            routes[route.net_name] = route
        segments, throughs = collect_channels(routes)
        result = route_channel(0, segments[0], {})
        lengths = _vertical_lengths({0: result}, tech)
        values = sorted(lengths.values())
        assert values == [
            pytest.approx(4.0),
            pytest.approx(8.0),
            pytest.approx(12.0),
        ]
