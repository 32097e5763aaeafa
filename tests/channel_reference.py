"""Reference implementations of the post-route layers, kept only to prove
the production code equivalent.

* :func:`reference_route_channel` is the left-edge router that rescans
  every unplaced segment for each new track, with the VCG keyed by
  ``ChannelSegment.key`` and rebuilt from scratch after every dogleg
  (:func:`reference_vertical_constraints`,
  :func:`reference_split_segment`).
* :func:`reference_optimize_track_order` is the track-order pass that
  rebuilds the VCG from the finished channel and picks each next track
  by rescanning the remaining ones.
* :func:`reference_collect_net` splits a net into channel segments by
  testing every attachment against every merged span.
* :func:`reference_elmore_tree_of` is the Elmore-tree builder
  ``build_result`` ran for every net: a ``list.pop(0)`` BFS over
  ``RoutingGraph.neighbours``.

Production (:func:`repro.channelrouter.route_channel`,
:func:`repro.channelrouter.optimize_track_order`, ``_collect_net`` and
``NetRoute.elmore_segments``) must reproduce these exactly;
``test_channel_equivalence.py`` checks that on random channels and on
routed designs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.channelrouter.leftedge import ChannelResult, ChannelSegment
from repro.channelrouter.trackorder import TrackOrderStats
from repro.core.result import AttachSide, NetRoute
from repro.errors import ChannelRoutingError
from repro.geometry import Interval
from repro.routegraph.graph import RoutingGraph
from repro.timing.delay_model import WireSegment


def reference_route_channel(
    channel: int,
    segments: Sequence[ChannelSegment],
    throughs: Mapping[str, List[int]],
    allow_doglegs: bool = True,
) -> ChannelResult:
    """Assign tracks in one channel (the rescanning left-edge loop)."""
    ordered = sorted(segments, key=lambda s: (s.interval.lo, s.interval.hi))
    predecessors, pin_conflicts = reference_vertical_constraints(ordered)

    unplaced: List[ChannelSegment] = list(ordered)
    placed: List[ChannelSegment] = []
    placed_keys: Set[Tuple] = set()
    track = 0
    breaks = 0
    doglegs = 0
    while unplaced:
        track += 1
        eligible = [
            s
            for s in unplaced
            if all(p in placed_keys for p in predecessors.get(s.key, ()))
        ]
        if not eligible:
            victim = unplaced[0]
            if allow_doglegs and reference_split_segment(victim, unplaced):
                doglegs += 1
                unplaced.sort(key=lambda s: (s.interval.lo, s.interval.hi))
                predecessors, _ = reference_vertical_constraints(
                    placed + unplaced
                )
            else:
                predecessors[victim.key] = set()
                breaks += 1
            track -= 1
            continue
        last_end = None
        chosen: List[ChannelSegment] = []
        for segment in eligible:
            if last_end is None or segment.interval.lo > last_end:
                chosen.append(segment)
                last_end = segment.interval.hi
        for segment in chosen:
            segment.track = track
            placed_keys.add(segment.key)
            placed.append(segment)
            unplaced.remove(segment)

    through_counts = {
        net: len(columns) for net, columns in throughs.items() if columns
    }
    return ChannelResult(
        channel=channel,
        tracks=track,
        segments=list(placed),
        through_columns=through_counts,
        constraint_breaks=breaks,
        pin_conflicts=pin_conflicts,
        dogleg_splits=doglegs,
    )


def reference_split_segment(
    victim: ChannelSegment, unplaced: List[ChannelSegment]
) -> bool:
    """Dogleg ``victim`` at its middle internal attachment column, in
    place; ``False`` when it has no internal column."""
    internal = sorted(
        column
        for column in set(victim.attach_top) | set(victim.attach_bottom)
        if victim.interval.lo < column < victim.interval.hi
    )
    if not internal:
        return False
    split = internal[len(internal) // 2]
    left = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(victim.interval.lo, split),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c <= split],
        attach_bottom=[c for c in victim.attach_bottom if c <= split],
    )
    right = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(split, victim.interval.hi),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c > split],
        attach_bottom=[c for c in victim.attach_bottom if c > split],
    )
    index = unplaced.index(victim)
    unplaced[index : index + 1] = [left, right]
    return True


def reference_vertical_constraints(
    segments: Sequence[ChannelSegment],
) -> Tuple[Dict[Tuple, Set[Tuple]], int]:
    """The VCG keyed by segment key, plus the pin-conflict count."""
    top_at: Dict[int, List[ChannelSegment]] = {}
    bottom_at: Dict[int, List[ChannelSegment]] = {}
    for segment in segments:
        for column in segment.attach_top:
            top_at.setdefault(column, []).append(segment)
        for column in segment.attach_bottom:
            bottom_at.setdefault(column, []).append(segment)

    predecessors: Dict[Tuple, Set[Tuple]] = {}
    conflicts = 0
    for columns_map in (top_at, bottom_at):
        for column, members in columns_map.items():
            nets = {m.net_name for m in members}
            if len(nets) > 1:
                conflicts += 1
    for column, tops in top_at.items():
        for bottom_segment in bottom_at.get(column, ()):
            for top_segment in tops:
                if top_segment.net_name == bottom_segment.net_name:
                    continue
                predecessors.setdefault(
                    bottom_segment.key, set()
                ).add(top_segment.key)
    return predecessors, conflicts


def reference_optimize_track_order(result: ChannelResult) -> TrackOrderStats:
    """Reorder ``result``'s tracks in place (the rescanning pass)."""
    tracks = result.tracks
    if tracks <= 1:
        return TrackOrderStats(result.channel, 0, 0.0)

    members: Dict[int, List[ChannelSegment]] = {}
    for segment in result.segments:
        if segment.track is None:
            raise ChannelRoutingError("unplaced segment in result")
        members.setdefault(segment.track, []).append(segment)

    predecessors, _ = reference_vertical_constraints(result.segments)
    track_of = {
        segment.key: segment.track for segment in result.segments
    }
    above: Dict[int, Set[int]] = {t: set() for t in members}
    honoured: List[Tuple[Tuple, Tuple]] = []
    for segment in result.segments:
        for pred_key in predecessors.get(segment.key, ()):
            pred_track = track_of[pred_key]
            if pred_track < segment.track:
                above[segment.track].add(pred_track)
                honoured.append((pred_key, segment.key))

    pull: Dict[int, int] = {}
    for track, segs in members.items():
        tops = sum(len(s.attach_top) for s in segs)
        bottoms = sum(len(s.attach_bottom) for s in segs)
        pull[track] = tops - bottoms

    old_cost = _reference_vertical_cost(members, tracks)

    remaining = set(members)
    emitted: List[int] = []
    emitted_set: Set[int] = set()
    while remaining:
        ready = [
            t for t in remaining if above[t] <= emitted_set
        ]
        if not ready:
            emitted.extend(sorted(remaining))
            break
        ready.sort(key=lambda t: (-pull[t], t))
        chosen = ready[0]
        emitted.append(chosen)
        emitted_set.add(chosen)
        remaining.discard(chosen)

    mapping = {
        old_track: new_position + 1
        for new_position, old_track in enumerate(emitted)
    }
    moved = sum(
        1 for old, new in mapping.items() if old != new
    )
    for segment in result.segments:
        segment.track = mapping[segment.track]

    new_members = {
        mapping[track]: segs for track, segs in members.items()
    }
    new_cost = _reference_vertical_cost(new_members, tracks)
    if new_cost > old_cost + 1e-9:
        inverse = {new: old for old, new in mapping.items()}
        for segment in result.segments:
            segment.track = inverse[segment.track]
        return TrackOrderStats(result.channel, 0, 0.0)

    track_of = {segment.key: segment.track for segment in result.segments}
    for pred_key, succ_key in honoured:
        if track_of[pred_key] >= track_of[succ_key]:
            raise ChannelRoutingError(
                "track reordering violated a vertical constraint"
            )
    return TrackOrderStats(
        result.channel, moved, old_cost - new_cost
    )


def _reference_vertical_cost(
    members: Dict[int, Sequence[ChannelSegment]], tracks: int
) -> float:
    cost = 0.0
    for track, segs in members.items():
        for segment in segs:
            cost += track * len(segment.attach_top)
            cost += (tracks - track + 1) * len(segment.attach_bottom)
    return cost


def reference_collect_net(
    route: NetRoute,
    segments_out: Dict[int, List[ChannelSegment]],
    throughs_out: Dict[int, Dict[str, List[int]]],
) -> None:
    """Split one net into per-channel spans / throughs with attachments,
    testing every attachment against every merged span."""
    spans = route.trunk_intervals()
    attach_by_channel: Dict[int, List] = {}
    for attachment in route.attachments:
        attach_by_channel.setdefault(attachment.channel, []).append(
            attachment
        )

    touched = set(spans) | set(attach_by_channel)
    for channel in touched:
        channel_spans = spans.get(channel, [])
        attachments = attach_by_channel.get(channel, [])
        leftover = list(attachments)
        for interval in channel_spans:
            top = [
                a.column
                for a in attachments
                if a.side is AttachSide.TOP and interval.contains(a.column)
            ]
            bottom = [
                a.column
                for a in attachments
                if a.side is AttachSide.BOTTOM
                and interval.contains(a.column)
            ]
            leftover = [
                a for a in leftover if not interval.contains(a.column)
            ]
            for part in range(route.width_pitches):
                segments_out.setdefault(channel, []).append(
                    ChannelSegment(
                        net_name=route.net_name,
                        interval=interval,
                        part=part,
                        parts=route.width_pitches,
                        attach_top=list(top),
                        attach_bottom=list(bottom),
                    )
                )
        through_cols = sorted({a.column for a in leftover})
        if through_cols:
            throughs_out.setdefault(channel, {}).setdefault(
                route.net_name, []
            ).extend(through_cols)


def reference_elmore_tree_of(graph: RoutingGraph):
    """Driver-rooted wire segments of a converged net and the sink pin
    names, by a ``list.pop(0)`` BFS over ``graph.neighbours``."""
    width = graph.net.width_pitches
    segments: List[WireSegment] = []
    sink_names: List[str] = []
    segment_of_vertex = {graph.driver_vertex: -1}
    queue = [graph.driver_vertex]
    while queue:
        vertex = queue.pop(0)
        parent_segment = segment_of_vertex[vertex]
        for edge, other in graph.neighbours(vertex):
            if other in segment_of_vertex:
                continue
            other_vertex = graph.vertices[other]
            sink_index = -1
            if other_vertex.is_terminal and other != graph.driver_vertex:
                sink_index = len(sink_names)
                sink_names.append(other_vertex.pin.full_name)
            segments.append(
                WireSegment(
                    parent=parent_segment,
                    length_um=edge.length_um,
                    width_pitches=width,
                    sink_index=sink_index,
                )
            )
            segment_of_vertex[other] = len(segments) - 1
            queue.append(other)
    return segments, sink_names
