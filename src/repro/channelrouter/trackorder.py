"""Track-order optimization — a post-pass on left-edge results.

The left-edge algorithm fixes *which* segments share a track but the
top-to-bottom order of the tracks is largely free: only the vertical
constraints (net A enters from the top and net B from the bottom of the
same column ⇒ A's track above B's) restrict it.  Since every top
attachment pays ``track_position × pitch`` of vertical wire and every
bottom attachment the complement, reordering tracks moves real
wirelength.

This pass reorders whole tracks by a priority-list topological sort:
tracks with more top attachments float up, tracks with more bottom
attachments sink down, and every original vertical constraint is
re-checked afterwards.  It reads the vertical-constraint graph the
left-edge router last built for the channel, and takes each next track
from a heap of the tracks whose tracks-above are all placed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ChannelRoutingError
from .leftedge import ChannelResult, ChannelSegment, _vertical_constraints


@dataclass
class TrackOrderStats:
    """Outcome of one channel's reordering."""

    channel: int
    moved_tracks: int
    pull_improvement: float
    """Reduction of Σ (track_position × top_pins + inverse × bottom)."""


def optimize_track_order(
    result: ChannelResult,
    predecessors: Optional[Sequence[Sequence[int]]] = None,
) -> TrackOrderStats:
    """Reorder ``result``'s tracks in place to shorten vertical stubs.

    ``predecessors[j]`` lists the positions in ``result.segments`` of
    the segments that must lie above segment ``j`` (the channel's VCG,
    as left-edge hands it over); without it the VCG is built from
    ``result.segments``.  Preserves: segment→track-mates grouping, track
    count, and every vertical constraint the incoming assignment
    honours.  Returns the improvement statistics.
    """
    tracks = result.tracks
    if tracks <= 1:
        return TrackOrderStats(result.channel, 0, 0.0)

    segments = result.segments
    members: Dict[int, List[ChannelSegment]] = {}
    for segment in segments:
        if segment.track is None:
            raise ChannelRoutingError("unplaced segment in result")
        members.setdefault(segment.track, []).append(segment)

    if predecessors is None:
        graph, _, _ = _vertical_constraints(segments, range(len(segments)))
        predecessors = [graph.get(j, ()) for j in range(len(segments))]
    # Preserve exactly the constraints the incoming assignment honours
    # (left-edge may have deliberately relaxed some on a VCG cycle;
    # those stay relaxed).
    above: Dict[int, Set[int]] = {t: set() for t in members}
    honoured: List[Tuple[int, int]] = []
    for j, preds in enumerate(predecessors):
        track = segments[j].track
        for p in preds:
            pred_track = segments[p].track
            if pred_track < track:
                above[track].add(pred_track)
                honoured.append((p, j))

    # Pull: positive = wants to move toward the top (many top pins).
    pull: Dict[int, int] = {}
    for track, segs in members.items():
        tops = sum(len(s.attach_top) for s in segs)
        bottoms = sum(len(s.attach_bottom) for s in segs)
        pull[track] = tops - bottoms

    old_cost = _vertical_cost(members, tracks)

    # Priority topological order: among tracks whose "above" sets are
    # emitted, emit the strongest upward pull first.  ``waiting[t]``
    # counts t's tracks-above not yet emitted; the heap holds the ready
    # tracks keyed by ``(-pull, track)``.
    waiting = {t: len(ups) for t, ups in above.items()}
    below: Dict[int, List[int]] = {t: [] for t in members}
    for track, ups in above.items():
        for up in ups:
            below[up].append(track)
    heap = [(-pull[t], t) for t, count in waiting.items() if not count]
    heapq.heapify(heap)
    emitted: List[int] = []
    while heap:
        _, chosen = heapq.heappop(heap)
        emitted.append(chosen)
        for track in below[chosen]:
            waiting[track] -= 1
            if not waiting[track]:
                heapq.heappush(heap, (-pull[track], track))
    if len(emitted) < len(members):
        # The honoured-constraint graph is acyclic by construction (it
        # embeds in the current track order), so this is unreachable;
        # guard defensively anyway.
        emitted.extend(sorted(set(members).difference(emitted)))

    mapping = {
        old_track: new_position + 1
        for new_position, old_track in enumerate(emitted)
    }
    moved = sum(
        1 for old, new in mapping.items() if old != new
    )
    for segment in segments:
        segment.track = mapping[segment.track]

    new_members = {
        mapping[track]: segs for track, segs in members.items()
    }
    new_cost = _vertical_cost(new_members, tracks)
    if new_cost > old_cost + 1e-9:
        # Greedy made it worse — roll back.
        inverse = {new: old for old, new in mapping.items()}
        for segment in segments:
            segment.track = inverse[segment.track]
        return TrackOrderStats(result.channel, 0, 0.0)

    _check_constraints(segments, honoured)
    return TrackOrderStats(
        result.channel, moved, old_cost - new_cost
    )


def _vertical_cost(
    members: Dict[int, Sequence[ChannelSegment]], tracks: int
) -> float:
    """Σ track-distance units paid by all attachments."""
    cost = 0.0
    for track, segs in members.items():
        for segment in segs:
            cost += track * len(segment.attach_top)
            cost += (tracks - track + 1) * len(segment.attach_bottom)
    return cost


def _check_constraints(
    segments: Sequence[ChannelSegment],
    honoured: Sequence[Tuple[int, int]],
) -> None:
    """Assert every previously honoured constraint still holds."""
    for above, below in honoured:
        if segments[above].track >= segments[below].track:
            raise ChannelRoutingError(
                "track reordering violated a vertical constraint"
            )


def optimize_all_channels(
    channels: Dict[int, ChannelResult]
) -> List[TrackOrderStats]:
    """Run the post-pass on every channel; returns per-channel stats."""
    return [
        optimize_track_order(result)
        for _, result in sorted(channels.items())
    ]
