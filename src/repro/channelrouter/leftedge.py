"""VCG-aware left-edge channel routing.

Given the global router's per-channel horizontal spans and attachment
points, this module assigns every span to a track using the classic
left-edge algorithm extended with vertical constraints:

* at any column where net ``A`` enters from the channel's top and net
  ``B`` from its bottom, ``A``'s track must lie above ``B``'s;
* tracks are filled top to bottom, each track greedily packed left to
  right with spans whose vertical-constraint ancestors are already placed
  — one sorted sweep per channel over a ready list, bisected past each
  track's last end;
* a vertical-constraint *cycle* is broken by a dogleg of the first stuck
  span at an internal pin column, or, when it has none, by relaxing that
  span's constraints — doglegs and breaks are counted and reported;
* a ``w``-pitch span occupies ``w`` tracks: it is expanded into ``w``
  chained unit spans that land on distinct tracks.

``docs/ALGORITHM.md`` (Channel routing) gives the sweep, its cost and
its exactness contract.

From the track assignment the router derives (a) each channel's final
track count — hence the chip height and area of Table 2 — and (b) each
net's in-channel vertical wire length, which is added to the global
estimate to produce the paper's "after channel routing" delays.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.result import (
    AttachSide,
    ChannelAttachment,
    GlobalRoutingResult,
    NetRoute,
)
from ..errors import ChannelRoutingError
from ..geometry import Interval
from ..layout.floorplan import Floorplan
from ..layout.placement import Placement
from ..tech import Technology


@dataclass
class ChannelSegment:
    """One horizontal span to place on a track."""

    net_name: str
    interval: Interval
    part: int = 0           # multipitch part index (0 = topmost)
    parts: int = 1          # total parts of the span's net width
    attach_top: List[int] = field(default_factory=list)
    attach_bottom: List[int] = field(default_factory=list)
    track: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (self.net_name, self.interval.lo, self.interval.hi, self.part)


@dataclass
class ChannelResult:
    """Track assignment of one channel."""

    channel: int
    tracks: int
    segments: List[ChannelSegment]
    through_columns: Dict[str, int]
    """net -> number of pure vertical feedthrough crossings."""
    constraint_breaks: int = 0
    pin_conflicts: int = 0
    dogleg_splits: int = 0


@dataclass
class ChannelRoutingResult:
    """Track assignment of the whole chip plus derived lengths."""

    channels: Dict[int, ChannelResult]
    net_vertical_um: Dict[str, float]
    constraint_breaks: int
    pin_conflicts: int

    def tracks_per_channel(self) -> Dict[int, int]:
        return {c: r.tracks for c, r in self.channels.items()}

    def floorplan(
        self, placement: Placement, technology: Technology
    ) -> Floorplan:
        return Floorplan.from_placement(
            placement, self.tracks_per_channel(), technology
        )


# ----------------------------------------------------------------------
# Single channel
# ----------------------------------------------------------------------
#: ``predecessors[i]``: the segments that must lie above segment ``i``
#: (the vertical-constraint graph, by segment index).
Predecessors = Dict[int, Set[int]]

_PAST = float("inf")
_TOP = AttachSide.TOP


def route_channel(
    channel: int,
    segments: Sequence[ChannelSegment],
    throughs: Mapping[str, List[int]],
    allow_doglegs: bool = True,
) -> ChannelResult:
    """Assign tracks in one channel.

    Args:
        channel: channel index (for reporting).
        segments: unit-width spans (already expanded for multipitch),
            at most one per ``ChannelSegment.key``; each gets its
            ``track`` set in place.
        throughs: per net, columns crossed purely vertically.
        allow_doglegs: break vertical-constraint cycles by splitting the
            stuck span at an internal pin column (the classic dogleg)
            before resorting to constraint relaxation.  The dogleg's own
            short vertical jog is not charged to the net length.
    """
    return _route_channel(channel, segments, throughs, allow_doglegs)[0]


def _route_channel(
    channel: int,
    segments: Sequence[ChannelSegment],
    throughs: Mapping[str, List[int]],
    allow_doglegs: bool = True,
) -> Tuple[ChannelResult, List[List[int]]]:
    """:func:`route_channel`, plus the final vertical-constraint graph by
    position in ``ChannelResult.segments`` (what the track-order pass
    reads).

    A sorted sweep.  Segment ``i`` is ordered by ``key[i] = (lo, hi,
    rank, i)``: ``rank`` keeps the input order among equal spans, and a
    dogleg's halves rank ahead of every older segment with their span.
    ``pending[i]`` counts the unplaced segments that must lie above
    ``i``; the segments with none form ``ready``, sorted by key.  Each
    track takes the first ready segment, then repeatedly the first one
    starting right of the last end, found by bisection.  Segments made
    ready by a track's placements join ``ready`` after that track.  The
    VCG is built once, and again after each dogleg.
    """
    segs: List[ChannelSegment] = sorted(segments, key=_span)
    keys = [(s.interval.lo, s.interval.hi, i, i) for i, s in enumerate(segs)]
    predecessors, successors, pin_conflicts = _vertical_constraints(
        segs, range(len(segs))
    )
    pending = [0] * len(segs)
    for i, above in predecessors.items():
        pending[i] = len(above)
    ready = [key for key in keys if not pending[key[3]]]
    unplaced = set(range(len(segs)))
    placed = [False] * len(segs)
    order: List[int] = []
    track = breaks = doglegs = 0
    while unplaced:
        if not ready:
            # Vertical-constraint cycle.  Preferred fix: dogleg — split
            # the first stuck span at an internal pin column, which
            # breaks the cycle without ignoring any constraint.  When no
            # split point exists, relax that span's constraints: it
            # becomes ready, and the first, so the next track takes it.
            victim = min(unplaced, key=keys.__getitem__)
            halves = _split_segment(segs[victim]) if allow_doglegs else None
            if halves is None:
                pending[victim] = 0
                ready.append(keys[victim])
                breaks += 1
                continue
            doglegs += 1
            unplaced.discard(victim)
            for half in halves:
                index = len(segs)
                segs.append(half)
                keys.append(
                    (half.interval.lo, half.interval.hi, -doglegs, index)
                )
                placed.append(False)
                pending.append(0)
                unplaced.add(index)
            predecessors, successors, _ = _vertical_constraints(
                segs, [*order, *unplaced]
            )
            for i in unplaced:
                pending[i] = sum(
                    1 for p in predecessors.get(i, ()) if not placed[p]
                )
            ready = sorted(keys[i] for i in unplaced if not pending[i])
            continue
        track += 1
        taken = []
        position = 0
        while position < len(ready):
            taken.append(position)
            position = bisect_right(
                ready, (ready[position][1], _PAST), position + 1
            )
        chosen = [ready[p][3] for p in taken]
        for p in reversed(taken):
            del ready[p]
        freed = []
        for i in chosen:
            segs[i].track = track
            placed[i] = True
            unplaced.discard(i)
            order.append(i)
            for below in successors.get(i, ()):
                pending[below] -= 1
                if not pending[below] and not placed[below]:
                    freed.append(below)
        for i in freed:
            insort(ready, keys[i])

    position_of = {i: position for position, i in enumerate(order)}
    constraints = [
        [position_of[p] for p in predecessors.get(i, ())] for i in order
    ]
    through_counts = {
        net: len(columns) for net, columns in throughs.items() if columns
    }
    result = ChannelResult(
        channel=channel,
        tracks=track,
        segments=[segs[i] for i in order],
        through_columns=through_counts,
        constraint_breaks=breaks,
        pin_conflicts=pin_conflicts,
        dogleg_splits=doglegs,
    )
    return result, constraints


def _span(segment: ChannelSegment) -> Tuple[int, int]:
    return segment.interval.lo, segment.interval.hi


def _split_segment(
    victim: ChannelSegment,
) -> Optional[Tuple[ChannelSegment, ChannelSegment]]:
    """The two halves of a dogleg of ``victim`` at its middle internal
    attachment column, or ``None`` when it has no internal pin to split
    at.

    The halves share the split column (the dogleg's vertical jog
    connects them there) and divide the attachments by side of the
    split.
    """
    lo, hi = victim.interval.lo, victim.interval.hi
    internal = sorted(
        column
        for column in set(victim.attach_top) | set(victim.attach_bottom)
        if lo < column < hi
    )
    if not internal:
        return None
    split = internal[len(internal) // 2]
    left = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(lo, split),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c <= split],
        attach_bottom=[c for c in victim.attach_bottom if c <= split],
    )
    right = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(split, hi),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c > split],
        attach_bottom=[c for c in victim.attach_bottom if c > split],
    )
    return left, right


def _vertical_constraints(
    segments: Sequence[ChannelSegment],
    indices: Iterable[int],
) -> Tuple[Predecessors, Dict[int, List[int]], int]:
    """The VCG over ``segments[i]`` for ``i`` in ``indices``.

    At a column where segment ``t`` attaches from the top and segment
    ``b`` of another net from the bottom, ``t`` must lie above ``b``.
    Returns ``(predecessors, successors, pin_conflicts)``:
    ``successors[t]`` lists each ``b`` with ``t`` in
    ``predecessors[b]`` once, and ``pin_conflicts`` counts columns where
    two different nets enter from the same side (a full router would
    need a jog there).
    """
    top_at: Dict[int, List[int]] = {}
    bottom_at: Dict[int, List[int]] = {}
    for i in indices:
        segment = segments[i]
        for column in segment.attach_top:
            top_at.setdefault(column, []).append(i)
        for column in segment.attach_bottom:
            bottom_at.setdefault(column, []).append(i)

    conflicts = 0
    for columns_map in (top_at, bottom_at):
        for members in columns_map.values():
            net = segments[members[0]].net_name
            if any(segments[m].net_name != net for m in members):
                conflicts += 1
    predecessors: Predecessors = {}
    for column, tops in top_at.items():
        bottoms = bottom_at.get(column)
        if bottoms is None:
            continue
        for b in bottoms:
            net = segments[b].net_name
            for t in tops:
                if segments[t].net_name != net:
                    predecessors.setdefault(b, set()).add(t)
    successors: Dict[int, List[int]] = {}
    for b, above in predecessors.items():
        for t in above:
            successors.setdefault(t, []).append(b)
    return predecessors, successors, conflicts


# ----------------------------------------------------------------------
# Whole chip
# ----------------------------------------------------------------------
def route_channels(
    result: GlobalRoutingResult,
    placement: Placement,
    technology: Technology = Technology(),
    optimize_tracks: bool = True,
    *,
    metrics=None,
    tracer=None,
) -> ChannelRoutingResult:
    """Channel-route every channel of a global routing result.

    ``optimize_tracks`` runs the track-order post-pass
    (:mod:`repro.channelrouter.trackorder`) on each channel before the
    vertical stub lengths are measured.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) and
    ``tracer`` (a :class:`~repro.obs.events.Tracer`) are optional
    observability hooks: per-channel ``channel_routed`` events and
    chip-wide track/break counters.
    """
    from .trackorder import optimize_track_order

    per_channel_segments: Dict[int, List[ChannelSegment]] = {}
    per_channel_throughs: Dict[int, Dict[str, List[int]]] = {}

    for net_name in sorted(result.routes):
        route = result.routes[net_name]
        _collect_net(
            route, per_channel_segments, per_channel_throughs
        )

    channels: Dict[int, ChannelResult] = {}
    for channel in range(placement.n_channels):
        segments = per_channel_segments.get(channel, [])
        throughs = per_channel_throughs.get(channel, {})
        routed, constraints = _route_channel(channel, segments, throughs)
        if optimize_tracks:
            optimize_track_order(routed, constraints)
        channels[channel] = routed

    if metrics is not None:
        metrics.counter("channel.tracks_total").inc(
            sum(r.tracks for r in channels.values())
        )
        metrics.counter("channel.constraint_breaks").inc(
            sum(r.constraint_breaks for r in channels.values())
        )
        metrics.counter("channel.pin_conflicts").inc(
            sum(r.pin_conflicts for r in channels.values())
        )
        metrics.counter("channel.dogleg_splits").inc(
            sum(r.dogleg_splits for r in channels.values())
        )
    if tracer is not None and tracer.enabled:
        for channel in sorted(channels):
            channel_result = channels[channel]
            tracer.emit(
                "channel_routed",
                channel=channel,
                tracks=channel_result.tracks,
                constraint_breaks=channel_result.constraint_breaks,
                dogleg_splits=channel_result.dogleg_splits,
            )

    net_vertical = _vertical_lengths(channels, technology)
    return ChannelRoutingResult(
        channels=channels,
        net_vertical_um=net_vertical,
        constraint_breaks=sum(
            r.constraint_breaks for r in channels.values()
        ),
        pin_conflicts=sum(r.pin_conflicts for r in channels.values()),
    )


def _collect_net(
    route: NetRoute,
    segments_out: Dict[int, List[ChannelSegment]],
    throughs_out: Dict[int, Dict[str, List[int]]],
) -> None:
    """Split one net into per-channel spans / throughs with attachments.

    One pass over the net's attachments per channel assigns each to the
    merged span that contains it, keeping their order within each
    span's top and bottom lists.  A channel's merged spans are disjoint
    and sorted, so that span is the last one starting at or left of the
    column (bisection; a lone span is tested directly).  Attachments
    outside every span are pure vertical crossings.
    """
    attach_by_channel: Dict[int, List[ChannelAttachment]] = {}
    for attachment in route.attachments:
        attach_by_channel.setdefault(attachment.channel, []).append(
            attachment
        )
    name = route.net_name
    width = route.width_pitches
    for channel, spans in route.trunk_intervals().items():
        attachments = attach_by_channel.pop(channel, ())
        through = set()
        if len(spans) == 1:
            lo, hi = spans[0].lo, spans[0].hi
            top: List[int] = []
            bottom: List[int] = []
            for _, column, side in attachments:
                if lo <= column <= hi:
                    (top if side is _TOP else bottom).append(column)
                else:
                    through.add(column)
            assigned = ((spans[0], top, bottom),)
        else:
            starts = [span.lo for span in spans]
            tops: List[List[int]] = [[] for _ in spans]
            bottoms: List[List[int]] = [[] for _ in spans]
            for _, column, side in attachments:
                k = bisect_right(starts, column) - 1
                if k >= 0 and column <= spans[k].hi:
                    (tops if side is _TOP else bottoms)[k].append(column)
                else:
                    through.add(column)
            assigned = zip(spans, tops, bottoms)
        out = segments_out.setdefault(channel, [])
        for interval, top, bottom in assigned:
            for part in range(width):
                out.append(
                    ChannelSegment(
                        name, interval, part, width, list(top), list(bottom)
                    )
                )
        if through:
            throughs_out.setdefault(channel, {})[name] = sorted(through)
    # Channels the net enters but runs no span in: pure crossings.
    for channel, attachments in attach_by_channel.items():
        throughs_out.setdefault(channel, {})[name] = sorted(
            {attachment.column for attachment in attachments}
        )


def _vertical_lengths(
    channels: Dict[int, ChannelResult], technology: Technology
) -> Dict[str, float]:
    """Per-net vertical wire added inside the channels."""
    lengths: Dict[str, float] = {}
    pitch = technology.track_pitch_um
    for channel_result in channels.values():
        tracks = channel_result.tracks
        height = technology.channel_height_um(tracks)
        # Group multipitch parts: attachments connect to the outermost
        # part on their side.
        groups: Dict[Tuple[str, int, int], List[ChannelSegment]] = {}
        for segment in channel_result.segments:
            group_key = (
                segment.net_name,
                segment.interval.lo,
                segment.interval.hi,
            )
            groups.setdefault(group_key, []).append(segment)
        for (net_name, _, _), members in groups.items():
            member_tracks = sorted(
                s.track for s in members if s.track is not None
            )
            if not member_tracks:
                raise ChannelRoutingError(
                    f"unplaced segment for net {net_name}"
                )
            top_track = member_tracks[0]
            bottom_track = member_tracks[-1]
            total = 0.0
            for column in members[0].attach_top:
                total += top_track * pitch
            for column in members[0].attach_bottom:
                total += (tracks - bottom_track + 1) * pitch
            lengths[net_name] = lengths.get(net_name, 0.0) + total
        for net_name, count in channel_result.through_columns.items():
            lengths[net_name] = (
                lengths.get(net_name, 0.0) + count * height
            )
    return lengths
