"""The post-route layers reproduce their references exactly.

``tests/channel_reference.py`` keeps the left-edge router, the
track-order pass, the net collector and the Elmore-tree builder as they
were before each became one linear pass.  Here:

* hypothesis draws random channels — zero-span and endpoint-sharing
  spans, several nets attached at one column, vertical-constraint cycles
  that force doglegs and relaxations, multipitch parts — and
  :func:`route_channel` must give every segment the reference's track,
  in the reference's result order, with the same breaks, doglegs and
  pin conflicts, with doglegs allowed and not; the track-order pass,
  fed the VCG left-edge hands over or building its own, must then leave
  the same tracks and statistics;
* the chip-wide collection (``collect_channels``) must split every net
  of routed designs into the reference's channel segments, in the same
  order per channel, and its through columns;
* on every net of C1P1, C3P1 and CGP1 under both engines, the Elmore
  segments and sink names a route builds on read must equal the
  reference builder's, and a result that is never read builds none.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import (
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.channelrouter.leftedge import (
    ChannelSegment,
    _route_channel,
    collect_channels,
    route_channel,
)
from repro.channelrouter.trackorder import optimize_track_order
from repro.core import result as result_module
from repro.core.config import RouterConfig
from repro.engines import make_engine
from repro.geometry import Interval
from tests.channel_reference import (
    reference_collect_net,
    reference_elmore_tree_of,
    reference_optimize_track_order,
    reference_route_channel,
)

_COLUMNS = 14


def rows(segments):
    """Everything a channel result says about its segments, in order."""
    return [
        (
            s.net_name, s.interval.lo, s.interval.hi, s.part, s.parts,
            list(s.attach_top), list(s.attach_bottom), s.track,
        )
        for s in segments
    ]


def copies(segments):
    return [
        ChannelSegment(
            s.net_name, s.interval, s.part, s.parts,
            list(s.attach_top), list(s.attach_bottom),
        )
        for s in segments
    ]


def channel_segments(nets):
    """A channel the way ``collect_channels`` builds one: per net, spans
    that meet at most at an endpoint (zero-span ones included), each
    expanded into the net's multipitch parts with copied attachments.
    ``nets`` lists ``(width, [(lo, hi, tops, bottoms), ...])``."""
    segments = []
    for index, (width, spans) in enumerate(nets):
        for lo, hi, tops, bottoms in spans:
            for part in range(width):
                segments.append(
                    ChannelSegment(
                        f"n{index}", Interval(lo, hi), part, width,
                        list(tops), list(bottoms),
                    )
                )
    return segments


@st.composite
def net_spans(draw):
    """One net: a width and spans cut from sorted distinct columns."""
    width = draw(st.sampled_from((1, 1, 1, 2, 3)))
    cuts = sorted(
        draw(st.sets(st.integers(0, _COLUMNS), min_size=1, max_size=5))
    )
    spans = []
    # Consecutive cut points become a span (sharing endpoints with the
    # next one when both are kept); a lone cut point a zero-span one.
    index = 0
    while index < len(cuts):
        if index + 1 < len(cuts) and draw(st.booleans()):
            lo, hi = cuts[index], cuts[index + 1]
            index += 1 if draw(st.booleans()) else 2
        else:
            lo = hi = cuts[index]
            index += 1
        columns = list(range(lo, hi + 1))
        tops = draw(st.lists(st.sampled_from(columns), max_size=3))
        bottoms = draw(st.lists(st.sampled_from(columns), max_size=3))
        spans.append((lo, hi, tops, bottoms))
    return width, spans


def assert_same_channel(segments, allow_doglegs):
    """Production and reference agree on ``segments``, left-edge and
    track order both."""
    ours, theirs = copies(segments), copies(segments)
    throughs = {"n0": [3, 5]}
    result, constraints = _route_channel(7, ours, throughs, allow_doglegs)
    reference = reference_route_channel(7, theirs, throughs, allow_doglegs)
    assert rows(result.segments) == rows(reference.segments)
    for field in (
        "channel", "tracks", "through_columns", "constraint_breaks",
        "pin_conflicts", "dogleg_splits",
    ):
        assert getattr(result, field) == getattr(reference, field), field

    stats = optimize_track_order(result, constraints)
    expected = reference_optimize_track_order(reference)
    assert rows(result.segments) == rows(reference.segments)
    assert stats == expected
    # Without the handed-over VCG, the pass builds the same one.
    again = route_channel(7, copies(segments), throughs, allow_doglegs)
    assert optimize_track_order(again) == expected
    assert rows(again.segments) == rows(reference.segments)
    return reference


@settings(max_examples=400, deadline=None)
@given(
    nets=st.lists(net_spans(), min_size=1, max_size=7),
    allow_doglegs=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_route_channel_matches_reference(nets, allow_doglegs, seed):
    segments = channel_segments(nets)
    # route_channel sorts stably, so the input order breaks span ties.
    random.Random(seed).shuffle(segments)
    assert_same_channel(segments, allow_doglegs)


def random_channel(rng):
    nets = []
    for _ in range(rng.randint(2, 9)):
        cuts = sorted(rng.sample(range(_COLUMNS + 1), rng.randint(1, 5)))
        spans = []
        for lo, hi in zip(cuts, cuts[1:] + cuts[-1:]):
            columns = list(range(lo, hi + 1))
            spans.append((
                lo, hi,
                rng.choices(columns, k=rng.randint(0, 3)),
                rng.choices(columns, k=rng.randint(0, 3)),
            ))
        nets.append((rng.choice((1, 1, 2, 3)), rng.sample(spans, len(spans))))
    segments = channel_segments(nets)
    rng.shuffle(segments)
    return segments


def test_seeded_channels_cover_cycles():
    """A fixed sweep that must exercise doglegs, relaxations and pin
    conflicts under both settings, so the equivalence above is not
    vacuous about the cycle paths."""
    rng = random.Random(23)
    seen = {"doglegs": 0, "breaks": 0, "conflicts": 0, "multi_track": 0}
    for _ in range(300):
        segments = random_channel(rng)
        for allow in (True, False):
            reference = assert_same_channel(segments, allow)
            seen["doglegs"] += reference.dogleg_splits
            seen["breaks"] += reference.constraint_breaks
            seen["conflicts"] += reference.pin_conflicts
            seen["multi_track"] += reference.tracks > 1
    assert all(count > 10 for count in seen.values()), seen


@pytest.fixture(scope="module")
def routed_designs():
    """``(case, engine, result)`` for C1P1, C3P1 and CGP1 under both
    engines; nothing reads a route's Elmore tree before the tests do."""
    specs = {s.name: s for s in standard_suite() + congestion_suite()}
    runs = []
    for name in ("C1P1", "C3P1", "CGP1"):
        for engine in ("edge-deletion", "negotiated"):
            dataset = make_dataset(specs[name])
            router = make_engine(
                dataset.circuit, dataset.placement, dataset.constraints,
                RouterConfig(routing_engine=engine),
            )
            runs.append((f"{name}.{engine}", router, router.route()))
    return runs


def test_collect_net_matches_reference(routed_designs):
    small = make_dataset(small_suite()[0])
    router = make_engine(
        small.circuit, small.placement, small.constraints, RouterConfig()
    )
    runs = routed_designs + [("S1P1", router, router.route())]
    for case, _, result in runs:
        ours_segments, ours_throughs = collect_channels(result.routes)
        ref_segments, ref_throughs = {}, {}
        for name in sorted(result.routes):
            route = result.routes[name]
            reference_collect_net(route, ref_segments, ref_throughs)
        assert set(ours_segments) == set(ref_segments), case
        for channel, segments in ref_segments.items():
            assert rows(ours_segments[channel]) == rows(segments), case
        assert ours_throughs == ref_throughs, case


def test_elmore_trees_built_on_read_match_reference(
    routed_designs, monkeypatch
):
    calls = []
    build = result_module.elmore_tree

    def counted(tree, width):
        calls.append(1)
        return build(tree, width)

    monkeypatch.setattr(result_module, "elmore_tree", counted)
    for case, engine, result in routed_designs:
        states = engine.router.states
        # Routing built no tree: nothing has read one yet.
        assert all(route._elmore is None for route in result.routes.values())
        for name, route in result.routes.items():
            segments, sinks = reference_elmore_tree_of(states[name].graph)
            assert route.elmore_segments == segments, (case, name)
            assert route.sink_pin_names == sinks, (case, name)
    # One build per route, kept for the second property read.
    assert len(calls) == sum(
        len(result.routes) for _, _, result in routed_designs
    )

