"""The sorted free-slot index reproduces the reference slot search.

``tests/feedthrough_reference.py`` keeps the row state the planner used
to search: a numpy mirror of the single-pitch free set, masked and
reduced over the whole row for every single-pitch search.  Production
:class:`~repro.layout.feedthrough.RowSlots` keeps that set as one sorted
list and bisects it.

* On random rows driven through random sequences of ``occupy``,
  ``release``, ``flag_group``, ``release_all``, ``add_column`` and
  ``find_group`` (widths 1-3, flagged groups, both ``strict_flags``
  regimes), both return the same starts, raise on the same calls and
  report the same ``free_count``.
* On every small- and standard-suite design and on CGP1, both passes of
  the Section 4.3 assignment grant the same slots and fail the same
  requests, and insertion adds the same feed cells at the same columns.
* Insertion moves columns, never rows, so no net's crossing rows change;
  the planners of both passes and every reroute share the slot
  requests derived before it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.circuits import (
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.core import GlobalRouter, RouterConfig
from repro.errors import FeedthroughError
from repro.layout import feedthrough
from repro.layout.feedthrough import FeedthroughPlanner, RowSlots
from repro.netlist import Net
from tests.feedthrough_reference import ReferenceRowSlots

NETS = [Net(f"n{i}") for i in range(4)]


def _apply(slots, op, args):
    """Run one mutation or search; a raised FeedthroughError is an
    outcome like any other."""
    try:
        return getattr(slots, op)(*args)
    except FeedthroughError:
        return "raised"


def _state(slots):
    return (
        slots.columns,
        slots.flag,
        slots.occupant,
        [(g.start, g.width) for g in slots.flagged_groups],
        slots.free_count(),
    )


@st.composite
def operation(draw):
    op = draw(
        st.sampled_from(
            [
                "occupy", "occupy", "occupy", "release", "flag_group",
                "release_all", "add_column", "find_group",
            ]
        )
    )
    column = draw(st.integers(-1, 42))
    width = draw(st.integers(1, 3))
    if op == "occupy":
        return op, (column, width, draw(st.sampled_from(NETS)))
    if op == "release":
        return op, (draw(st.sampled_from(NETS)).name,)
    if op == "flag_group":
        return op, (column, width)
    if op == "release_all":
        return op, ()
    if op == "add_column":
        return op, (column,)
    # Half-integer targets exercise the tie between two neighbours.
    target = draw(st.integers(-10, 90)) / 2
    return op, (target, width, draw(st.booleans()))


@given(
    columns=st.lists(st.integers(0, 40), max_size=30),
    ops=st.lists(operation(), max_size=40),
    probes=st.lists(st.integers(-10, 90), min_size=1, max_size=4),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_row_slots_match_the_reference(columns, ops, probes):
    production = RowSlots(0, columns)
    reference = ReferenceRowSlots(0, columns)
    for op, args in ops:
        assert _apply(production, op, args) == _apply(reference, op, args)
        assert _state(production) == _state(reference)
        for target in probes:
            for width in (1, 2, 3):
                for strict in (False, True):
                    assert production.find_group(
                        target, width, strict
                    ) == reference.find_group(target, width, strict)


def test_single_pitch_tie_goes_to_the_smaller_column():
    slots = RowSlots(0, [4, 5, 9])
    assert slots.find_group(4.5, 1, strict_flags=False) == 4
    assert slots.find_group(7, 1, strict_flags=False) == 5
    assert slots.find_group(-3, 1, strict_flags=False) == 4
    assert slots.find_group(30, 1, strict_flags=False) == 9


_DESIGNS = small_suite() + standard_suite() + [
    spec for spec in congestion_suite() if spec.name == "CGP1"
]


def _assign(spec, row_slots, monkeypatch):
    """Run one design's two-pass assignment with ``row_slots`` as the
    planner's row state; returns every pass's grants and failures, the
    feed cells in placement order and the final flag groups."""
    passes = []
    assign_all = FeedthroughPlanner.assign_all

    def recorded(planner, ordered_nets):
        result = assign_all(planner, ordered_nets)
        passes.append(
            (
                planner.strict_flags,
                {
                    name: {r: (s.x, s.width) for r, s in by_row.items()}
                    for name, by_row in result.slots.items()
                },
                [(f.net.name, f.row, f.width) for f in result.failures],
            )
        )
        return result

    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router._build_timing()
    with monkeypatch.context() as patch:
        patch.setattr(feedthrough, "RowSlots", row_slots)
        patch.setattr(FeedthroughPlanner, "assign_all", recorded)
        router._assign_pins_and_feedthroughs()
    placement = dataset.placement
    feeds = [placement.feed_columns(r) for r in range(placement.n_rows)]
    flags = [
        [(g.start, g.width) for g in row.flagged_groups]
        for row in router.planner.rows
    ]
    return passes, feeds, flags


@pytest.mark.parametrize("spec", _DESIGNS, ids=lambda spec: spec.name)
def test_both_passes_match_the_reference(spec, monkeypatch):
    production = _assign(spec, RowSlots, monkeypatch)
    reference = _assign(spec, ReferenceRowSlots, monkeypatch)
    assert production == reference
    assert [strict for strict, _, _ in production[0]] == [False, True]


@pytest.mark.parametrize("spec", _DESIGNS, ids=lambda spec: spec.name)
def test_insertion_moves_no_crossing_row(spec):
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router._build_timing()
    placement = dataset.placement
    nets = dataset.circuit.routable_nets
    before = {net.name: placement.net_feedthrough_rows(net) for net in nets}
    router._assign_pins_and_feedthroughs()
    assert router.insertion_report.insertion_ran
    after = {net.name: placement.net_feedthrough_rows(net) for net in nets}
    assert after == before
    # The strict planner reads the requests pass 1 derived.
    planner = router.planner
    assert planner.strict_flags
    for net in nets:
        assert planner.requests_for(net) == planner._derive_requests(net)
