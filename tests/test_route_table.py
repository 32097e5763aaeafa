"""The route table reproduces the per-edge walk it replaced, and the
post-route layers read it without building a tuple per wire.

``build_result`` fills one chip-wide :class:`RouteTable` from the
converged alive masks; a route's ``edges`` and ``attachments`` are views
over its rows.  Here:

* on every full route of the edge-deletion golden (X1P1 included, read
  off the golden's own run), on every case of the negotiated golden and
  on hypothesis-drawn designs under both engines, each net's rows equal,
  in order, value and Python type, what ``tests/channel_reference.py``'s
  per-edge walk builds, and the chip-wide channel collection equals the
  reference collector's;
* the views compare like the lists they replace and cannot be edited;
  a result whose routes were replaced, deleted or added gets a table
  built from its routes, never the stale one;
* a full flow plus a verification builds no ``RoutedEdge`` and no
  ``ChannelAttachment``.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    congestion_suite,
    make_dataset,
    small_suite,
    standard_suite,
)
from repro.bench.runner import run_flow
from repro.channelrouter.leftedge import collect_channels
from repro.core.config import RouterConfig
from repro.core.result import (
    AttachmentRows,
    ChannelAttachment,
    RoutedEdge,
    WireRows,
    route_table,
)
from repro.core.verify import verify_routing
from repro.engines import make_engine
from repro.layout.placer import FeedStyle
from tests.channel_reference import (
    reference_collect_net,
    reference_row_mismatches,
)
from tests.test_edge_deletion_golden import (
    CASES as EDGE_CASES,
    TABLE_MISMATCHES,
    case_id,
    fingerprint as edge_fingerprint,
)
from tests.test_negotiated_golden import CASES as NEGOTIATED_CASES

_SPECS = {
    spec.name: spec
    for spec in small_suite() + standard_suite() + congestion_suite()
}

FULL_ROUTES = [case for case in EDGE_CASES if case[1] in ("timing", "area")]


def assert_collection_matches_reference(result):
    """``collect_channels`` against the reference collector, net by
    net: segments per channel in order, attachment lists, throughs."""
    ours_segments, ours_throughs = collect_channels(result.routes)
    ref_segments, ref_throughs = {}, {}
    for name in sorted(result.routes):
        reference_collect_net(result.routes[name], ref_segments, ref_throughs)

    def rows(segments):
        return [
            (s.net_name, s.interval, s.part, s.parts, s.attach_top,
             s.attach_bottom)
            for s in segments
        ]

    assert set(ours_segments) == set(ref_segments)
    for channel, segments in ref_segments.items():
        assert rows(ours_segments[channel]) == rows(segments), channel
    assert ours_throughs == ref_throughs


@pytest.mark.parametrize(
    "name,mode", FULL_ROUTES, ids=[case_id(*c) for c in FULL_ROUTES]
)
def test_rows_match_reference_on_edge_deletion_goldens(name, mode):
    edge_fingerprint(name, mode)
    assert TABLE_MISMATCHES[case_id(name, mode)] == []


def route(spec, engine, constrained=True):
    dataset = make_dataset(spec)
    config = RouterConfig(routing_engine=engine)
    if not constrained:
        config = config.unconstrained()
    router = make_engine(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )
    return dataset, router, router.route()


@pytest.mark.parametrize(
    "name,constrained", NEGOTIATED_CASES,
    ids=[f"{n}.{'timing' if c else 'area'}" for n, c in NEGOTIATED_CASES],
)
def test_rows_match_reference_on_negotiated_goldens(name, constrained):
    _, engine, result = route(_SPECS[name], "negotiated", constrained)
    assert reference_row_mismatches(engine.router, result) == []
    assert_collection_matches_reference(result)


_designs = st.builds(
    DatasetSpec,
    name=st.just("T"),
    circuit=st.builds(
        CircuitSpec,
        name=st.just("T"),
        n_gates=st.integers(12, 36),
        n_flops=st.integers(2, 5),
        n_inputs=st.integers(2, 5),
        n_outputs=st.integers(1, 4),
        n_diff_pairs=st.integers(0, 1),
        clock_pitch=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    ),
    feed_style=st.sampled_from(list(FeedStyle)),
    feed_fraction=st.floats(0.02, 0.3),
    n_constraints=st.integers(1, 4),
)


@given(spec=_designs, engine=st.sampled_from(["edge-deletion", "negotiated"]))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rows_and_collection_match_reference_on_random_designs(spec, engine):
    dataset, router, result = route(spec, engine)
    assert reference_row_mismatches(router.router, result) == []
    assert_collection_matches_reference(result)
    assert verify_routing(
        dataset.circuit, dataset.placement, result, router.assignment
    ) == []


@pytest.fixture(scope="module")
def routed():
    return route(_SPECS["S1P1"], "edge-deletion")


def test_views_compare_like_lists_and_are_read_only(routed):
    _, _, result = routed
    for route_ in result.routes.values():
        edges, attachments = route_.edges, route_.attachments
        assert type(edges) is WireRows
        assert type(attachments) is AttachmentRows
        assert edges == list(edges) and edges == tuple(edges)
        assert list(edges) == edges and tuple(attachments) == attachments
        assert len(edges) == len(list(edges))
        assert len(attachments) == len(list(attachments))
        assert edges != list(edges)[:-1]
        assert not hasattr(edges, "append")
        assert not hasattr(attachments, "clear")
        copy = dataclasses.replace(
            route_, edges=list(edges), attachments=list(attachments)
        )
        assert copy == route_ and route_ == copy


def test_untouched_result_reuses_the_routers_table(routed):
    _, _, result = routed
    table = next(iter(result.routes.values())).edges.table
    assert route_table(result.routes) is table
    assert route_table(dict(result.routes)) is table
    assert table.names == tuple(sorted(result.routes))


def test_edited_results_get_a_table_of_their_routes(routed):
    _, _, result = routed
    table = next(iter(result.routes.values())).edges.table
    names = sorted(result.routes)
    name = next(n for n in names if len(result.routes[n].edges) > 1)

    # A replaced route: its rows come from the replacement.
    routes = dict(result.routes)
    kept = list(routes[name].edges)[:-1]
    routes[name] = dataclasses.replace(routes[name], edges=kept)
    fresh = route_table(routes)
    assert fresh is not table
    assert fresh.wires(names.index(name)) == kept

    # A copied route under another name (its views still read row
    # ``name`` of the old table).
    routes = dict(result.routes)
    routes["zz"] = dataclasses.replace(routes[name], net_name="zz")
    fresh = route_table(routes)
    assert fresh is not table and fresh.names[-1] == "zz"
    assert fresh.wires(len(names)) == list(result.routes[name].edges)

    # A deleted route: every later net moves up one row.
    routes = dict(result.routes)
    del routes[names[0]]
    fresh = route_table(routes)
    assert fresh is not table
    assert fresh.names == tuple(names[1:])
    for index, other in enumerate(names[1:]):
        assert fresh.wires(index) == list(result.routes[other].edges)
        assert fresh.attachments(index) == list(
            result.routes[other].attachments
        )


@pytest.fixture()
def tuple_counts(monkeypatch):
    """How many ``RoutedEdge`` and ``ChannelAttachment`` values are
    built while the test runs."""
    counts = {RoutedEdge: 0, ChannelAttachment: 0}
    for cls in counts:
        new = cls.__new__

        def counted(klass, *args, _new=new, **kwargs):
            counts[klass] += 1
            return _new(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
    return counts


@pytest.mark.parametrize(
    "name,engine", [("C3P1", "edge-deletion"), ("C1P1", "negotiated")]
)
def test_flow_and_verdict_build_no_tuples(name, engine, tuple_counts):
    dataset = make_dataset(_SPECS[name])
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(routing_engine=engine),
    )
    assert verify_routing(
        dataset.circuit, dataset.placement, flow.global_result,
        flow.router.assignment,
    ) == []
    assert tuple_counts == {RoutedEdge: 0, ChannelAttachment: 0}
    # The counters count: one read builds one value per row.
    route_ = next(iter(flow.global_result.routes.values()))
    list(route_.edges)
    list(route_.attachments)
    assert tuple_counts == {
        RoutedEdge: len(route_.edges),
        ChannelAttachment: len(route_.attachments),
    }
