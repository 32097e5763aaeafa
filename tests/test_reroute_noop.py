"""A reroute that provably changes nothing is skipped, and skipping it
changes nothing.

``GlobalRouter.reroute_net`` skips the rebuild, the density churn, the
tree refresh, the candidate engine and both phase metrics when every
member of the reroute (the net and its differential partner) still holds
its snapshotted slots after the slot search and its graph is a tree that
has lost no edge since it was built.  Each design here is routed as
shipped and once more with that predicate forced false, which makes every
reroute run in full; the two runs must agree on the deletion stream, the
routes, the trees, the slots, the density profiles, the constraint
timings, the reroute events and every counter the edge-deletion golden
pins.  A differential pair whose graphs are trees as built is rerouted
through its trailing net: the reroute covers both members, is skipped,
and leaves what the full one leaves.

A reroute whose old slot another net took while it searched must fail
the predicate and run in full.
"""

import functools

import pytest

from repro.bench.circuits import make_dataset, small_suite, standard_suite
from repro.core import GlobalRouter, RouterConfig
from repro.core.selection import SelectionMode
from repro.netlist import Net
from repro.obs import MemorySink
from tests.conftest import routes_sha256
from tests.test_differential import diff_circuit
from tests.test_edge_deletion_golden import (
    COUNTERS,
    stream_rows,
    trees_sha256,
)

_SPECS = {spec.name: spec for spec in standard_suite() + small_suite()}

DESIGNS = ("C1P1", "C3P1", "S1P1")


def _recording(router, skip_noops):
    """Replace the router's no-op predicate: forced false when not
    ``skip_noops``, else the shipped one, recording the member nets of
    every reroute it skips into the returned list."""
    skipped = []
    predicate = router._reroute_is_noop

    def recorded(members, slot_snapshot):
        if not skip_noops:
            return False
        noop = predicate(members, slot_snapshot)
        if noop:
            skipped.append([member.net for member in members])
        return noop

    router._reroute_is_noop = recorded
    return skipped


def _route(name, constrained, skip_noops):
    """Route one design; returns ``(router, result, events, skipped)``."""
    dataset = make_dataset(_SPECS[name])
    config = RouterConfig()
    if not constrained:
        config = config.unconstrained()
    sink = MemorySink()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
        trace_sink=sink,
    )
    skipped = _recording(router, skip_noops)
    result = router.route()
    return router, result, sink.events, skipped


def _observed(router, result, events):
    """Everything a skipped reroute must leave as a full one would."""
    flat = router.metrics.flat()
    return {
        "stream": stream_rows(events),
        "reroute_events": [
            (e.data["net"], e.data["mode"], e.data["kept"], e.data["phase"])
            for e in events
            if e.kind == "reroute"
        ],
        "density_snapshots": [
            e.data for e in events if e.kind == "density_snapshot"
        ],
        "routes": routes_sha256(result),
        "trees": trees_sha256(router),
        "slots": {
            name: {row: (s.x, s.width) for row, s in by_row.items()}
            for name, by_row in router.assignment.slots.items()
        },
        "density": router.engine.snapshot(),
        "timings": {
            name: (t.margin_ps, [n.name for n in t.critical_nets()])
            for name, t in router._ensure_timings().items()
        },
        "margins": dict(result.constraint_margins),
        "deletions": result.deletions,
        "reroutes": (result.reroutes, int(flat["router.reroutes"])),
        "reverted": int(flat.get("router.reroutes_reverted", 0)),
        "counters": {c: int(flat.get(c, 0)) for c in COUNTERS},
    }


@functools.lru_cache(maxsize=None)
def _pair(name, constrained):
    """``(observed, noops, skipped)`` of the shipped and the forced run
    (the routers themselves are not kept)."""
    runs = []
    for skip_noops in (True, False):
        router, result, events, skipped = _route(
            name, constrained, skip_noops
        )
        noops = int(router.metrics.flat().get("router.reroutes_noop", 0))
        runs.append((_observed(router, result, events), noops, skipped))
    return tuple(runs)


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("name", DESIGNS)
def test_skipped_reroutes_change_nothing(name, constrained):
    (observed, _, _), (forced, forced_noops, forced_skipped) = _pair(
        name, constrained
    )
    assert forced_noops == 0 and not forced_skipped
    assert observed == forced


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("name", DESIGNS)
def test_noop_reroutes_are_counted(name, constrained):
    (observed, noops, skipped), _ = _pair(name, constrained)
    assert noops == len(skipped) > 0
    assert noops <= observed["reroutes"][0]


def _state(router):
    """The per-net state a reroute may touch, as plain values."""
    return {
        "slots": {
            name: {row: (s.x, s.width) for row, s in by_row.items()}
            for name, by_row in router.assignment.slots.items()
        },
        "density": router.engine.snapshot(),
        "trees": trees_sha256(router),
        "caps": {
            name: router.caps.get(state.net)
            for name, state in router.states.items()
        },
        "pairs": {
            name: (state.pair.edge_map, state.pair.vertex_map)
            for name, state in router.states.items()
            if state.pair is not None
        },
        "followers": {
            name: state.follower_of for name, state in router.states.items()
        },
        "reroutes": router.reroutes,
    }


def test_a_pair_reroute_is_skipped_and_changes_nothing(library):
    """A differential pair whose routing graphs are trees as built: a
    reroute of its trailing net reroutes the pair and is skipped, and
    the pair's slots, density, trees, caps and correspondence are what
    the full reroute leaves."""
    runs = []
    for skip_noops in (True, False):
        circuit, placement, p, n = diff_circuit(library, rows=3)
        router = GlobalRouter(circuit, placement, [], RouterConfig())
        skipped = _recording(router, skip_noops)
        router.route()
        del skipped[:]
        trail = max(p.name, n.name)
        assert router.reroute_net(trail, SelectionMode.TIMING)
        runs.append((router, skipped))
    (shipped, skipped), (forced, _) = runs
    assert [sorted(net.name for net in nets) for nets in skipped] == [
        sorted((p.name, n.name))
    ]
    assert shipped.states[min(p.name, n.name)].pair is not None
    assert _state(shipped) == _state(forced)


def test_a_taken_slot_forces_the_full_reroute(monkeypatch):
    """Another net takes the rerouted net's old slot between the release
    and the search: the net moves, so the predicate fails and the
    reroute rebuilds the graph from the new slot."""
    dataset = make_dataset(_SPECS["C1P1"])
    # A kept reroute is the one under test; a reverted one would try to
    # re-occupy the slot the intruder holds.
    config = RouterConfig(revert_worse_reroutes=False)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )
    router.route()
    planner = router.planner

    def candidate():
        for name, state in sorted(router.states.items()):
            slots = router.assignment.slots.get(name, {})
            if state.net.is_differential or state.net.width_pitches != 1:
                continue
            if not router._reroute_is_noop([state], {name: dict(slots)}):
                continue
            for row, slot in sorted(slots.items()):
                # Another free single-pitch slot to move to.
                if planner.rows[row].find_group(slot.x, 1, True) is not None:
                    return state, row, slot
        return None

    found = candidate()
    assert found is not None
    state, row, slot = found
    name = state.net.name
    intruder = Net("__intruder")
    release = planner.release_net

    def release_then_take(net):
        release(net)
        monkeypatch.setattr(planner, "release_net", release)
        planner.rows[row].occupy(slot.x, 1, intruder)

    monkeypatch.setattr(planner, "release_net", release_then_take)
    graph = state.graph
    noops = int(router.metrics.flat()["router.reroutes_noop"])
    reroutes = router.reroutes

    assert router.reroute_net(name, SelectionMode.TIMING)

    assert router.reroutes == reroutes + 1
    assert int(router.metrics.flat()["router.reroutes_noop"]) == noops
    moved = router.assignment.slots[name][row]
    assert moved.x != slot.x
    assert planner.rows[row].occupant[moved.x] == name
    assert state.graph is not graph
    assert state.graph.is_tree
    assert state.graph.terminals_connected()
