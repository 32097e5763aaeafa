"""Property test for the incremental candidate engine.

Drives a :class:`CandidateEngine` with *random* deletion sequences over
randomly generated circuits (hypothesis picks the circuit seed, the
selection mode, and each victim) and checks the engine's core invariant
after every deletion:

* **completeness** — every surviving candidate (alive, non-essential,
  deletable edge of a tracked net) has a live key row;
* **exactness** — that row's key equals a ``selection_key`` built from
  scratch out of the scalar Section 3.2–3.4 definitions: the reference
  tentative tree (:func:`compute_tentative_tree`), the scalar
  :func:`evaluate_delay_criteria` and the density engine's current
  channel statistics — no router cache involved.

Together these imply the engine's minimum is the minimum of the fresh
keys at every step, for arbitrary interleavings — not just the ones the
router's own greedy loop happens to produce.  The live rows must also be
*exactly* the survivors: rows retire on deletion events alone, so a
missed ``removed`` or ``newly_essential`` edge shows up here.

The designs carry six constraints over two dozen gates, so several
constraints share nets, and the runs are long enough that some
re-analyses keep a constraint's margin while moving ``lp`` downstream
of the changed net — the case where the engine re-keys only the nets
whose arcs touch the moved positions.

:func:`test_picks_are_the_tuple_minimum` lets the engine drive instead:
it deletes each of its own picks until the loop converges, on
constrained and on unconstrained designs (an engine with no
timing-sensitive row, whose arg-min skips the delay columns), and after
every pick checks that the pick is the tuple-minimum of
``current_keys()`` and that every live row's four density columns equal
the channel stats less ``DensityEngine.edge_params`` of its coverage —
through the late loop, where most rows of a channel are dead but its
re-keys still write them all.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    FeedStyle,
    make_dataset,
)
from conftest import fresh_selection_key
from repro.core import GlobalRouter, RouterConfig
from repro.core.candidates import _COLS, CandidateEngine
from repro.core.selection import SelectionMode

MAX_STEPS = 40


def _prepared_router(circuit_seed: int, config=None):
    spec = DatasetSpec(
        f"prop{circuit_seed}",
        CircuitSpec(
            f"P{circuit_seed}",
            n_gates=24,
            n_flops=4,
            n_inputs=4,
            n_outputs=3,
            n_diff_pairs=1,
            seed=circuit_seed,
        ),
        FeedStyle.EVEN,
        n_constraints=6,
    )
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config or RouterConfig(),
    )
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    router._build_routing_graphs()
    router._init_density_and_trees()
    return router


def _survivors(states):
    return {
        (state.net.name, edge_id)
        for state in states
        for edge_id in state.graph.deletable_edges()
    }


def _assert_keys_exact(router, engine, states, mode, step):
    """Check the engine's live rows and keys against the survivors and
    their fresh scalar keys; return the survivors."""
    keys = engine.current_keys()
    survivors = _survivors(states)
    missing = survivors - set(keys)
    assert not missing, (
        f"step {step}: candidates with no live key row: "
        f"{sorted(missing)[:5]}"
    )
    retained = set(keys) - survivors
    assert not retained, (
        f"step {step}: live key rows of dead or essential edges: "
        f"{sorted(retained)[:5]}"
    )
    for name, edge_id in survivors:
        state = router.states[name]
        fresh = fresh_selection_key(router, state, edge_id, mode)
        assert keys[(name, edge_id)] == fresh, (
            f"step {step}: stale key served for ({name}, {edge_id}): "
            f"engine={keys[(name, edge_id)]} fresh={fresh}"
        )
    return survivors


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    circuit_seed=st.integers(min_value=0, max_value=40),
    mode=st.sampled_from([SelectionMode.TIMING, SelectionMode.AREA]),
    data=st.data(),
)
def test_heap_keys_match_fresh_keys(circuit_seed, mode, data):
    router = _prepared_router(circuit_seed)
    states = router._lead_states()
    engine = CandidateEngine(router, states, mode)
    try:
        for step in range(MAX_STEPS):
            survivors = _assert_keys_exact(
                router, engine, states, mode, step
            )
            if not survivors:
                break
            ordered = sorted(survivors)
            victim = ordered[
                data.draw(
                    st.integers(0, len(ordered) - 1),
                    label=f"victim@{step}",
                )
            ]
            router._delete_edge(router.states[victim[0]], victim[1])
    finally:
        engine.close()


#: A design whose seeded random deletions re-analyze constraints with
#: an unmoved margin but moved ``lp``, and where one such re-analysis
#: already moves another net's keys at step 4.
MARGIN_KEPT_SEED = 12


@pytest.mark.parametrize(
    "mode", [SelectionMode.TIMING, SelectionMode.AREA], ids=str
)
def test_keys_exact_while_margins_stay_put(mode):
    """A fixed run through the case where the engine skips the most
    work: a re-analysis that keeps a constraint's margin re-keys only
    the nets whose arcs touch a moved ``lp``.  Every key must stay
    exact, and the run must really contain such re-analyses."""
    router = _prepared_router(MARGIN_KEPT_SEED)
    states = router._lead_states()
    engine = CandidateEngine(router, states, mode)
    rng = random.Random(MARGIN_KEPT_SEED)
    margin_kept_lp_moved = 0
    try:
        for step in range(MAX_STEPS):
            survivors = _assert_keys_exact(
                router, engine, states, mode, step
            )
            if not survivors:
                break
            before = dict(router._timings)
            ordered = sorted(survivors)
            victim = ordered[rng.randrange(len(ordered))]
            router._delete_edge(router.states[victim[0]], victim[1])
            for name, timing in router._ensure_timings().items():
                old = before[name]
                if (
                    timing is not old
                    and timing.margin_ps == old.margin_ps
                    and timing.lp != old.lp
                ):
                    margin_kept_lp_moved += 1
    finally:
        engine.close()
    assert margin_kept_lp_moved > 0


def _assert_density_columns_exact(router, keys, mode, step):
    """Every live row's ``F_m, N_m, F_M, N_M`` against the channel's
    stats and ``edge_params`` of the row's own coverage."""
    cols = _COLS[mode]
    density = router.engine
    for (name, edge_id), key in keys.items():
        coverage = router.states[name].graph.coverage(edge_id)
        stats = density.channel_stats(coverage[1])
        params = density.edge_params(coverage)
        served = tuple(key[cols[c]] for c in ("fm", "nm", "fM", "nM"))
        assert served == (
            stats.c_min - params.d_min,
            stats.nc_min - params.nd_min,
            stats.c_max - params.d_max,
            stats.nc_max - params.nd_max,
        ), f"step {step}: stale density columns for ({name}, {edge_id})"


def _mostly_dead_channels(engine):
    """Channels with live rows left but more dead rows than live ones."""
    found = 0
    for channel in engine._windows.channels():
        a, b = engine._windows.rows(channel)
        live = int(engine._live[a:b].sum())
        if 0 < live < (b - a) - live:
            found += 1
    return found


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    circuit_seed=st.integers(min_value=0, max_value=40),
    mode=st.sampled_from([SelectionMode.TIMING, SelectionMode.AREA]),
    constrained=st.booleans(),
)
def test_picks_are_the_tuple_minimum(circuit_seed, mode, constrained):
    config = RouterConfig()
    if not constrained:
        config = config.unconstrained()
    router = _prepared_router(circuit_seed, config)
    states = router._lead_states()
    engine = CandidateEngine(router, states, mode)
    delay_cols = {_COLS[mode][c] for c in ("cd", "gl", "ld")}
    if not constrained:
        assert not delay_cols & set(engine._refine)
    mostly_dead = 0
    try:
        for step in itertools.count():
            keys = engine.current_keys()
            choice = engine.select()
            if not keys:
                assert choice is None
                break
            state, edge_id = choice
            assert (state.net.name, edge_id) == min(keys, key=keys.get), (
                f"step {step}: the pick is not the tuple-minimum"
            )
            _assert_density_columns_exact(router, keys, mode, step)
            mostly_dead += _mostly_dead_channels(engine)
            router._delete_edge(state, edge_id)
    finally:
        engine.close()
    assert step > 0 and mostly_dead > 0
