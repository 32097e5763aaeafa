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
router's own greedy loop happens to produce.
"""

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
from repro.core.candidates import CandidateEngine
from repro.core.selection import SelectionMode

MAX_STEPS = 25


def _prepared_router(circuit_seed: int):
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
        n_constraints=4,
    )
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
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
            keys = engine.current_keys()
            survivors = _survivors(states)
            missing = survivors - set(keys)
            assert not missing, (
                f"step {step}: candidates with no live key row: "
                f"{sorted(missing)[:5]}"
            )
            for name, edge_id in survivors:
                state = router.states[name]
                fresh = fresh_selection_key(router, state, edge_id, mode)
                assert keys[(name, edge_id)] == fresh, (
                    f"step {step}: stale key served for ({name}, "
                    f"{edge_id}): engine={keys[(name, edge_id)]} "
                    f"fresh={fresh}"
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
