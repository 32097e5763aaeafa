"""Tests for the synthetic circuit generator (repro.bench.circuits)."""

import pytest

from repro import validate_circuit
from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    generate_circuit,
    generate_constraints,
    make_dataset,
    scale_suite,
    small_suite,
    standard_suite,
)
from repro.errors import ConfigError
from repro.layout.placer import FeedStyle
from repro.timing import GlobalDelayGraph


SPEC = CircuitSpec(
    "T", n_gates=40, n_flops=6, n_inputs=5, n_outputs=4,
    n_diff_pairs=1, seed=5,
)


class TestGenerateCircuit:
    def test_validates(self):
        circuit = generate_circuit(SPEC)
        validate_circuit(circuit)

    def test_deterministic(self):
        c1 = generate_circuit(SPEC)
        c2 = generate_circuit(SPEC)
        assert [c.name for c in c1.cells] == [c.name for c in c2.cells]
        assert [n.name for n in c1.nets] == [n.name for n in c2.nets]
        assert [
            [p.full_name for p in n.pins] for n in c1.nets
        ] == [[p.full_name for p in n.pins] for n in c2.nets]

    def test_seed_changes_structure(self):
        import dataclasses

        c1 = generate_circuit(SPEC)
        c2 = generate_circuit(dataclasses.replace(SPEC, seed=6))
        pins1 = [[p.full_name for p in n.pins] for n in c1.nets]
        pins2 = [[p.full_name for p in n.pins] for n in c2.nets]
        assert pins1 != pins2

    def test_counts(self):
        circuit = generate_circuit(SPEC)
        flops = [c for c in circuit.cells if c.is_sequential]
        assert len(flops) == SPEC.n_flops
        inputs = [p for p in circuit.external_pins if p.is_input]
        # n_inputs data pins + clk
        assert len(inputs) == SPEC.n_inputs + 1

    def test_clock_net_wide_and_full_fanout(self):
        circuit = generate_circuit(SPEC)
        clock = circuit.net("clk")
        assert clock.width_pitches == SPEC.clock_pitch
        assert clock.fanout == SPEC.n_flops

    def test_diff_pairs_created(self):
        circuit = generate_circuit(SPEC)
        pairs = circuit.differential_pairs()
        assert len(pairs) == SPEC.n_diff_pairs
        for a, b in pairs:
            assert a.fanout == b.fanout == SPEC.diff_fanout

    def test_acyclic_delay_graph(self):
        circuit = generate_circuit(SPEC)
        gd = GlobalDelayGraph.build(circuit)
        assert gd.topological_order()

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            CircuitSpec("bad", n_gates=1, n_flops=0, n_inputs=1,
                        n_outputs=1)

    def test_depth_bounded_by_stages(self):
        """Pipeline staging keeps zero-wire delays in the few-ns range
        even for larger circuits."""
        import dataclasses

        from repro.timing import StaticTimingAnalyzer, WireCaps

        small = generate_circuit(SPEC)
        big = generate_circuit(
            dataclasses.replace(SPEC, name="B", n_gates=160, n_flops=24)
        )
        for circuit in (small, big):
            gd = GlobalDelayGraph.build(circuit)
            delay = StaticTimingAnalyzer(gd).graph_critical_delay(
                WireCaps.zero()
            )
            assert delay < 3000.0


class TestGenerateConstraints:
    def test_constraints_target_worst_sinks(self):
        circuit = generate_circuit(SPEC)
        constraints = generate_constraints(circuit, 5, 1.3)
        assert len(constraints) == 5
        names = {c.name for c in constraints}
        assert names == {f"P{i}" for i in range(5)}
        for c in constraints:
            assert c.limit_ps > 0

    def test_limits_scale_with_factor(self):
        circuit = generate_circuit(SPEC)
        tight = generate_constraints(circuit, 3, 1.1)
        loose = generate_constraints(generate_circuit(SPEC), 3, 1.5)
        for t, l in zip(tight, loose):
            assert l.limit_ps > t.limit_ps

    def test_factor_must_exceed_one(self):
        circuit = generate_circuit(SPEC)
        with pytest.raises(ConfigError):
            generate_constraints(circuit, 3, 1.0)

    def test_constraints_are_satisfiable_at_zero_wire(self):
        from repro.timing import (
            StaticTimingAnalyzer,
            WireCaps,
            build_constraint_graph,
        )

        circuit = generate_circuit(SPEC)
        constraints = generate_constraints(circuit, 4, 1.3)
        gd = GlobalDelayGraph.of(circuit)
        cgs = [build_constraint_graph(gd, c) for c in constraints]
        analyzer = StaticTimingAnalyzer(gd, cgs)
        for cg in cgs:
            timing = analyzer.analyze_constraint(cg, WireCaps.zero())
            assert timing.margin_ps > 0


class TestDatasets:
    def test_make_dataset(self):
        spec = DatasetSpec("TP1", SPEC, FeedStyle.EVEN, n_constraints=4)
        dataset = make_dataset(spec)
        stats = dataset.stats()
        assert stats["constraints"] == 4
        assert stats["cells"] > 0
        dataset.placement.validate()

    def test_standard_suite_shape(self):
        suite = standard_suite()
        assert [s.name for s in suite] == [
            "C1P1", "C1P2", "C2P1", "C2P2", "C3P1",
        ]
        assert suite[0].circuit is suite[1].circuit
        assert suite[1].feed_style is FeedStyle.ASIDE

    def test_small_suite_is_small(self):
        for spec in small_suite():
            assert spec.circuit.n_gates <= 100


    def test_scale_suite_is_10x_to_100x(self):
        suite = scale_suite()
        assert [s.name for s in suite] == ["X1P1", "X2P1"]
        c3_gates = standard_suite()[-1].circuit.n_gates
        x1, x2 = (s.circuit for s in suite)
        assert x1.n_gates == 10 * c3_gates
        assert x2.n_gates == 100 * c3_gates
        # Specs must pass CircuitSpec validation (constructed above) and
        # the smoke design must stay buildable: generate X1's circuit
        # only (X2 is the headroom probe, too big for unit tests).
        validate_circuit(generate_circuit(x1))
