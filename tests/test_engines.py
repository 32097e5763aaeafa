"""Tests for the pluggable routing-engine layer.

Covers the registry, engine selection through the CLI (including the
exit-2 contract on unknown names), the service API's ``engine`` field
(400 on unknown, cache-key participation), and a hypothesis property:
both engines produce sign-off-legal routes on random small designs.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    make_dataset,
    small_suite,
)
from repro.cli import main
from repro.core.config import RouterConfig
from repro.core.verify import verify_routing
from repro.engines import (
    ENGINES,
    EdgeDeletionEngine,
    NegotiatedEngine,
    engine_names,
    make_engine,
)
from repro.errors import ConfigError
from repro.exec.jobs import JobSpec
from repro.layout.placer import FeedStyle
from repro.service.api import ApiError, build_specs, parse_job_request
from repro.tech import Technology


class TestRegistry:
    def test_both_engines_registered(self):
        assert engine_names() == ("edge-deletion", "negotiated")
        assert ENGINES["edge-deletion"] is EdgeDeletionEngine
        assert ENGINES["negotiated"] is NegotiatedEngine

    def test_default_engine_is_edge_deletion(self):
        assert RouterConfig().routing_engine == "edge-deletion"

    def test_unknown_engine_rejected_by_config(self):
        with pytest.raises(ConfigError):
            RouterConfig(routing_engine="simulated-annealing")

    def test_make_engine_dispatches(self):
        spec = small_suite()[0]
        dataset = make_dataset(spec)
        for name, engine_cls in ENGINES.items():
            engine = make_engine(
                dataset.circuit,
                dataset.placement,
                dataset.constraints,
                RouterConfig(routing_engine=name),
            )
            assert isinstance(engine, engine_cls)
            assert engine.name == name


class TestNegotiationConfig:
    def test_knob_validation(self):
        with pytest.raises(ConfigError):
            RouterConfig(neg_init_pn=-0.1)
        with pytest.raises(ConfigError):
            RouterConfig(neg_pn_factor=1.0)
        with pytest.raises(ConfigError):
            RouterConfig(neg_history_weight=-1.0)
        with pytest.raises(ConfigError):
            RouterConfig(neg_max_iterations=0)


class TestCliEngineFlag:
    @pytest.fixture()
    def generated(self, tmp_path):
        netlist = tmp_path / "c.rnl"
        placement = tmp_path / "c.rpl"
        main([
            "generate", "cli_engine_demo",
            "--gates", "24", "--flops", "4",
            "--inputs", "4", "--outputs", "3",
            "--out", str(netlist),
            "--placement-out", str(placement),
        ])
        return netlist, placement

    def test_route_with_negotiated_engine(self, generated, capsys):
        netlist, placement = generated
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--constraints", "2",
            "--engine", "negotiated",
        ])
        assert code == 0

    def test_unknown_engine_exits_2(self, generated, capsys):
        netlist, placement = generated
        with pytest.raises(SystemExit) as excinfo:
            main([
                "route", str(netlist),
                "--placement", str(placement),
                "--engine", "steiner-magic",
            ])
        assert excinfo.value.code == 2
        assert "steiner-magic" in capsys.readouterr().err

    def test_batch_unknown_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--suite", "small", "--engine", "nope"])
        assert excinfo.value.code == 2


class TestServiceEngineField:
    def test_engine_accepted_and_round_trips(self):
        request = parse_job_request({
            "kind": "route", "dataset": "S1P1", "engine": "negotiated",
        })
        assert request.engine == "negotiated"
        assert parse_job_request(request.to_payload()) == request

    def test_engine_defaults_to_edge_deletion(self):
        request = parse_job_request({"kind": "route", "dataset": "S1P1"})
        assert request.engine == "edge-deletion"

    def test_unknown_engine_is_400(self):
        with pytest.raises(ApiError, match="engine must be one of") as exc:
            parse_job_request({
                "kind": "route", "dataset": "S1P1", "engine": "magic",
            })
        assert exc.value.status == 400

    def test_engine_changes_cache_key(self):
        default = parse_job_request({"kind": "route", "dataset": "S1P1"})
        negotiated = parse_job_request({
            "kind": "route", "dataset": "S1P1", "engine": "negotiated",
        })
        key_of = lambda req: build_specs(req)[0].cache_key()
        assert key_of(default) != key_of(negotiated)

    def test_default_engine_preserves_legacy_cache_key(self):
        # config=None (the pre-engine spec form) and the default-engine
        # request must address the same cached results.
        request = parse_job_request({"kind": "route", "dataset": "S1P1"})
        (spec,) = build_specs(request)
        assert spec.config is None
        legacy = JobSpec(spec.dataset, constrained=True)
        assert spec.cache_key() == legacy.cache_key()


spec_strategy = st.builds(
    CircuitSpec,
    name=st.just("HE"),
    n_gates=st.integers(12, 32),
    n_flops=st.integers(2, 5),
    n_inputs=st.integers(2, 4),
    n_outputs=st.integers(1, 3),
    n_diff_pairs=st.integers(0, 1),
    seed=st.integers(0, 10_000),
)


@st.composite
def dataset_strategy(draw):
    return DatasetSpec(
        name="HEDS",
        circuit=draw(spec_strategy),
        feed_style=draw(st.sampled_from(list(FeedStyle))),
        feed_fraction=draw(st.floats(0.05, 0.3)),
        n_constraints=draw(st.integers(1, 4)),
        constraint_factor=draw(st.floats(1.1, 2.0)),
    )


@given(dataset_strategy())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_engines_signoff_legal(spec):
    """Property: every engine routes any random design to a route set
    that passes the independent design-rule checker."""
    technology = Technology()
    dataset = make_dataset(spec, technology)
    for name in engine_names():
        engine = make_engine(
            dataset.circuit,
            dataset.placement,
            dataset.constraints,
            RouterConfig(technology=technology, routing_engine=name),
        )
        result = engine.route()
        problems = verify_routing(
            dataset.circuit, dataset.placement, result, engine.assignment
        )
        assert problems == [], f"{name}: {problems[:3]}"
