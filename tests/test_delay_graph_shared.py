"""One ``G_D`` per circuit and parameter set.

``G_D`` depends on the netlist alone, and routing never edits the
netlist, so constraint generation, the Table 3 bound, the router,
sign-off and the reports all read the graph
:meth:`GlobalDelayGraph.of` keeps on the circuit.  A netlist edit after
a read (``add_net``, ``Net.attach``, ...) advances the circuit's
revision, and the next read builds a new graph.

Each constraint's ``G_d(P)`` is kept the same way on its ``G_D``
(:meth:`ConstraintGraph.of`): the router builds it at setup and
sign-off, the reports and the RC sign-off read the same graph.
"""

import pytest

from repro.analysis.rc_signoff import rc_sign_off
from repro.analysis.report import full_report
from repro.analysis.signoff import sign_off
from repro.baselines.lower_bound import critical_path_lower_bound_ps
from repro.bench.circuits import generate_circuit, make_dataset, small_suite
from repro.bench.runner import run_flow
from repro.channelrouter.leftedge import route_channels
from repro.core.config import RouterConfig
from repro.engines import make_engine
from repro.layout.floorplan import assign_external_pins
from repro.netlist import TerminalDirection
from repro.timing import constraint as constraint_module
from repro.timing import delay_graph
from repro.timing.constraint import ConstraintGraph, build_constraint_graph
from repro.timing.delay_graph import GlobalDelayGraph
from repro.timing.sta import StaticTimingAnalyzer


@pytest.fixture()
def builds(monkeypatch):
    """Every ``G_D`` built, by circuit name."""
    built = []
    build = GlobalDelayGraph.build.__func__

    def counted(cls, circuit, *args, **kwargs):
        built.append(circuit.name)
        return build(cls, circuit, *args, **kwargs)

    monkeypatch.setattr(
        delay_graph.GlobalDelayGraph, "build", classmethod(counted)
    )
    return built


@pytest.mark.parametrize("constrained", [True, False])
def test_run_flow_builds_one_graph(builds, constrained):
    dataset = make_dataset(small_suite()[0])
    config = RouterConfig()
    if not constrained:
        config = config.unconstrained()
    flow = run_flow(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )
    assert builds == [dataset.circuit.name]
    assert flow.router.gd is GlobalDelayGraph.of(dataset.circuit)


@pytest.mark.parametrize("engine", ["edge-deletion", "negotiated"])
def test_benchmark_call_order_builds_one_graph(builds, engine):
    """The verified flow's calls, in order: make_dataset, the lower
    bound, the route, channel routing and sign-off."""
    dataset = make_dataset(small_suite()[0])
    circuit, placement = dataset.circuit, dataset.placement
    config = RouterConfig(routing_engine=engine)
    assign_external_pins(circuit, placement)
    critical_path_lower_bound_ps(circuit, placement, config.technology)
    router = make_engine(circuit, placement, dataset.constraints, config)
    result = router.route()
    channels = route_channels(result, placement, config.technology)
    sign_off(
        circuit, placement, result, channels, dataset.constraints,
        config.technology, config.width_cap_exponent, gd=router.gd,
    )
    sign_off(circuit, placement, result, channels, dataset.constraints)
    assert builds == [circuit.name]


def test_parameters_key_the_graph(builds):
    circuit = generate_circuit(small_suite()[0].circuit)
    default = GlobalDelayGraph.of(circuit)
    assert GlobalDelayGraph.of(circuit, 40.0, 100.0, 0.0) is default
    strong = GlobalDelayGraph.of(circuit, pad_tf_ps_per_pf=20.0)
    assert strong is not default
    assert GlobalDelayGraph.of(circuit, pad_tf_ps_per_pf=20.0) is strong
    assert len(builds) == 2


def test_an_edit_after_a_read_builds_a_new_graph(builds):
    circuit = generate_circuit(small_suite()[0].circuit)
    first = GlobalDelayGraph.of(circuit)
    assert GlobalDelayGraph.of(circuit) is first

    net = circuit.add_net("late")
    second = GlobalDelayGraph.of(circuit)
    assert second is not first
    assert GlobalDelayGraph.of(circuit) is second

    driver = circuit.add_external_pin("late_in", TerminalDirection.INPUT)
    sink = circuit.add_external_pin("late_out", TerminalDirection.OUTPUT)
    third = GlobalDelayGraph.of(circuit)
    net.attach(driver)
    net.attach(sink)
    fourth = GlobalDelayGraph.of(circuit)
    assert fourth is not third
    # The new graph holds the edit: the late net's arc is in it.
    assert len(fourth.arcs) == len(third.arcs) + 1
    assert "late" in fourth.net_index and "late" not in third.net_index
    assert len(builds) == 4


def test_build_stays_uncached():
    circuit = generate_circuit(small_suite()[0].circuit)
    kept = GlobalDelayGraph.of(circuit)
    fresh = GlobalDelayGraph.build(circuit)
    assert fresh is not kept
    assert fresh is not GlobalDelayGraph.build(circuit)
    assert [
        (a.tail, a.head, a.net.name, a.const_ps, a.td_ps_per_pf)
        for a in fresh.arcs
    ] == [
        (a.tail, a.head, a.net.name, a.const_ps, a.td_ps_per_pf)
        for a in kept.arcs
    ]
    assert GlobalDelayGraph.of(circuit) is kept


@pytest.fixture()
def cg_builds(monkeypatch):
    """Every ``G_d(P)`` built, by constraint name."""
    built = []

    def counted(gd, constraint):
        built.append(constraint.name)
        return build_constraint_graph(gd, constraint)

    monkeypatch.setattr(
        constraint_module, "build_constraint_graph", counted
    )
    return built


def test_a_flow_builds_each_constraint_graph_once(cg_builds):
    dataset = make_dataset(small_suite()[0])
    circuit, constraints = dataset.circuit, dataset.constraints
    flow = run_flow(
        circuit, dataset.placement, constraints, RouterConfig()
    )
    names = [constraint.name for constraint in constraints]
    assert len(names) > 1
    assert sorted(cg_builds) == sorted(names)
    gd = flow.router.gd
    assert all(
        cg is ConstraintGraph.of(gd, constraint)
        for cg, constraint in zip(
            flow.router.router.constraint_graphs, constraints
        )
    )
    # The reports read the same graphs: no build after the route.
    full_report(
        circuit, dataset.placement, flow.global_result,
        flow.channel_result, flow.signoff, constraints, gd=gd,
    )
    rc_sign_off(circuit, flow.global_result, constraints)
    sign_off(
        circuit, dataset.placement, flow.global_result,
        flow.channel_result, constraints,
    )
    assert sorted(cg_builds) == sorted(names)


def test_signoff_margins_match_fresh_graphs():
    """Sign-off over the kept graphs gives exactly the margins of an
    analysis over graphs built from scratch."""
    dataset = make_dataset(small_suite()[0])
    constraints = dataset.constraints
    flow = run_flow(
        dataset.circuit, dataset.placement, constraints, RouterConfig()
    )
    gd = GlobalDelayGraph.build(dataset.circuit)
    fresh = StaticTimingAnalyzer(
        gd, [build_constraint_graph(gd, c) for c in constraints]
    )
    margins = {
        name: timing.margin_ps
        for name, timing in fresh.analyze_all(
            flow.signoff.wire_caps
        ).items()
    }
    assert flow.signoff.constraint_margins == margins
    assert flow.signoff.critical_delay_ps == fresh.graph_critical_delay(
        flow.signoff.wire_caps
    )


def test_constraint_graph_is_kept_per_constraint(cg_builds):
    dataset = make_dataset(small_suite()[0])
    gd = GlobalDelayGraph.of(dataset.circuit)
    first, second = dataset.constraints[:2]
    kept = ConstraintGraph.of(gd, first)
    assert ConstraintGraph.of(gd, first) is kept
    assert ConstraintGraph.of(gd, second) is not kept
    assert cg_builds == [first.name, second.name]
    # Another G_D of the same circuit keeps its own graphs.
    other = GlobalDelayGraph.of(dataset.circuit, pad_tf_ps_per_pf=20.0)
    assert ConstraintGraph.of(other, first) is not kept
    assert cg_builds == [first.name, second.name, first.name]
