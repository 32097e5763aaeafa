"""Tests for repro.baselines: HPWL lower bound, estimators, congestion."""

import pytest

from conftest import build_chain_circuit, build_fanout_circuit
from repro import (
    PlacerConfig,
    Technology,
    place_circuit,
)
from repro.baselines import (
    critical_path_lower_bound_ps,
    estimate_channel_tracks,
    hpwl_caps,
    hpwl_length_um,
    mst_length_um,
    star_length_um,
)
from repro.layout.floorplan import assign_external_pins


@pytest.fixture()
def placed_chain(library):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.3)
    )
    assign_external_pins(circuit, placement)
    return circuit, placement


class TestHpwl:
    def test_two_pin_same_row(self, library):
        circuit = build_chain_circuit(library, n_gates=2)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=1, feed_fraction=0.0)
        )
        assign_external_pins(circuit, placement)
        tech = Technology(pitch_um=4.0)
        net = circuit.net("n0")
        columns = []
        from repro.netlist.circuit import Terminal

        for pin in net.pins:
            if isinstance(pin, Terminal):
                columns.append(placement.terminal_column(pin))
        expected_dx = (max(columns) - min(columns)) * 4.0
        assert hpwl_length_um(net, placement, tech) == pytest.approx(
            expected_dx
        )

    def test_vertical_extent_uses_row_edges(self, placed_chain):
        circuit, placement = placed_chain
        tech = Technology()
        # Zero-track geometry vs taller real geometry.
        for net in circuit.routable_nets:
            flat = hpwl_length_um(net, placement, tech)
            tall = hpwl_length_um(
                net, placement, tech,
                channel_tracks={c: 10 for c in range(placement.n_channels)},
            )
            assert tall >= flat - 1e-9

    def test_caps_positive_for_spread_nets(self, placed_chain):
        circuit, placement = placed_chain
        caps = hpwl_caps(circuit, placement, Technology())
        assert any(
            caps.get(net) > 0 for net in circuit.routable_nets
        )

    def test_caps_compute_row_geometry_once_per_call(
        self, placed_chain, monkeypatch
    ):
        from repro.baselines import lower_bound
        from repro.layout import floorplan
        from repro.timing.delay_model import CapacitanceDelayModel

        circuit, placement = placed_chain
        tracks = {c: 3 for c in range(placement.n_channels)}
        expected = {
            net.name: hpwl_length_um(net, placement, Technology(), tracks)
            for net in circuit.routable_nets
        }
        calls = []
        row_base_y_um = floorplan.row_base_y_um

        def counted(*args, **kwargs):
            calls.append(1)
            return row_base_y_um(*args, **kwargs)

        monkeypatch.setattr(floorplan, "row_base_y_um", counted)
        monkeypatch.setattr(lower_bound, "row_base_y_um", counted)
        caps = hpwl_caps(
            circuit, placement, Technology(), channel_tracks=tracks
        )
        # The row base plus the chip height built on it, for any net count.
        assert len(circuit.routable_nets) > 2
        assert len(calls) == 2
        model = CapacitanceDelayModel(Technology(), 1.0)
        for net in circuit.routable_nets:
            assert caps.get(net) == model.wire_cap_pf(
                expected[net.name], net.width_pitches
            )

    def test_lower_bound_below_routed_delay(self, library):
        from conftest import route_chain
        from repro.channelrouter import route_channels
        from repro.analysis import sign_off

        circuit, placement, constraints, result = route_chain(library)
        tech = Technology()
        bound = critical_path_lower_bound_ps(circuit, placement, tech)
        channel_result = route_channels(result, placement, tech)
        report = sign_off(
            circuit, placement, result, channel_result, constraints, tech
        )
        assert bound <= report.critical_delay_ps + 1e-6

    def test_bound_grows_with_channel_tracks(self, placed_chain):
        circuit, placement = placed_chain
        tech = Technology()
        flat = critical_path_lower_bound_ps(circuit, placement, tech)
        tall = critical_path_lower_bound_ps(
            circuit, placement, tech,
            channel_tracks={c: 20 for c in range(placement.n_channels)},
        )
        assert tall >= flat


class TestEstimators:
    def test_star_at_least_mst(self, placed_chain):
        circuit, placement = placed_chain
        tech = Technology()
        for net in circuit.routable_nets:
            star = star_length_um(net, placement, tech)
            mst = mst_length_um(net, placement, tech)
            assert star >= mst - 1e-9

    def test_mst_at_least_half_hpwl_horizontal(self, placed_chain):
        # MST length >= max pairwise distance >= bbox width.
        circuit, placement = placed_chain
        tech = Technology()
        for net in circuit.routable_nets:
            if len(net.pins) < 2:
                continue
            mst = mst_length_um(net, placement, tech)
            assert mst > 0 or hpwl_length_um(net, placement, tech) == 0

    def test_single_pin_lengths_zero(self, library):
        from repro import Circuit

        circuit = Circuit("single", library)
        a = circuit.add_cell("a", "INV1")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"))
        from repro.layout.placement import Placement

        placement = Placement(circuit, [[a]])
        assert star_length_um(net, placement) == 0.0
        assert mst_length_um(net, placement) == 0.0


class TestCongestion:
    def test_estimate_shape(self, placed_chain):
        circuit, placement = placed_chain
        tracks = estimate_channel_tracks(circuit, placement)
        assert set(tracks) == set(range(placement.n_channels))
        assert all(v >= 0 for v in tracks.values())

    def test_utilization_scales_estimate(self, placed_chain):
        circuit, placement = placed_chain
        loose = estimate_channel_tracks(circuit, placement, utilization=1.0)
        tight = estimate_channel_tracks(circuit, placement, utilization=0.25)
        assert sum(tight.values()) >= sum(loose.values())

    def test_bad_utilization_raises(self, placed_chain):
        circuit, placement = placed_chain
        with pytest.raises(ValueError):
            estimate_channel_tracks(circuit, placement, utilization=0.0)
