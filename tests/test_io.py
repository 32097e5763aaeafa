"""Tests for repro.io: text formats and JSON reports."""

import json

import pytest

from conftest import build_chain_circuit, route_chain
from repro import PlacerConfig, Technology, place_circuit, validate_circuit
from repro.errors import NetlistError, PlacementError
from repro.io import (
    global_result_to_dict,
    parse_circuit,
    parse_placement,
    read_circuit,
    read_placement,
    run_record_to_dict,
    signoff_to_dict,
    write_circuit,
    write_json_report,
    write_placement,
)


def diff_pair_circuit(library):
    from repro import Circuit, TerminalDirection

    circuit = Circuit("dp", library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    drv = circuit.add_cell("drv", "DIFFBUF")
    rcv = circuit.add_cell("rcv", "NOR2")
    circuit.connect(
        circuit.add_net("nin").name, din, drv.terminal("I0")
    )
    p = circuit.add_net("p", width_pitches=2)
    n = circuit.add_net("n", width_pitches=2)
    circuit.connect("p", drv.terminal("OP"), rcv.terminal("I0"))
    circuit.connect("n", drv.terminal("ON"), rcv.terminal("I1"))
    circuit.make_differential_pair(p, n)
    dout = circuit.add_external_pin(
        "dout", TerminalDirection.OUTPUT, column=3
    )
    circuit.connect(circuit.add_net("no").name, rcv.terminal("O"), dout)
    return circuit


class TestNetlistRoundTrip:
    def test_chain_round_trip(self, library):
        original = build_chain_circuit(library)
        text = write_circuit(original)
        parsed = parse_circuit(text, library)
        validate_circuit(parsed)
        assert parsed.name == original.name
        assert {c.name for c in parsed.cells} == {
            c.name for c in original.cells
        }
        for net in original.nets:
            clone = parsed.net(net.name)
            assert [p.full_name for p in clone.pins] == [
                p.full_name for p in net.pins
            ]
            assert clone.width_pitches == net.width_pitches

    def test_diff_pair_round_trip(self, library):
        original = diff_pair_circuit(library)
        parsed = parse_circuit(write_circuit(original), library)
        pairs = parsed.differential_pairs()
        assert len(pairs) == 1
        assert {pairs[0][0].name, pairs[0][1].name} == {"p", "n"}
        assert parsed.net("p").width_pitches == 2
        assert parsed.external_pin("dout").column == 3

    def test_comments_and_blank_lines_ignored(self, library):
        text = (
            "# a comment\n\ncircuit c\n"
            "cell a INV1\ncell b INV1\n"
            "net n\nconnect n a.O b.I0\n"
        )
        circuit = parse_circuit(text, library)
        assert circuit.net("n").fanout == 1


class TestNetlistErrors:
    def test_missing_circuit_line(self, library):
        with pytest.raises(NetlistError, match="line 1"):
            parse_circuit("cell a INV1\n", library)

    def test_empty_text(self, library):
        with pytest.raises(NetlistError, match="empty"):
            parse_circuit("# nothing\n", library)

    def test_unknown_statement(self, library):
        with pytest.raises(NetlistError, match="line 2"):
            parse_circuit("circuit c\nbogus x\n", library)

    def test_bad_pin_direction(self, library):
        with pytest.raises(NetlistError, match="line 2"):
            parse_circuit("circuit c\npin p sideways bottom\n", library)

    def test_bad_connect_reference(self, library):
        with pytest.raises(NetlistError, match="line 4"):
            parse_circuit(
                "circuit c\ncell a INV1\nnet n\nconnect n nonsense\n",
                library,
            )

    def test_bad_width(self, library):
        with pytest.raises(NetlistError, match="line 2"):
            parse_circuit("circuit c\nnet n width=wide\n", library)


class TestPlacementRoundTrip:
    def test_round_trip(self, library):
        circuit = build_chain_circuit(library)
        placement = place_circuit(
            circuit, PlacerConfig(n_rows=3, feed_fraction=0.3)
        )
        text = write_placement(placement)
        clone = parse_placement(text, circuit)
        assert clone.n_rows == placement.n_rows
        for cell in circuit.cells:
            assert clone.location_of(cell) == placement.location_of(cell)

    def test_wrong_circuit_rejected(self, library):
        c1 = build_chain_circuit(library, name="one")
        c2 = build_chain_circuit(library, name="two")
        placement = place_circuit(c1, PlacerConfig(n_rows=2))
        with pytest.raises(PlacementError, match="one"):
            parse_placement(write_placement(placement), c2)

    def test_duplicate_row_rejected(self, library):
        circuit = build_chain_circuit(library)
        text = "placement chain rows=2\nrow 0: g0\nrow 0: g1\n"
        with pytest.raises(PlacementError, match="duplicate"):
            parse_placement(text, circuit)

    def test_row_out_of_range(self, library):
        circuit = build_chain_circuit(library)
        text = "placement chain rows=1\nrow 3: g0\n"
        with pytest.raises(PlacementError, match="out of range"):
            parse_placement(text, circuit)


class TestPlacementVersion2:
    """``.rpl`` version 2 writes feed columns as ``+<k>`` runs."""

    @pytest.fixture(scope="class")
    def routed(self):
        from repro.bench.circuits import make_dataset, standard_suite
        from repro.core import GlobalRouter, RouterConfig

        dataset = make_dataset(standard_suite()[0])  # C1P1
        result = GlobalRouter(
            dataset.circuit, dataset.placement, dataset.constraints,
            RouterConfig(),
        ).route()
        assert result.feed_cells_inserted > 0
        return dataset

    def test_routed_round_trip_keeps_runs(self, routed):
        placement = routed.placement
        text = write_placement(placement)
        lines = text.splitlines()
        assert lines[0] == (
            f"placement {routed.circuit.name} rows={placement.n_rows} "
            "version=2"
        )
        assert any(token.startswith("+") for token in text.split())
        assert "__feed" not in text
        clone = parse_placement(text, routed.circuit)
        for row in range(placement.n_rows):
            assert clone.items(row) == placement.items(row)
            assert clone.feed_columns(row) == placement.feed_columns(row)
        for cell in routed.circuit.cells:
            assert clone.location_of(cell) == placement.location_of(cell)
        assert clone.width_columns == placement.width_columns
        assert write_placement(clone) == text

    def test_feed_type_is_no_netlist_cell(self, library):
        with pytest.raises(NetlistError, match="placement columns"):
            parse_circuit("circuit c\ncell __pfeed_0 FEED\n", library)

    def test_version_1_feed_name_names_the_change(self, library):
        circuit = build_chain_circuit(library)
        text = "placement chain rows=1\nrow 0: g0 __feed_0 g1\n"
        with pytest.raises(PlacementError, match="version 2"):
            parse_placement(text, circuit)
        explicit = "placement chain rows=1 version=1\nrow 0: g0 +1\n"
        with pytest.raises(PlacementError, match="version 2"):
            parse_placement(explicit, circuit)

    def test_version_1_without_feeds_still_reads(self, library):
        circuit = build_chain_circuit(library)
        text = "placement chain rows=1\nrow 0: g1 g0\n"
        placement = parse_placement(text, circuit)
        assert placement.items(0) == [circuit.cell("g1"), circuit.cell("g0")]

    def test_version_2_errors(self, library):
        circuit = build_chain_circuit(library)
        for text, message in (
            ("placement chain rows=1 version=3\n", "version 3"),
            ("placement chain rows=1 v2\n", "version="),
            ("placement chain rows=1 version=2\nrow 0: +0\n", "feed run"),
            ("placement chain rows=1 version=2\nrow 0: +x\n", "feed run"),
            ("placement chain rows=1 version=2\nrow 0: zz\n", "zz"),
        ):
            with pytest.raises(PlacementError, match=message):
                parse_placement(text, circuit)


class TestFileHelpers:
    def test_read_write_files(self, library, tmp_path):
        circuit = build_chain_circuit(library)
        placement = place_circuit(circuit, PlacerConfig(n_rows=2))
        netlist_path = tmp_path / "c.rnl"
        placement_path = tmp_path / "c.rpl"
        netlist_path.write_text(write_circuit(circuit))
        placement_path.write_text(write_placement(placement))
        clone = read_circuit(netlist_path, library)
        clone_placement = read_placement(placement_path, clone)
        assert clone_placement.width_columns == placement.width_columns


class TestJsonReports:
    def test_global_result_serializes(self, library, tmp_path):
        circuit, placement, constraints, result = route_chain(library)
        payload = global_result_to_dict(result)
        text = json.dumps(payload)
        loaded = json.loads(text)
        assert loaded["circuit"] == circuit.name
        assert set(loaded["routes"]) == set(result.routes)
        path = tmp_path / "result.json"
        write_json_report(payload, path)
        assert json.loads(path.read_text())["deletions"] == result.deletions

    def test_routes_can_be_omitted(self, library):
        _, _, _, result = route_chain(library)
        payload = global_result_to_dict(result, include_routes=False)
        assert "routes" not in payload

    def test_signoff_serializes(self, library):
        from repro import route_channels, sign_off

        circuit, placement, constraints, result = route_chain(library)
        channel_result = route_channels(result, placement, Technology())
        report = sign_off(
            circuit, placement, result, channel_result, constraints,
            Technology(),
        )
        payload = signoff_to_dict(report)
        json.dumps(payload)
        assert payload["area_mm2"] == pytest.approx(report.area_mm2)

    def test_run_record_serializes(self):
        from repro.bench.circuits import small_suite
        from repro.bench.runner import run_dataset

        record, *_ = run_dataset(small_suite()[0], True)
        payload = run_record_to_dict(record)
        json.dumps(payload)
        assert payload["dataset"] == record.dataset
        assert payload["gap_to_bound_pct"] == pytest.approx(
            record.gap_to_bound_pct
        )
