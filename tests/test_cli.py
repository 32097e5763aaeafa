"""Tests for the repro-router CLI."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_generates_netlist_and_placement(self, tmp_path, capsys):
        netlist = tmp_path / "c.rnl"
        placement = tmp_path / "c.rpl"
        code = main([
            "generate", "cli_demo",
            "--gates", "30", "--flops", "5",
            "--inputs", "4", "--outputs", "3",
            "--out", str(netlist),
            "--placement-out", str(placement),
        ])
        assert code == 0
        assert netlist.exists() and placement.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_netlist_parses_back(self, tmp_path):
        netlist = tmp_path / "c.rnl"
        main([
            "generate", "cli_demo", "--gates", "30",
            "--out", str(netlist),
        ])
        from repro import standard_ecl_library, validate_circuit
        from repro.io import read_circuit

        circuit = read_circuit(netlist, standard_ecl_library())
        validate_circuit(circuit)


class TestRoute:
    @pytest.fixture()
    def generated(self, tmp_path):
        netlist = tmp_path / "c.rnl"
        placement = tmp_path / "c.rpl"
        main([
            "generate", "cli_demo",
            "--gates", "30", "--flops", "5",
            "--inputs", "4", "--outputs", "3",
            "--out", str(netlist),
            "--placement-out", str(placement),
        ])
        return netlist, placement

    def test_route_with_placement(self, generated, capsys):
        netlist, placement = generated
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--constraints", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical delay" in out
        assert "signed-off delay" in out
        assert "constraints" in out

    def test_route_autoplace(self, generated, capsys):
        netlist, _ = generated
        code = main(["route", str(netlist), "--rows", "3"])
        assert code == 0

    def test_route_unconstrained(self, generated, capsys):
        netlist, placement = generated
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--unconstrained",
        ])
        assert code == 0

    def test_route_json_output(self, generated, tmp_path, capsys):
        netlist, placement = generated
        out_json = tmp_path / "report.json"
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--constraints", "2",
            "--json", str(out_json),
        ])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert "global" in payload and "signoff" in payload
        assert payload["global"]["circuit"] == "cli_demo"

    def test_route_full_report(self, generated, capsys):
        netlist, placement = generated
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--constraints", "2",
            "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing report" in out
        assert "--- wires ---" in out

    def test_missing_netlist_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.rnl"
        code = main(["route", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.rnl" in err


class TestTables:
    def test_table1_small(self, capsys):
        code = main(["tables", "--suite", "small", "--table", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "S1P1" in out


class TestCompare:
    def test_route_anneal_and_verify_flags(self, tmp_path, capsys):
        netlist = tmp_path / "a.rnl"
        main([
            "generate", "annealdemo", "--gates", "25",
            "--out", str(netlist),
        ])
        code = main([
            "route", str(netlist),
            "--anneal", "2000",
            "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "annealed placement" in out
        assert "verifier: clean" in out

    def test_route_order_and_estimator_flags(self, tmp_path):
        netlist = tmp_path / "c.rnl"
        placement = tmp_path / "c.rpl"
        main([
            "generate", "flagdemo", "--gates", "25",
            "--out", str(netlist),
            "--placement-out", str(placement),
        ])
        code = main([
            "route", str(netlist),
            "--placement", str(placement),
            "--order", "fanout",
            "--estimator", "spt",
        ])
        assert code == 0
