"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them green.
Each runs in-process via runpy with stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py")
        assert "critical delay" in out
        assert "din_to_ff" in out

    def test_reproduce_paper_small_table1(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_example(
                monkeypatch, capsys, "reproduce_paper.py",
                ["--suite", "small", "--table", "1"],
            )
        assert exit_info.value.code in (0, None)
        out = capsys.readouterr().out
        assert "Table 1: Test bipolar circuits" in out
        assert "S1P1" in out

    def test_reproduce_paper_small_table3(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_example(
                monkeypatch, capsys, "reproduce_paper.py",
                ["--suite", "small", "--table", "3"],
            )
        assert exit_info.value.code in (0, None)
        out = capsys.readouterr().out
        assert "Table 3: Difference from the lower bound" in out
        assert "Table 1" not in out

    def test_clock_and_differential(self, monkeypatch, capsys):
        out = run_example(
            monkeypatch, capsys, "clock_and_differential.py"
        )
        assert "clock width: 1 pitch" in out
        assert "homogeneous parallel routes: True" in out

    def test_timing_exploration(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "timing_exploration.py")
        assert "densest channel" in out
        assert "factor" in out

    def test_file_workflow(self, monkeypatch, capsys, tmp_path):
        out = run_example(
            monkeypatch, capsys, "file_workflow.py", [str(tmp_path)]
        )
        assert "saved netlist and placement" in out
        assert (tmp_path / "chip.rnl").exists()
        assert (tmp_path / "result.json").exists()
        assert "Table 2a: Routing results WITH constraints" in out
        assert "Table 2b: Routing results WITHOUT constraints" in out
        assert "constraint" in out
