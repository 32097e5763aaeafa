"""The golden explainer, and the trace commands its failure points at.

A copy of the ``S1P1.timing`` golden (90 deletions, two 64-deletion
windows) with its second ``stream_chunks`` digest altered stands in for
a golden-breaking change.  The explanation must name deletions 64–89,
list them, and leave a trace and heatmap that ``repro-router trace
explain`` and ``trace heatmap`` read.
"""

import json

import pytest

from repro.cli import main
from repro.obs import read_trace
from tests.test_edge_deletion_golden import (
    first_divergent_window,
    fingerprint,
    golden,
    mismatch_message,
    stream_rows,
)


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    """``(message, trace, heatmap)`` of the altered S1P1 golden."""
    pinned = dict(golden("S1P1", "timing"))
    pinned["stream_chunks"] = [pinned["stream_chunks"][0], "0" * 16]
    out_dir = tmp_path_factory.mktemp("explainer")
    message = mismatch_message(
        "S1P1", "timing", fingerprint("S1P1", "timing"), pinned, out_dir
    )
    return message, out_dir / "trace.jsonl", out_dir / "heatmap.txt"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_message_names_and_lists_the_divergent_window(explained):
    message, trace, _ = explained
    lines = message.splitlines()
    assert lines[0] == (
        "S1P1.timing differs from edge_deletion.json in: stream_chunks"
    )
    assert "first divergent window: deletions 64–89 of 90" in lines
    rows = stream_rows(read_trace(trace))
    assert [line for line in lines if line.startswith("  #")] == [
        f"  #{index} net {net} edge {edge} {criterion}@{depth} {phase}"
        for index, (net, edge, criterion, depth, phase, _) in enumerate(
            rows[64:], 64
        )
    ]
    assert (
        f"explain: repro-router trace explain {trace} --deletion 64"
        in lines
    )
    assert not any(line.startswith("warning:") for line in lines)


def test_first_divergent_window():
    assert first_divergent_window(["a", "b"], ["a", "b"]) is None
    assert first_divergent_window(["a", "b"], ["a", "c"]) == 1
    assert first_divergent_window(["a"], ["a", "b"]) == 1
    assert first_divergent_window(["a", "b"], []) == 0


def test_message_without_a_divergent_window(tmp_path):
    pinned = dict(golden("S1P1", "timing"))
    pinned["router.key_evals"] += 1
    lines = mismatch_message(
        "S1P1", "timing", fingerprint("S1P1", "timing"), pinned, tmp_path
    ).splitlines()
    assert lines[0] == (
        "S1P1.timing differs from edge_deletion.json in: router.key_evals"
    )
    assert lines[1] == "deletion stream as pinned (90 deletions)"
    assert not any(line.startswith("explain:") for line in lines)


def test_trace_explain_reads_the_window_start(explained, capsys):
    _, trace, _ = explained
    net, edge = stream_rows(read_trace(trace))[64][:2]
    code, out, _ = _run(
        capsys, "trace", "explain", str(trace), "--deletion", "64"
    )
    assert code == 0
    assert out.startswith(f"deletion #64: net {net} edge {edge} ")


def test_heatmap_file_is_what_trace_heatmap_prints(explained, capsys):
    _, trace, heatmap = explained
    code, out, _ = _run(capsys, "trace", "heatmap", str(trace))
    assert code == 0
    assert out == heatmap.read_text()
    assert "snapshot 'post_improvement'" in out
    assert out.count("  channel ") == out.count("d_M |")


def test_trace_heatmap_label(explained, capsys):
    _, trace, _ = explained
    code, out, _ = _run(
        capsys, "trace", "heatmap", str(trace), "--label", "initial"
    )
    assert code == 0
    assert out.startswith("snapshot 'initial'")
    assert "sum C_M" not in out


def test_trace_heatmap_channel_text_and_json(explained, capsys):
    _, trace, _ = explained
    code, out, _ = _run(
        capsys, "trace", "heatmap", str(trace), "--channel", "2"
    )
    assert code == 0
    channel_lines = [line for line in out.splitlines() if "C_M=" in line]
    assert len(channel_lines) == 1
    assert channel_lines[0].startswith("  channel 2: ")
    code, out, _ = _run(
        capsys, "trace", "heatmap", str(trace), "--json", "--channel", "2"
    )
    assert code == 0
    snapshots = json.loads(out)
    assert [s["label"] for s in snapshots] == [
        "initial", "post_deletion", "post_recovery", "post_improvement",
    ]
    for snapshot in snapshots:
        assert [h["channel"] for h in snapshot["channels"]] == [2]
    code, out, _ = _run(capsys, "trace", "heatmap", str(trace), "--json")
    assert code == 0
    assert all(len(s["channels"]) > 1 for s in json.loads(out))


@pytest.mark.parametrize(
    "argv", [("--channel", "99"), ("--label", "nowhere")],
    ids=["channel", "label"],
)
def test_trace_heatmap_absent_selection_is_an_input_error(
    explained, capsys, argv
):
    _, trace, _ = explained
    code, out, err = _run(capsys, "trace", "heatmap", str(trace), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
