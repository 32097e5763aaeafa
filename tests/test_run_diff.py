"""Run-diff regression gates: manifest/trace diffing and the
``compare-runs`` CLI, including the two acceptance scenarios — seed
divergence stays green, an injected density regression goes red — and
the rejection of any input that is not a run manifest."""

import dataclasses
import json

import pytest

from repro.analysis.run_diff import classify_input, deletion_divergence
from repro.bench.circuits import make_dataset, small_suite
from repro.cli import main
from repro.core import GlobalRouter, RouterConfig
from repro.obs import MemorySink, build_run_manifest, events_to_jsonl

_SPECS = {spec.name: spec for spec in small_suite()}
LOOSE = [
    "--max-delay-pct", "50", "--max-length-pct", "50",
    "--max-peak-delta", "50", "--max-violations-delta", "5",
]


def _route_run(spec):
    dataset = make_dataset(spec)
    sink = MemorySink()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        trace_sink=sink,
    )
    result = router.route()
    manifest = build_run_manifest(
        config=None,
        dataset={"name": spec.name},
        result=result,
        metrics=router.metrics.flat(),
    )
    return manifest.to_dict(), sink.events


@pytest.fixture(scope="module")
def seed_pair(tmp_path_factory):
    """The same design routed under two circuit seeds, on disk."""
    base = _SPECS["S1P1"]
    reseeded = dataclasses.replace(
        base,
        circuit=dataclasses.replace(base.circuit, seed=base.circuit.seed + 1),
    )
    root = tmp_path_factory.mktemp("seedpair")
    paths = {}
    for tag, spec in (("a", base), ("b", reseeded)):
        manifest, events = _route_run(spec)
        manifest_path = root / f"manifest_{tag}.json"
        manifest_path.write_text(json.dumps(manifest))
        trace_path = root / f"trace_{tag}.jsonl"
        trace_path.write_text(events_to_jsonl(events))
        paths[tag] = (manifest_path, trace_path, manifest, events)
    return paths


class TestSeedDivergenceAcceptance:
    def test_loose_thresholds_pass_and_report_divergence(
        self, seed_pair, capsys
    ):
        (old_m, old_t, _, _), (new_m, new_t, _, _) = (
            seed_pair["a"], seed_pair["b"],
        )
        code = main([
            "compare-runs", str(old_m), str(new_m),
            "--trace", str(old_t), str(new_t), *LOOSE,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "diverge at deletion #" in out
        assert "OK: all deltas within thresholds" in out

    def test_divergence_point_is_the_first_differing_deletion(
        self, seed_pair
    ):
        (_, _, _, events_a), (_, _, _, events_b) = (
            seed_pair["a"], seed_pair["b"],
        )
        divergence = deletion_divergence(events_a, events_b)
        index = divergence["index"]
        assert index is not None
        deleted_a = [
            (e.data["net"], e.data["edge"])
            for e in events_a if e.kind == "edge_deleted"
        ]
        deleted_b = [
            (e.data["net"], e.data["edge"])
            for e in events_b if e.kind == "edge_deleted"
        ]
        assert deleted_a[:index] == deleted_b[:index]
        assert deleted_a[index] != deleted_b[index]

    def test_identical_runs_have_no_divergence(self, seed_pair):
        (_, _, _, events_a) = seed_pair["a"]
        divergence = deletion_divergence(events_a, events_a)
        assert divergence["index"] is None
        assert divergence["compared"] > 0


class TestInjectedRegression:
    def test_density_regression_fails_the_gate(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["metrics"]["router.peak_density_total"] += 20
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        # Default max_peak_delta (8 tracks) catches the +20 injection.
        code = main([
            "compare-runs", str(manifest_path), str(worse_path),
        ])
        assert code == 1

    def test_delay_regression_fails_the_gate(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["results"]["critical_delay_ps"] *= 2.0
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        code = main([
            "compare-runs", str(manifest_path), str(worse_path), *LOOSE,
        ])
        assert code == 1

    def test_identical_manifests_pass_tight_thresholds(self, seed_pair):
        manifest_path, _, _, _ = seed_pair["a"]
        code = main([
            "compare-runs", str(manifest_path), str(manifest_path),
            "--max-delay-pct", "0.1", "--max-length-pct", "0.1",
            "--max-peak-delta", "0",
        ])
        assert code == 0

    def test_json_report_records_failures(self, seed_pair, tmp_path):
        manifest_path, _, manifest, _ = seed_pair["a"]
        worse = json.loads(json.dumps(manifest))
        worse["results"]["violations"] += 3
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        report_path = tmp_path / "diff.json"
        code = main([
            "compare-runs", str(manifest_path), str(worse_path),
            "--json", str(report_path),
        ])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert any(
            "violations" in failure for failure in payload["failures"]
        )


class TestInputClassification:
    def test_classify_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            classify_input({"schema": "something-else/9"})

    def test_kind_mismatch_is_an_input_error(self, seed_pair, tmp_path):
        manifest_path, _, _, _ = seed_pair["a"]
        bench_path = tmp_path / "bench.json"
        # A retired bench-snapshot schema: compare-runs diffs manifests
        # only.
        bench_path.write_text(json.dumps({
            "schema": "repro-bench-selection/3",
            "designs": {},
        }))
        code = main([
            "compare-runs", str(manifest_path), str(bench_path),
        ])
        assert code == 2

    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys):
        missing = tmp_path / "gone.json"
        code = main(["compare-runs", str(missing), str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
