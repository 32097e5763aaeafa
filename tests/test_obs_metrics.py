"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    current_scoped_registry,
    get_registry,
    merge_flat,
    prometheus_exposition,
    scoped_registry,
)


class TestInstruments:
    def test_counter_create_or_get(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter("a").value == 5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(7.0)
        assert registry.gauge("g").value == 7.0

    def test_histogram_aggregates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (2.0, 4.0, 9.0):
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == pytest.approx(15.0)
        assert summary["min"] == 2.0
        assert summary["max"] == 9.0
        assert summary["mean"] == pytest.approx(5.0)

    def test_empty_histogram_summary_is_zero(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestExport:
    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.25)
        registry.histogram("h").record(3.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2
        assert snapshot["g"] == 1.25
        assert snapshot["h"]["count"] == 1

    def test_flat_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").record(2.0)
        flat = registry.flat()
        assert flat["c"] == 1.0
        assert flat["h.count"] == 1.0
        assert flat["h.total"] == 2.0

    def test_format_lists_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        lines = registry.format().splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("b")


def test_global_registry_is_shared():
    assert get_registry() is get_registry()


def test_scoped_registry_is_visible_to_current_scoped_registry():
    assert current_scoped_registry() is None
    with scoped_registry() as scoped:
        assert current_scoped_registry() is scoped
        assert get_registry() is scoped
    assert current_scoped_registry() is None


class TestPercentiles:
    def test_nearest_rank_on_known_distribution(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):  # 1..100
            histogram.record(float(value))
        summary = histogram.summary()
        assert summary["p50"] == 50.0
        assert summary["p90"] == 90.0
        assert summary["p99"] == 99.0

    def test_single_sample_is_every_percentile(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.record(4.25)
        summary = histogram.summary()
        assert summary["p50"] == summary["p90"] == summary["p99"] == 4.25

    def test_ring_keeps_most_recent_past_capacity(self):
        histogram = MetricsRegistry().histogram("h")
        cap = histogram.SAMPLE_CAP
        for value in range(cap + 100):
            histogram.record(float(value))
        # the 100 oldest samples were overwritten, so even p50 of the
        # retained window sits above them
        assert histogram.summary()["p50"] >= 100.0
        assert histogram.summary()["count"] == cap + 100


class TestMergeFlat:
    def test_sums_counts_and_keeps_extremes(self):
        target = {}
        merge_flat(target, {
            "router.deletions": 10.0, "h.count": 2.0, "h.total": 5.0,
            "h.min": 1.0, "h.max": 4.0, "h.mean": 2.5, "h.p50": 2.0,
        })
        merge_flat(target, {
            "router.deletions": 5.0, "h.count": 1.0, "h.total": 9.0,
            "h.min": 0.5, "h.max": 9.0, "h.mean": 9.0, "h.p50": 9.0,
        })
        assert target["router.deletions"] == 15.0
        assert target["h.count"] == 3.0
        assert target["h.total"] == 14.0
        assert target["h.min"] == 0.5
        assert target["h.max"] == 9.0
        # per-run means/percentiles cannot be merged and must not leak
        assert "h.mean" not in target
        assert "h.p50" not in target


class TestPrometheusExposition:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs_submitted").inc(3)
        registry.gauge("service.queue_depth").set(2)
        histogram = registry.histogram("service.job_wall_s")
        for value in (1.0, 2.0, 3.0):
            histogram.record(value)
        return registry

    def test_families_and_types(self):
        text = prometheus_exposition(self.make_registry())
        assert "# TYPE repro_service_jobs_submitted counter" in text
        assert "repro_service_jobs_submitted 3" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "# TYPE repro_service_job_wall_s summary" in text
        assert 'repro_service_job_wall_s{quantile="0.5"} 2' in text
        assert "repro_service_job_wall_s_sum 6" in text
        assert "repro_service_job_wall_s_count 3" in text
        assert text.endswith("\n")

    def test_extra_flat_rides_along_as_gauges(self):
        text = prometheus_exposition(
            self.make_registry(),
            extra_flat={"jobs.router.deletions": 42.0},
        )
        assert "# TYPE repro_jobs_router_deletions gauge" in text
        assert "repro_jobs_router_deletions 42" in text

    def test_every_line_is_valid_exposition(self):
        import re

        text = prometheus_exposition(
            self.make_registry(), extra_flat={"uptime_s": 1.5}
        )
        name = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
        sample = re.compile(
            rf'^{name}(\{{quantile="[0-9.]+"\}})? -?[0-9.eE+:-]+$'
        )
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                assert parts[3] in ("counter", "gauge", "summary")
            else:
                assert sample.match(line), line
