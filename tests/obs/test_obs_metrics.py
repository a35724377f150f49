"""Metrics registry: counters/gauges/histograms, per-metric merges,
quantile derivation, exposition formats, and the ambient-registry plumbing."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_Q_ERROR_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    default_registry,
    use_registry,
)
from repro.obs.metrics import metric_key


class TestCounter:
    def test_inc_and_export(self):
        counter = MetricsRegistry().counter("hits_total", {"endpoint": "e"})
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        exported = counter.export()
        assert exported["type"] == "counter"
        assert exported["value"] == 5.0
        assert exported["labels"] == {"endpoint": "e"}

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_merge_adds(self):
        counter = MetricsRegistry().counter("hits_total")
        counter.inc(2)
        counter.merge_export({"value": 3})
        assert counter.value == 5.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_merge_is_last_write(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.merge_export({"value": 3})
        assert gauge.value == 3.0


class TestHistogram:
    def test_observe_tracks_sum_count_max_mean(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 20.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(25.55)
        assert hist.max == 20.0
        assert hist.mean == pytest.approx(25.55 / 4)
        # One observation per bucket, one in overflow.
        assert hist.counts == [1, 1, 1, 1]

    def test_quantiles_interpolate_within_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(50):
            hist.observe(0.5)
        for _ in range(50):
            hist.observe(1.5)
        assert 0.0 < hist.quantile(0.25) <= 1.0
        assert 1.0 <= hist.quantile(0.75) <= 2.0
        percentiles = hist.percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_overflow_quantile_answers_with_max(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0,))
        hist.observe(37.0)
        assert hist.quantile(0.99) == 37.0

    def test_empty_histogram_quantile_is_nan(self):
        # An empty histogram must answer loudly (NaN), never a fabricated 0.0
        # that reads as "everything was instant".
        hist = MetricsRegistry().histogram("lat")
        assert math.isnan(hist.quantile(0.5))
        assert hist.mean == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = MetricsRegistry().histogram("lat")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("c", buckets=(1.0, 1.0))

    def test_merge_requires_identical_buckets(self):
        left = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        right = MetricsRegistry().histogram("lat", buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_adds_counts_and_keeps_max(self):
        left = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        right = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.count == 3
        assert left.max == 9.0
        assert left.counts == [1, 1, 1]


class TestRegistry:
    def test_get_or_create_is_idempotent_per_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", {"endpoint": "x"})
        b = registry.counter("hits_total", {"endpoint": "x"})
        c = registry.counter("hits_total", {"endpoint": "y"})
        assert a is b and a is not c
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(TypeError):
            registry.gauge("thing_total")

    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'
        assert metric_key("m") == "m"

    def test_get_by_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", {"endpoint": "x"})
        assert registry.get("hits_total", {"endpoint": "x"}) is counter
        assert registry.get("hits_total") is None

    def test_to_dict_includes_derived_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("lat", {"endpoint": "e"}).observe(0.003)
        report = registry.to_dict()
        entry = report['lat{endpoint="e"}']
        assert entry["count"] == 1
        for derived in ("mean", "p50", "p95", "p99"):
            assert derived in entry

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", {"endpoint": "e"}, description="requests"
        ).inc(2)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_requests_total requests" in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="e"} 2' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 1' in text  # cumulative
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_empty_registry_prometheus_is_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_snapshot_hooks_drop_and_rebuild_locks(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(2)
        hist = registry.histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        state = registry.__snapshot_state__()
        assert "_lock" not in state
        restored = MetricsRegistry.__new__(MetricsRegistry)
        restored.__snapshot_restore__(state)
        restored.counter("hits_total").inc(1)  # lock works again
        assert restored.counter("hits_total").value == 3.0


class TestDefaultBuckets:
    def test_defaults_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert list(DEFAULT_Q_ERROR_BUCKETS) == sorted(DEFAULT_Q_ERROR_BUCKETS)
        assert DEFAULT_Q_ERROR_BUCKETS[0] == 1.0


class TestAmbientRegistry:
    def test_current_registry_defaults_to_process_wide(self):
        assert current_registry() is default_registry()

    def test_use_registry_scopes_and_restores(self):
        scoped = MetricsRegistry()
        with use_registry(scoped) as active:
            assert active is scoped
            assert current_registry() is scoped
            inner = MetricsRegistry()
            with use_registry(inner):
                assert current_registry() is inner
            assert current_registry() is scoped
        assert current_registry() is default_registry()
