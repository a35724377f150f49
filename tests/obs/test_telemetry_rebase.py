"""ServingTelemetry is one ledger: every event is recorded once, in the
metrics registry, and the flat counters (``endpoint``, ``total``,
``snapshot``), the percentiles and the Prometheus text are views of it."""

from __future__ import annotations

import threading

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.runtime import WorkerPool
from repro.serving.telemetry import EndpointStats, ServingTelemetry
from repro.store import load_component, save_component


class TestEndpointStats:
    def test_endpoint_answers_a_value_not_a_live_object(self):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 2, 1, 1)
        before = telemetry.endpoint("euclid")
        telemetry.record_requests("euclid", 3, 0, 3)
        assert before.requests == 2  # computed when asked for, then fixed
        assert telemetry.endpoint("euclid").requests == 5
        with pytest.raises(AttributeError):
            before.requests = 9  # frozen: nothing writes through the view

    def test_reading_an_unknown_endpoint_records_nothing(self):
        telemetry = ServingTelemetry()
        assert telemetry.endpoint("never-seen") == EndpointStats()
        assert len(telemetry.metrics) == 0
        assert telemetry.snapshot() == {"total": EndpointStats().snapshot()}

    def test_counts_are_ints(self):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 5, 3, 2)
        telemetry.record_batch("euclid", 4)
        telemetry.record_observation("euclid", 10, 5)
        for entry in telemetry.snapshot().values():
            for key in ("requests", "cache_hits", "cache_misses", "batches",
                        "max_batch_size", "observations", "drift_events"):
                assert type(entry[key]) is int, key


class TestRegistryFeeds:
    def test_requests_feed_labelled_counters(self):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", count=5, hits=3, misses=2)
        assert telemetry.endpoint("euclid").requests == 5
        assert telemetry.total.requests == 5
        metrics = telemetry.metrics
        labels = {"endpoint": "euclid"}
        assert metrics.get("repro_requests_total", labels).value == 5.0
        assert metrics.get("repro_cache_hits_total", labels).value == 3.0
        assert metrics.get("repro_cache_misses_total", labels).value == 2.0

    def test_latency_feeds_endpoint_and_total_histograms(self):
        """One histogram per endpoint is written; the total's is the read-time
        merge of them — no ``endpoint="total"`` series exists."""
        telemetry = ServingTelemetry()
        telemetry.record_latency("euclid", 0.004)
        telemetry.record_latency("euclid", 0.04)
        telemetry.record_latency("hamming", 0.3)
        histogram = telemetry.metrics.get(
            "repro_request_latency_seconds", {"endpoint": "euclid"}
        )
        assert isinstance(histogram, Histogram)
        assert histogram.count == 2
        assert telemetry.metrics.get(
            "repro_request_latency_seconds", {"endpoint": "total"}
        ) is None
        euclid, total = telemetry.endpoint("euclid"), telemetry.total
        assert euclid.latency_seconds == pytest.approx(0.044)
        assert euclid.max_latency_seconds == 0.04
        assert total.latency_seconds == pytest.approx(0.344)
        assert total.max_latency_seconds == 0.3

    def test_snapshot_reports_latency_percentiles(self):
        telemetry = ServingTelemetry()
        for _ in range(20):
            telemetry.record_latency("euclid", 0.002)
        report = telemetry.snapshot()
        for name in ("euclid", "total"):
            entry = report[name]
            assert entry["latency_p50"] <= entry["latency_p95"] <= entry["latency_p99"]
            assert 0.0 < entry["latency_p50"] < 0.01
        # Endpoints that never recorded a latency get no percentile keys.
        telemetry.record_requests("cold", 1, 0, 1)
        assert "latency_p50" not in telemetry.snapshot()["cold"]

    def test_total_percentiles_add_the_endpoints_bucket_counts(self):
        telemetry = ServingTelemetry()
        reference = Histogram("reference")
        for endpoint, seconds in (("a", 0.002), ("a", 0.03), ("b", 0.2), ("b", 12.0)):
            telemetry.record_latency(endpoint, seconds)
            reference.observe(seconds)
        total = telemetry.snapshot()["total"]
        assert total["latency_p50"] == reference.quantile(0.50)
        assert total["latency_p95"] == reference.quantile(0.95)
        assert total["latency_p99"] == reference.quantile(0.99)  # overflow: the max

    def test_batches_are_metrics_too(self):
        telemetry = ServingTelemetry()
        telemetry.record_batch("euclid", 6)
        telemetry.record_batch("euclid", 2)
        labels = {"endpoint": "euclid"}
        batches = telemetry.metrics.get("repro_micro_batch_records", labels)
        assert (batches.count, batches.sum, batches.max) == (2, 8.0, 6.0)
        stats = telemetry.endpoint("euclid")
        assert (stats.batches, stats.batched_records, stats.max_batch_size) == (2, 8, 6)
        assert stats.mean_batch_size == 4.0

    def test_pool_tasks_share_the_endpoint_helper_and_track_max(self):
        telemetry = ServingTelemetry()
        telemetry.record_pool_task("shards", 0.01)
        telemetry.record_pool_task("shards", 0.03)
        stats = telemetry.endpoint("pool:shards")
        assert stats.requests == 2
        assert stats.latency_seconds == pytest.approx(0.04)
        assert stats.max_latency_seconds == 0.03
        # Pool tasks never inflate the client-facing totals.
        assert telemetry.total.requests == 0
        assert telemetry.total.latency_seconds == 0.0
        labels = {"pool": "shards"}
        assert telemetry.metrics.get("repro_pool_tasks_total", labels).value == 2.0
        assert telemetry.metrics.get("repro_pool_task_seconds", labels).count == 2

    def test_observation_feeds_q_error_histogram(self):
        telemetry = ServingTelemetry()
        error = telemetry.record_observation("euclid", estimated=10, actual=5)
        assert error == 2.0
        histogram = telemetry.metrics.get("repro_q_error", {"endpoint": "euclid"})
        assert histogram.count == 1
        assert histogram.max == 2.0
        assert telemetry.endpoint("euclid").mean_q_error == 2.0

    def test_drift_feeds_counter(self):
        telemetry = ServingTelemetry()
        telemetry.record_drift("euclid")
        assert (
            telemetry.metrics.get(
                "repro_drift_events_total", {"endpoint": "euclid"}
            ).value
            == 1.0
        )
        assert telemetry.endpoint("euclid").drift_events == 1

    def test_to_prometheus_delegates_to_registry(self):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 1, 1, 0)
        text = telemetry.to_prometheus()
        assert 'repro_requests_total{endpoint="euclid"} 1' in text

    def test_counts_merged_from_another_registry_show_in_the_flat_view(self):
        """What a process-backend child ships back lands in the one ledger,
        so the flat view counts it — even for entries never recorded here."""
        child = ServingTelemetry()
        child.record_requests("euclid", 4, 1, 3)
        child.record_pool_task("shards-proc", 0.02)
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 1, 1, 0)
        telemetry.metrics.merge_state(child.metrics.export_state())
        assert telemetry.endpoint("euclid").requests == 5
        assert telemetry.endpoint("euclid").cache_misses == 3
        assert telemetry.endpoint("pool:shards-proc").requests == 1
        assert telemetry.total.requests == 5
        # ... and recording keeps working on the merged entries.
        telemetry.record_pool_task("shards-proc", 0.01)
        assert telemetry.endpoint("pool:shards-proc").requests == 2


class TestLedgerIdentity:
    def test_registry_sees_traffic_after_every_public_call(self):
        """Regression: ``reset()`` used to swap in a new registry, orphaning
        every reader holding the old one.  The registry's identity is now
        fixed for the telemetry's lifetime, whichever public method runs."""
        telemetry = ServingTelemetry()
        registry = telemetry.metrics
        calls = [
            lambda: telemetry.record_requests("euclid", 1, 0, 1),
            lambda: telemetry.record_batch("euclid", 1),
            lambda: telemetry.record_latency("euclid", 0.01),
            lambda: telemetry.record_pool_task("shards", 0.01),
            lambda: telemetry.record_observation("euclid", 3.0, 4.0),
            lambda: telemetry.record_drift("euclid"),
            lambda: telemetry.endpoint("euclid"),
            lambda: telemetry.total,
            lambda: telemetry.snapshot(),
            lambda: telemetry.to_prometheus(),
            lambda: telemetry.__snapshot_state__(),
        ]
        assert not hasattr(telemetry, "reset")
        for tick, call in enumerate(calls, start=1):
            call()
            assert telemetry.metrics is registry
            telemetry.record_requests("euclid", 1, 0, 1)
            requests = registry.get("repro_requests_total", {"endpoint": "euclid"})
            assert requests.value == float(tick + 1)


class TestSnapshotHooks:
    def test_state_roundtrip_drops_and_rebuilds_lock(self, tmp_path):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 3, 2, 1)
        telemetry.record_latency("euclid", 0.01)
        save_component(telemetry, tmp_path / "telemetry")
        restored = load_component(tmp_path / "telemetry")
        assert restored.snapshot() == telemetry.snapshot()
        assert restored.to_prometheus() == telemetry.to_prometheus()
        # The metrics' locks were rebuilt and the handles re-resolve.
        restored.record_requests("euclid", 1, 0, 1)
        assert restored.endpoint("euclid").requests == 4
        assert telemetry.endpoint("euclid").requests == 3

    def test_state_is_the_registry_and_nothing_else(self):
        telemetry = ServingTelemetry()
        telemetry.record_requests("euclid", 3, 2, 1)
        state = telemetry.__snapshot_state__()
        assert list(state) == ["metrics"]
        assert isinstance(state["metrics"], MetricsRegistry)


class TestThreadSafety:
    def test_eight_threads_recording_into_one_telemetry_sum_exactly(self):
        telemetry = ServingTelemetry()
        threads, rounds = 8, 400
        barrier = threading.Barrier(threads)

        def work(index: int) -> None:
            barrier.wait(timeout=30)  # all eight record at the same time
            for _ in range(rounds):
                # Every thread hits the shared endpoint (handle resolution
                # races included) and one of its own.
                for name in ("shared", f"own{index}"):
                    telemetry.record_requests(name, 3, 1, 2)
                    telemetry.record_batch(name, 2)
                    telemetry.record_latency(name, 0.5)
                    telemetry.record_observation(name, 2.0, 1.0)
                telemetry.record_pool_task("fanout", 0.25)
                telemetry.record_drift("shared")

        pool = WorkerPool("recorders", num_workers=threads, telemetry=telemetry)
        try:
            pool.map(work, range(threads))
        finally:
            pool.shutdown()

        calls = threads * rounds
        shared = telemetry.endpoint("shared")
        assert shared.requests == 3 * calls
        assert (shared.cache_hits, shared.cache_misses) == (calls, 2 * calls)
        assert (shared.batches, shared.batched_records) == (calls, 2 * calls)
        assert shared.latency_seconds == 0.5 * calls  # exact: 0.5 is a power of two
        assert (shared.observations, shared.q_error_sum) == (calls, 2.0 * calls)
        assert shared.drift_events == calls
        for index in range(threads):
            assert telemetry.endpoint(f"own{index}").requests == 3 * rounds
        fanout = telemetry.endpoint("pool:fanout")
        assert (fanout.requests, fanout.latency_seconds) == (calls, 0.25 * calls)
        assert telemetry.endpoint("pool:recorders").requests == threads
        total = telemetry.total
        assert total.requests == 2 * 3 * calls  # pool tasks stay out
        assert total.latency_seconds == 2 * 0.5 * calls
