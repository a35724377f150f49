"""Tests for the serving layer: registry, curve cache, micro-batching service.

The load-bearing guarantees:

* cache-hit answers are bit-identical to the cold path;
* batching/caching preserve monotonicity in the threshold;
* dataset updates (via :class:`IncrementalUpdateManager`) invalidate cached
  curves, and post-update answers match direct estimation again.
"""

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.core import IncrementalUpdateManager
from repro.datasets import generate_update_stream
from repro.selection import default_selector
from repro.serving import (
    CurveCache,
    EstimationService,
    EstimatorRegistry,
    default_record_key,
)


@pytest.fixture
def service(trained_cardnet):
    service = EstimationService(cache_capacity=256)
    service.register("cardnet/hm", trained_cardnet, distance_name="hamming")
    return service


@pytest.fixture
def test_queries(binary_workload):
    examples = binary_workload.test[:30]
    records = [example.record for example in examples]
    thetas = [example.theta for example in examples]
    return records, thetas


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_register_and_lookup(self, trained_cardnet):
        registry = EstimatorRegistry()
        entry = registry.register("a", trained_cardnet)
        assert registry.get("a") is entry
        assert "a" in registry and registry.names() == ["a"]
        assert entry.canonical  # CardNet supplies its own grid

    def test_duplicate_name_rejected(self, trained_cardnet):
        registry = EstimatorRegistry()
        registry.register("a", trained_cardnet)
        with pytest.raises(KeyError):
            registry.register("a", trained_cardnet)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            EstimatorRegistry().get("nope")

    def test_gridless_estimator_requires_theta_max(self, binary_dataset):
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", seed=0)
        registry = EstimatorRegistry()
        with pytest.raises(ValueError):
            registry.register("us", estimator)
        entry = registry.register("us", estimator, theta_max=binary_dataset.theta_max)
        assert not entry.canonical
        assert entry.curve_thetas[0] == 0.0
        assert entry.curve_thetas[-1] == pytest.approx(binary_dataset.theta_max)

    def test_unregister(self, trained_cardnet):
        registry = EstimatorRegistry()
        registry.register("a", trained_cardnet)
        registry.unregister("a")
        assert "a" not in registry

    def test_default_record_key_types(self):
        vector = np.asarray([1.0, 0.0, 0.0])
        assert default_record_key(vector) == default_record_key(vector.copy())
        assert default_record_key(vector) != default_record_key(vector[::-1].copy())
        assert default_record_key("abc") != default_record_key("abd")
        assert default_record_key(frozenset({3, 1})) == default_record_key({1, 3})


# --------------------------------------------------------------------------- #
# Curve cache
# --------------------------------------------------------------------------- #
class TestCurveCache:
    def test_lru_eviction(self):
        cache = CurveCache(capacity=2)
        cache.put("e", b"a", np.zeros(3))
        cache.put("e", b"b", np.ones(3))
        cache.get("e", b"a")  # refresh "a"
        cache.put("e", b"c", np.full(3, 2.0))  # evicts "b"
        assert cache.get("e", b"a") is not None
        assert cache.get("e", b"b") is None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_invalidate_single_estimator(self):
        cache = CurveCache(capacity=8)
        cache.put("x", b"k", np.zeros(2))
        cache.put("y", b"k", np.zeros(2))
        assert cache.invalidate("x") == 1
        assert cache.get("x", b"k") is None
        assert cache.get("y", b"k") is not None

    def test_invalidate_all(self):
        cache = CurveCache(capacity=8)
        cache.put("x", b"k", np.zeros(2))
        cache.put("y", b"k", np.zeros(2))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CurveCache(capacity=0)

    def test_put_freezes_the_cached_array(self):
        cache = CurveCache(capacity=4)
        curve = np.arange(3, dtype=np.float64)
        cache.put("e", b"k", curve)
        handed_out = cache.get("e", b"k")
        with pytest.raises(ValueError):
            handed_out[0] = 99.0
        with pytest.raises(ValueError):
            curve[0] = 99.0  # the caller's reference is the same frozen array
        assert np.array_equal(cache.get("e", b"k"), [0.0, 1.0, 2.0])

    def test_put_of_a_view_cannot_be_poisoned_through_its_base(self):
        """Freezing a view would not freeze its base — put must own the
        memory before freezing or the poisoning hole stays open (regression)."""
        cache = CurveCache(capacity=4)
        base = np.zeros((2, 3), dtype=np.float64)
        cache.put("e", b"k", base[0])
        base[0, 0] = 99.0  # mutate through the base, not the cached handle
        assert np.array_equal(cache.get("e", b"k"), [0.0, 0.0, 0.0])


# --------------------------------------------------------------------------- #
# Service: correctness of the cached curve path
# --------------------------------------------------------------------------- #
class TestServiceCorrectness:
    def test_cache_hits_bit_identical_to_cold_path(self, service, test_queries):
        records, thetas = test_queries
        cold = service.estimate_many("cardnet/hm", records, thetas)
        assert service.cache.misses > 0
        warm = service.estimate_many("cardnet/hm", records, thetas)
        assert np.array_equal(cold, warm)
        assert service.cache.hits >= len(records)

    def test_cold_path_matches_direct_estimation(self, service, trained_cardnet, binary_workload):
        examples = binary_workload.test[:30]
        served = service.estimate_many(
            "cardnet/hm",
            [example.record for example in examples],
            [example.theta for example in examples],
        )
        direct = trained_cardnet.estimate_many(examples)
        assert served == pytest.approx(direct, abs=1e-9)

    def test_single_estimate_equals_batched(self, service, test_queries):
        records, thetas = test_queries
        batched = service.estimate_many("cardnet/hm", records[:5], thetas[:5])
        singles = [
            service.estimate("cardnet/hm", record, theta)
            for record, theta in zip(records[:5], thetas[:5])
        ]
        assert singles == pytest.approx(batched, abs=0.0)

    def test_monotone_through_batching_and_caching(self, service, binary_dataset):
        record = binary_dataset.records[3]
        grid = np.linspace(0.0, binary_dataset.theta_max, 9)
        # Interleave other records so the batch mixes hits, misses, and records.
        other = binary_dataset.records[4]
        records = [record, other] * len(grid)
        thetas = np.repeat(grid, 2)
        answers = service.estimate_many("cardnet/hm", records, thetas)
        curve_of_record = answers[0::2]
        assert np.all(np.diff(curve_of_record) >= -1e-9)
        # And again, now answered fully from cache.
        cached = service.estimate_many("cardnet/hm", [record] * len(grid), grid)
        assert np.all(np.diff(cached) >= -1e-9)
        assert np.array_equal(cached, curve_of_record)

    def test_estimate_curve_is_monotone_and_cached(self, service, binary_dataset):
        record = binary_dataset.records[0]
        curve = service.estimate_curve("cardnet/hm", record)
        assert np.all(np.diff(curve) >= -1e-9)
        again = service.estimate_curve("cardnet/hm", record)
        assert np.array_equal(curve, again)

    def test_quantized_grid_estimator(self, binary_dataset, test_queries):
        """A gridless baseline serves through a uniform θ grid, consistently."""
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", seed=0)
        service = EstimationService()
        # Hamming thresholds are integers, so an integer grid is exact.
        service.register(
            "us/hm",
            estimator,
            curve_thetas=np.arange(int(binary_dataset.theta_max) + 1, dtype=np.float64),
        )
        records, thetas = test_queries
        cold = service.estimate_many("us/hm", records, thetas)
        warm = service.estimate_many("us/hm", records, thetas)
        assert np.array_equal(cold, warm)
        direct = estimator.estimate_batch(records, np.floor(np.asarray(thetas)))
        assert cold == pytest.approx(direct, abs=1e-9)

    def test_mismatched_lengths_rejected(self, service, test_queries):
        records, thetas = test_queries
        with pytest.raises(ValueError):
            service.estimate_many("cardnet/hm", records[:3], thetas[:2])

    def test_empty_batch(self, service):
        assert service.estimate_many("cardnet/hm", [], []).shape == (0,)

    def test_empty_batch_on_unknown_endpoint_raises(self, service):
        """Endpoint resolution happens before the empty short-circuit: an
        unknown endpoint must not silently succeed just because there was
        no work to do (regression)."""
        with pytest.raises(KeyError):
            service.estimate_many("nope", [], [])

    def test_empty_batch_records_latency_telemetry(self, trained_cardnet):
        service = EstimationService()
        service.register("m", trained_cardnet)
        service.estimate_many("m", [], [])
        stats = service.telemetry.endpoint("m")
        assert stats.requests == 0  # no records were served...
        assert stats.latency_seconds > 0.0  # ...but the request was timed

    def test_estimate_curve_many_matches_singles(self, service, binary_dataset):
        records = [binary_dataset.records[i] for i in range(4)]
        stacked = service.estimate_curve_many("cardnet/hm", records)
        singles = [service.estimate_curve("cardnet/hm", record) for record in records]
        assert np.array_equal(stacked, np.stack(singles))
        assert stacked.flags.writeable  # callers get a fresh matrix
        empty = service.estimate_curve_many("cardnet/hm", [])
        assert empty.shape == (0, len(service.registry.get("cardnet/hm").curve_thetas))

    def test_cached_curves_cannot_be_poisoned_by_callers(self, service, binary_dataset):
        """A caller mutating a curve it was handed must not corrupt future
        hits: cached arrays are frozen at put time (regression)."""
        record = binary_dataset.records[0]
        service.estimate("cardnet/hm", record, 4.0)
        entry = service.registry.get("cardnet/hm")
        cached = service.cache.get("cardnet/hm", entry.key_for(record))
        before = cached.copy()
        with pytest.raises(ValueError):
            cached[:] = -1.0
        assert np.array_equal(
            service.cache.get("cardnet/hm", entry.key_for(record)), before
        )
        # Served answers keep matching the uncorrupted curve.
        again = service.estimate("cardnet/hm", record, 4.0)
        assert again == pytest.approx(before[entry.curve_index(4.0)])


# --------------------------------------------------------------------------- #
# Service: micro-batching, telemetry
# --------------------------------------------------------------------------- #
class TestMicroBatching:
    def test_distinct_records_form_one_micro_batch(self, service, binary_dataset):
        records = [binary_dataset.records[i] for i in range(6)]
        thetas = [4.0] * 6
        service.estimate_many("cardnet/hm", records, thetas)
        stats = service.telemetry.endpoint("cardnet/hm")
        assert stats.batches == 1
        assert stats.max_batch_size == 6 and stats.batched_records == 6

    def test_duplicate_records_deduplicated_in_batch(self, service, binary_dataset):
        record = binary_dataset.records[0]
        service.estimate_many("cardnet/hm", [record] * 10, np.linspace(0, 10, 10))
        stats = service.telemetry.endpoint("cardnet/hm")
        assert stats.batches == 1
        assert stats.max_batch_size == 1  # ten requests, one distinct record
        assert stats.cache_misses == 10 and stats.cache_hits == 0
        # Any later threshold for that record is answered from the cached curve.
        service.estimate_many("cardnet/hm", [record] * 10, np.linspace(0, 10, 10))
        assert service.telemetry.endpoint("cardnet/hm").cache_hits == 10

    def test_unregister_drops_cached_curves(self, trained_cardnet, binary_dataset):
        """Re-registering a name must never serve the old estimator's curves."""
        service = EstimationService()
        service.register("m", trained_cardnet)
        service.estimate("m", binary_dataset.records[0], 4.0)
        assert service.stats()["cache"]["size"] == 1
        service.unregister("m")
        assert "m" not in service.registry
        assert service.stats()["cache"]["size"] == 0

    def test_telemetry_snapshot(self, service, test_queries):
        records, thetas = test_queries
        service.estimate_many("cardnet/hm", records, thetas)
        report = service.stats()
        assert report["registered"] == ["cardnet/hm"]
        endpoint = report["endpoints"]["cardnet/hm"]
        assert endpoint["requests"] == len(records)
        assert 0.0 <= endpoint["hit_rate"] <= 1.0
        assert endpoint["latency_seconds"] > 0.0
        assert report["cache"]["size"] > 0


# --------------------------------------------------------------------------- #
# Cache invalidation on dataset updates
# --------------------------------------------------------------------------- #
class TestUpdateInvalidation:
    @pytest.fixture
    def fresh_setup(self, binary_dataset, binary_workload):
        """A private estimator/service pair — retraining here must not mutate
        the session-shared ``trained_cardnet`` fixture other tests rely on."""
        from repro.core import CardNetEstimator

        estimator = CardNetEstimator.for_dataset(
            binary_dataset, epochs=2, vae_pretrain_epochs=1, seed=9
        )
        estimator.fit(binary_workload.train[:60], binary_workload.validation[:20])
        service = EstimationService(cache_capacity=256)
        service.register("cardnet/hm", estimator, distance_name="hamming")
        return estimator, service

    def _manager(self, estimator, dataset, workload, service, **options):
        return IncrementalUpdateManager(
            estimator,
            default_selector("hamming", dataset.records),
            workload.train[:60],
            workload.validation[:20],
            service=service,
            service_endpoint="cardnet/hm",
            **options,
        )

    def test_service_requires_endpoint_name(self, trained_cardnet, binary_dataset, binary_workload):
        service = EstimationService()
        with pytest.raises(ValueError):
            IncrementalUpdateManager(
                trained_cardnet,
                default_selector("hamming", binary_dataset.records),
                binary_workload.train,
                binary_workload.validation,
                service=service,
            )

    def test_update_invalidates_cached_curves(
        self, fresh_setup, binary_dataset, binary_workload, test_queries
    ):
        estimator, service = fresh_setup
        records, thetas = test_queries
        service.estimate_many("cardnet/hm", records, thetas)
        cached_before = service.stats()["cache"]["size"]
        assert cached_before > 0
        manager = self._manager(estimator, binary_dataset, binary_workload, service)
        operations = generate_update_stream(
            binary_dataset, num_operations=1, records_per_operation=20, seed=3
        )
        manager.process(operations[0])
        # The stale curves were dropped (revalidation then refills the cache).
        assert service.cache.invalidations >= cached_before

    def test_post_update_answers_match_direct_estimation(
        self, fresh_setup, binary_dataset, binary_workload, test_queries
    ):
        estimator, service = fresh_setup
        records, thetas = test_queries
        before = service.estimate_many("cardnet/hm", records, thetas)
        manager = self._manager(
            estimator,
            binary_dataset,
            binary_workload,
            service,
            # Force the retrain path so the model parameters actually move.
            error_tolerance=-1.0,
            max_epochs_per_update=1,
        )
        operations = generate_update_stream(
            binary_dataset, num_operations=1, records_per_operation=30, seed=4
        )
        report = manager.process(operations[0])
        assert report.retrained
        served = service.estimate_many("cardnet/hm", records, thetas)
        direct = estimator.estimate_batch(records, np.asarray(thetas))
        assert served == pytest.approx(direct, abs=1e-9)
        assert not np.array_equal(served, before)  # the retrain actually moved it

    def test_revalidate_without_update(self, fresh_setup, binary_dataset, binary_workload):
        """Drift-triggered revalidation: no dataset change, labels refreshed,
        retrain only when forced or degraded."""
        estimator, service = fresh_setup
        manager = self._manager(
            estimator, binary_dataset, binary_workload, service, max_epochs_per_update=1
        )
        report = manager.revalidate()
        assert not report.retrained  # first call sets the baseline
        assert report.validation_msle_after == report.validation_msle_before
        forced = manager.revalidate(force_retrain=True)
        assert forced.retrained and forced.epochs_run >= 1
        # Post-retrain, served answers match the moved model bit-for-bit.
        records = [e.record for e in binary_workload.validation[:10]]
        thetas = [e.theta for e in binary_workload.validation[:10]]
        served = service.estimate_many("cardnet/hm", records, thetas)
        direct = estimator.estimate_batch(records, np.asarray(thetas))
        assert served == pytest.approx(direct, abs=1e-9)


# --------------------------------------------------------------------------- #
# Feedback-loop telemetry (observations + drift counters)
# --------------------------------------------------------------------------- #
class TestFeedbackTelemetry:
    def test_q_error_convention_matches_metric(self):
        from repro.metrics import mean_q_error
        from repro.serving import q_error

        pairs = [(10.0, 12.0), (3.0, 300.0), (0.0, 0.0), (7.0, 1.0)]
        telemetry_mean = np.mean([q_error(est, act) for est, act in pairs])
        metric_mean = mean_q_error([act for _, act in pairs], [est for est, _ in pairs])
        assert telemetry_mean == pytest.approx(metric_mean)

    def test_record_observation_accumulates(self):
        from repro.serving import ServingTelemetry

        telemetry = ServingTelemetry()
        telemetry.record_observation("e", estimated=10.0, actual=20.0)
        telemetry.record_observation("e", estimated=5.0, actual=5.0)
        stats = telemetry.endpoint("e")
        assert stats.observations == 2
        assert stats.mean_q_error == pytest.approx(1.5)
        assert stats.q_error_max == pytest.approx(2.0)
        assert telemetry.total.observations == 2
        snapshot = stats.snapshot()
        assert snapshot["mean_q_error"] == pytest.approx(1.5)
        assert snapshot["drift_events"] == 0

    def test_record_drift_counts(self):
        from repro.serving import ServingTelemetry

        telemetry = ServingTelemetry()
        telemetry.record_drift("e")
        telemetry.record_drift("e")
        assert telemetry.endpoint("e").drift_events == 2
        assert telemetry.total.drift_events == 2
