"""Tests for the end-to-end query engine: spec, planning, execution, feedback.

Load-bearing invariants:

* engine results are bit-identical to :class:`LinearScanSelector` ground truth
  for every distance type, whatever the estimator quality or plan shape;
* planning is batched (one service call per endpoint per workload);
* the feedback monitor's online q-error equals the offline metric on the same
  workload, and drift past the threshold flushes caches and revalidates.
"""

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.core.interface import CardinalityEstimator
from repro.distances import get_distance
from repro.engine import (
    ConjunctiveQuery,
    FeedbackMonitor,
    SimilarityPredicate,
    SimilarityQueryEngine,
    as_query,
)
from repro.metrics import mean_q_error
from repro.selection import LinearScanSelector, PigeonholeHammingSelector
from repro.serving import EstimationService


class ConstantEstimator(CardinalityEstimator):
    """Deliberately wrong estimator (for drift tests)."""

    name = "Constant"
    monotonic = True

    def __init__(self, value: float = 1.0) -> None:
        self.value = float(value)

    def estimate_batch(self, records, thetas):
        return np.full(len(records), self.value)


class CountingEstimator(CardinalityEstimator):
    """Wrapper counting curve-batch calls reaching the model."""

    name = "Counting"
    monotonic = True

    def __init__(self, inner: CardinalityEstimator) -> None:
        self.inner = inner
        self.curve_calls = 0

    def estimate_batch(self, records, thetas):
        return self.inner.estimate_batch(records, thetas)

    def estimate_curve_many(self, records, thetas=None):
        self.curve_calls += 1
        return self.inner.estimate_curve_many(records, thetas)


class RecordingManager:
    """Stub with the revalidate() contract the feedback monitor drives."""

    def __init__(self) -> None:
        self.calls = 0

    def revalidate(self):
        self.calls += 1
        return None


def sampling_engine(dataset, **engine_kwargs) -> SimilarityQueryEngine:
    engine = SimilarityQueryEngine(**engine_kwargs)
    estimator = UniformSamplingEstimator(
        dataset.records, dataset.distance_name, sample_ratio=0.2, seed=0
    )
    engine.register_attribute(
        dataset.name,
        dataset.records,
        dataset.distance_name,
        estimator,
        theta_max=dataset.theta_max,
    )
    return engine


def query_thetas(dataset):
    if get_distance(dataset.distance_name).integer_valued:
        top = int(dataset.theta_max)
        return [1.0, float(max(1, top // 2)), float(top)]
    return [dataset.theta_max * 0.25, dataset.theta_max * 0.6, dataset.theta_max]


# --------------------------------------------------------------------------- #
# Query spec
# --------------------------------------------------------------------------- #
class TestSpec:
    def test_negative_theta_rejected(self):
        for theta in (-1.0, float("nan")):  # NaN orders against nothing: also refused
            with pytest.raises(ValueError):
                SimilarityPredicate("a", "abc", theta)

    def test_empty_conjunction_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery(
                [SimilarityPredicate("a", "x", 1.0), SimilarityPredicate("a", "y", 2.0)]
            )

    def test_as_query_wraps_predicates(self):
        predicate = SimilarityPredicate("a", "x", 1.0)
        query = as_query(predicate)
        assert query.predicates == [predicate]
        assert as_query(query) is query
        with pytest.raises(TypeError):
            as_query("not a query")


# --------------------------------------------------------------------------- #
# The engine invariant: exact results for every distance type
# --------------------------------------------------------------------------- #
class TestMatchesLinearScan:
    @pytest.fixture(
        params=["binary_dataset", "string_dataset", "set_dataset", "vector_dataset"]
    )
    def dataset(self, request):
        return request.getfixturevalue(request.param)

    def test_single_predicate_matches_ground_truth(self, dataset):
        engine = sampling_engine(dataset)
        ground_truth = LinearScanSelector(
            dataset.records, get_distance(dataset.distance_name)
        )
        rng = np.random.default_rng(11)
        for record_id in rng.choice(len(dataset.records), size=8, replace=False):
            record = dataset.records[int(record_id)]
            for theta in query_thetas(dataset):
                result = engine.execute(SimilarityPredicate(dataset.name, record, theta))
                assert result.record_ids == ground_truth.query(record, theta)

    def test_execute_many_matches_one_by_one(self, dataset):
        engine = sampling_engine(dataset)
        rng = np.random.default_rng(13)
        queries = [
            SimilarityPredicate(
                dataset.name,
                dataset.records[int(record_id)],
                query_thetas(dataset)[1],
            )
            for record_id in rng.choice(len(dataset.records), size=6, replace=False)
        ]
        bulk = engine.execute_many(queries)
        singles = [sampling_engine(dataset).execute(query) for query in queries]
        assert [r.record_ids for r in bulk] == [r.record_ids for r in singles]


class TestGPHHammingDriver:
    def test_gph_planned_results_are_exact(self, binary_dataset):
        engine = SimilarityQueryEngine()
        estimator = UniformSamplingEstimator(
            binary_dataset.records, "hamming", sample_ratio=0.2, seed=0
        )
        engine.register_attribute(
            "hm",
            binary_dataset.records,
            "hamming",
            estimator,
            selector=PigeonholeHammingSelector(binary_dataset.records, part_size=8),
            theta_max=binary_dataset.theta_max,
        )
        ground_truth = LinearScanSelector(binary_dataset.records, get_distance("hamming"))
        rng = np.random.default_rng(5)
        for record_id in rng.choice(len(binary_dataset.records), size=6, replace=False):
            record = binary_dataset.records[int(record_id)]
            threshold = float(rng.integers(2, int(binary_dataset.theta_max)))
            plan = engine.explain(SimilarityPredicate("hm", record, threshold))
            assert plan.allocation is not None
            assert sum(plan.allocation) >= max(0, int(threshold) - len(plan.allocation) + 1)
            result = engine.execute(SimilarityPredicate("hm", record, threshold))
            assert result.record_ids == ground_truth.query(record, threshold)
            assert result.driver_candidates >= result.driver_actual

    def test_part_endpoints_registered(self, binary_dataset):
        engine = SimilarityQueryEngine()
        estimator = UniformSamplingEstimator(
            binary_dataset.records, "hamming", sample_ratio=0.2, seed=0
        )
        binding = engine.register_attribute(
            "hm", binary_dataset.records, "hamming", estimator,
            selector=PigeonholeHammingSelector(binary_dataset.records, part_size=8),
            theta_max=binary_dataset.theta_max,
        )
        assert binding.uses_gph
        assert len(binding.part_endpoints) == len(binding.selector.parts)
        for endpoint in binding.part_endpoints:
            assert endpoint in engine.service.registry


# --------------------------------------------------------------------------- #
# Conjunctive execution
# --------------------------------------------------------------------------- #
class TestConjunctive:
    @pytest.fixture()
    def engine(self, relation):
        engine = SimilarityQueryEngine()
        for attribute, matrix in relation.attributes.items():
            engine.register_attribute(
                attribute,
                matrix,
                "euclidean",
                UniformSamplingEstimator(matrix, "euclidean", sample_ratio=0.3, seed=0),
                theta_max=1.0,
            )
        return engine

    @pytest.fixture()
    def queries(self, relation):
        rng = np.random.default_rng(3)
        queries = []
        for _ in range(6):
            record_id = int(rng.integers(0, len(relation)))
            predicates = [
                SimilarityPredicate(
                    attribute,
                    relation.attributes[attribute][record_id]
                    + rng.normal(0.0, 0.05, relation.attributes[attribute].shape[1]),
                    float(rng.uniform(0.3, 0.6)),
                )
                for attribute in relation.attribute_names
            ]
            queries.append(ConjunctiveQuery(predicates))
        return queries

    def test_results_equal_predicate_intersection(self, relation, engine, queries):
        scans = {
            attribute: LinearScanSelector(matrix, get_distance("euclidean"))
            for attribute, matrix in relation.attributes.items()
        }
        for query in queries:
            truth = None
            for predicate in query.predicates:
                matches = set(scans[predicate.attribute].query(predicate.record, predicate.theta))
                truth = matches if truth is None else truth & matches
            assert engine.execute(query).record_ids == sorted(truth)

    def test_plan_orders_by_estimate(self, engine, queries):
        for query in queries:
            plan = engine.explain(query)
            estimates = [plan.driver.estimated_cardinality] + [
                planned.estimated_cardinality for planned in plan.residuals
            ]
            assert plan.driver.estimated_cardinality == min(estimates)
            residual_estimates = estimates[1:]
            assert residual_estimates == sorted(residual_estimates)
            assert "drive" in plan.describe()

    def test_bulk_planning_one_batch_per_endpoint(self, relation, queries):
        engine = SimilarityQueryEngine()
        counters = {}
        for attribute, matrix in relation.attributes.items():
            counters[attribute] = CountingEstimator(
                UniformSamplingEstimator(matrix, "euclidean", sample_ratio=0.3, seed=0)
            )
            engine.register_attribute(
                attribute, matrix, "euclidean", counters[attribute], theta_max=1.0
            )
        engine.execute_many(queries)
        for counter in counters.values():
            # Distinct records across the workload reach the model as ONE
            # curve micro-batch through the serving layer.
            assert counter.curve_calls == 1

    def test_tied_estimates_break_by_each_querys_predicate_order(self, relation, queries):
        """Constant estimates tie every predicate: the driver is each query's
        own first predicate, in a batched workload and per query alike."""
        engine = SimilarityQueryEngine()
        for attribute, matrix in relation.attributes.items():
            engine.register_attribute(
                attribute, matrix, "euclidean", ConstantEstimator(7.0), theta_max=1.0
            )
        # Reverse one query's predicates so the order differs within the batch.
        queries[1] = ConjunctiveQuery(list(reversed(queries[1].predicates)))
        batched = engine.planner.plan_many(queries)
        for query, plan in zip(queries, batched):
            single = engine.planner.plan(query)
            assert plan.driver.predicate is query.predicates[0] is single.driver.predicate
            assert [p.predicate for p in plan.residuals] == query.predicates[1:]
            assert [p.predicate for p in single.residuals] == query.predicates[1:]

    def test_unknown_attribute_fails_fast(self, engine):
        with pytest.raises(KeyError):
            engine.execute(SimilarityPredicate("nope", np.zeros(12), 0.3))


# --------------------------------------------------------------------------- #
# Feedback loop
# --------------------------------------------------------------------------- #
class TestFeedback:
    def test_online_q_error_matches_offline_metric(self, vector_dataset):
        engine = sampling_engine(vector_dataset)
        rng = np.random.default_rng(7)
        queries = [
            SimilarityPredicate(
                vector_dataset.name,
                vector_dataset.records[int(record_id)],
                float(rng.uniform(0.2, vector_dataset.theta_max)),
            )
            for record_id in rng.choice(len(vector_dataset.records), size=12, replace=False)
        ]
        results = engine.execute_many(queries)
        estimates = [result.plan.driver.estimated_cardinality for result in results]
        actuals = [result.driver_actual for result in results]
        assert engine.feedback.online_q_error(vector_dataset.name) == pytest.approx(
            mean_q_error(actuals, estimates)
        )
        stats = engine.stats()["service"]["endpoints"][vector_dataset.name]
        assert stats["observations"] == len(queries)
        assert stats["mean_q_error"] == pytest.approx(mean_q_error(actuals, estimates))

    def test_drift_triggers_invalidation_and_revalidation(self, vector_dataset):
        engine = sampling_engine(
            vector_dataset, drift_threshold=1.5, min_feedback_observations=4
        )
        name = vector_dataset.name
        # Replace the endpoint's estimator with a wildly wrong one: cached
        # curves exist from registration time onward and estimates drift.
        engine.service.unregister(name)
        engine.service.register(
            name, ConstantEstimator(10_000.0), theta_max=vector_dataset.theta_max
        )
        manager = RecordingManager()
        engine.feedback.attach_manager(name, manager)
        rng = np.random.default_rng(9)
        queries = [
            SimilarityPredicate(
                name,
                vector_dataset.records[int(record_id)],
                vector_dataset.theta_max * 0.5,
            )
            for record_id in rng.choice(len(vector_dataset.records), size=8, replace=False)
        ]
        engine.execute_many(queries)
        assert engine.feedback.events, "drift should have fired"
        event = engine.feedback.events[0]
        assert event.endpoint == name
        assert event.window_q_error > 1.5
        assert event.curves_invalidated > 0
        assert manager.calls == len(engine.feedback.events)
        assert engine.service.telemetry.endpoint(name).drift_events == len(
            engine.feedback.events
        )
        # The window resets after a repair, so one burst fires one event
        # per min_observations more, not one per query.
        assert len(engine.feedback.events) <= len(queries) // 4

    def test_monitor_validates_configuration(self):
        service = EstimationService()
        with pytest.raises(ValueError):
            FeedbackMonitor(service, drift_threshold=0.5)
        monitor = FeedbackMonitor(service)
        with pytest.raises(TypeError):
            monitor.attach_manager("x", object())

    def test_monitor_rejects_unreachable_min_observations(self):
        """min_observations > window_size can never be met (the deque caps at
        window_size), so drift would silently never fire — reject loudly
        instead of clamping (regression)."""
        service = EstimationService()
        with pytest.raises(ValueError):
            FeedbackMonitor(service, window_size=8, min_observations=9)
        # The boundary configuration is legal and fires.
        service.register("e", ConstantEstimator(1.0), theta_max=4.0)
        monitor = FeedbackMonitor(
            service, drift_threshold=2.0, window_size=4, min_observations=4
        )
        event = None
        for _ in range(4):
            event = monitor.observe("e", estimated=1.0, actual=1000.0)
        assert event is not None


# --------------------------------------------------------------------------- #
# Updates through the engine
# --------------------------------------------------------------------------- #
class TestUpdates:
    def test_update_without_manager_keeps_results_exact(self, vector_dataset):
        from repro.datasets.updates import UpdateOperation

        engine = sampling_engine(vector_dataset)
        name = vector_dataset.name
        rng = np.random.default_rng(4)
        new_records = [
            vector_dataset.records[int(i)] * 0.9
            for i in rng.integers(0, len(vector_dataset.records), size=5)
        ]
        engine.apply_update(name, UpdateOperation("insert", new_records))
        updated = engine.catalog.get(name).records
        assert len(updated) == len(vector_dataset.records) + 5
        ground_truth = LinearScanSelector(updated, get_distance("euclidean"))
        record = updated[0]
        result = engine.execute(SimilarityPredicate(name, record, 0.4))
        assert result.record_ids == ground_truth.query(record, 0.4)

    def test_update_rebuilds_gph_part_endpoints(self, binary_dataset):
        from repro.datasets.updates import UpdateOperation

        engine = SimilarityQueryEngine()
        estimator = UniformSamplingEstimator(
            binary_dataset.records, "hamming", sample_ratio=0.2, seed=0
        )
        binding = engine.register_attribute(
            "hm", binary_dataset.records, "hamming", estimator,
            selector=PigeonholeHammingSelector(binary_dataset.records, part_size=8),
            theta_max=binary_dataset.theta_max,
        )
        before = list(binding.part_endpoints)
        engine.apply_update("hm", UpdateOperation("delete", [0, 1, 2]))
        assert len(binding.records) == len(binary_dataset.records) - 3
        assert binding.part_endpoints == before  # same endpoints, kept by the delta
        ground_truth = LinearScanSelector(binding.records, get_distance("hamming"))
        record = binding.records[0]
        result = engine.execute(SimilarityPredicate("hm", record, 5.0))
        assert result.record_ids == ground_truth.query(record, 5.0)
