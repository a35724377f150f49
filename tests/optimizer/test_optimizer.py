"""Unit tests for the query-optimizer case studies (conjunctive + GPH)."""

import numpy as np
import pytest

from repro.baselines import KernelDensityEstimator, MeanEstimator
from repro.core.interface import CardinalityEstimator
from repro.optimizer import (
    ConjunctiveQuery,
    ConjunctiveQueryProcessor,
    GPHQueryProcessor,
    Predicate,
    exact_part_estimator,
    generate_conjunctive_queries,
    histogram_part_estimator,
    mean_part_estimator,
    model_part_estimator,
    run_conjunctive_workload,
)
from repro.baselines.simple import ExactEstimator
from repro.selection import BallIndexEuclideanSelector


class CountingEstimator(CardinalityEstimator):
    """Wrapper counting how the optimizers call into an estimator."""

    name = "Counting"
    monotonic = True

    def __init__(self, inner: CardinalityEstimator) -> None:
        self.inner = inner
        self.batch_calls = 0
        self.curve_calls = 0

    def estimate_batch(self, records, thetas):
        self.batch_calls += 1
        return self.inner.estimate_batch(records, thetas)

    def estimate_curve_many(self, records, thetas=None):
        self.curve_calls += 1
        return self.inner.estimate_curve_many(records, thetas)


# --------------------------------------------------------------------------- #
# Conjunctive queries
# --------------------------------------------------------------------------- #
class TestConjunctive:
    @pytest.fixture(scope="class")
    def processor(self, relation):
        return ConjunctiveQueryProcessor(relation, num_pivots=8, seed=0)

    @pytest.fixture(scope="class")
    def queries(self, relation):
        return generate_conjunctive_queries(relation, num_queries=8, seed=1)

    @pytest.fixture(scope="class")
    def exact_estimators(self, relation):
        return {
            attribute: ExactEstimator(BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0))
            for attribute, matrix in relation.attributes.items()
        }

    def test_queries_have_all_attributes(self, relation, queries):
        for query in queries:
            assert set(query.attributes()) == set(relation.attribute_names)

    def test_answer_is_intersection(self, processor, queries):
        query = queries[0]
        answer = set(processor.answer(query))
        for predicate in query.predicates:
            assert answer <= set(processor.predicate_matches(predicate))

    def test_execute_returns_correct_results(self, processor, queries, exact_estimators):
        for query in queries[:4]:
            execution = processor.execute(query, exact_estimators)
            assert sorted(execution.result_ids) == processor.answer(query)

    def test_exact_estimator_has_perfect_precision(self, processor, queries, exact_estimators):
        report = run_conjunctive_workload(processor, queries, exact_estimators)
        assert report.planning_precision == 1.0
        assert report.num_queries == len(queries)

    def test_better_estimator_fewer_candidates(self, relation, processor, queries, exact_estimators):
        """The exact planner should examine no more candidates than a naive Mean planner."""
        mean_estimators = {}
        for attribute, matrix in relation.attributes.items():
            estimator = MeanEstimator(theta_max=1.0, num_buckets=16)
            # Fit on a few random predicate cardinalities for this attribute.
            from repro.workloads import QueryExample

            rng = np.random.default_rng(0)
            examples = []
            selector = BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0)
            for _ in range(20):
                row = matrix[rng.integers(0, len(matrix))]
                theta = float(rng.uniform(0.2, 0.5))
                examples.append(QueryExample(row, theta, selector.cardinality(row, theta)))
            mean_estimators[attribute] = estimator.fit(examples)
        exact_report = run_conjunctive_workload(processor, queries, exact_estimators)
        mean_report = run_conjunctive_workload(processor, queries, mean_estimators)
        assert exact_report.total_candidates <= mean_report.total_candidates

    def test_kde_planner_reasonable_precision(self, relation, processor, queries):
        estimators = {
            attribute: KernelDensityEstimator(matrix, "euclidean", sample_size=60, seed=0)
            for attribute, matrix in relation.attributes.items()
        }
        report = run_conjunctive_workload(processor, queries, estimators)
        assert 0.0 <= report.planning_precision <= 1.0
        assert report.total_seconds > 0.0

    def test_workload_report_accumulates(self, processor, queries, exact_estimators):
        report = run_conjunctive_workload(processor, queries[:3], exact_estimators)
        assert len(report.executions) == 3
        assert report.total_candidates >= sum(len(e.result_ids) for e in report.executions)


# --------------------------------------------------------------------------- #
# GPH Hamming query processing
# --------------------------------------------------------------------------- #
class TestGPH:
    @pytest.fixture(scope="class")
    def records(self, binary_dataset):
        return binary_dataset.records[:200]

    @pytest.fixture(scope="class")
    def processor(self, records):
        return GPHQueryProcessor(records, part_size=8)

    def test_num_parts(self, processor, records):
        assert processor.num_parts == records.shape[1] // 8

    def test_allocation_budget(self, processor):
        assert processor.allocation_budget(10) == 10 - processor.num_parts + 1
        assert processor.allocation_budget(0) == 0

    def test_allocation_satisfies_pigeonhole(self, processor, records):
        estimator = exact_part_estimator(processor, records)
        query = records[0]
        for threshold in (4, 8, 12):
            allocation = processor.allocate(query, threshold, estimator)
            assert sum(allocation) >= processor.allocation_budget(threshold)

    @pytest.mark.parametrize("builder", ["exact", "mean", "histogram"])
    def test_results_are_exact_for_every_estimator(self, processor, records, builder):
        """Whatever the allocation quality, GPH must return the exact result set."""
        if builder == "exact":
            estimator = exact_part_estimator(processor, records)
        elif builder == "mean":
            estimator = mean_part_estimator(processor, records)
        else:
            estimator = histogram_part_estimator(processor, records, group_size=4)
        rng = np.random.default_rng(0)
        for _ in range(4):
            query = records[rng.integers(0, len(records))]
            threshold = int(rng.integers(2, 10))
            execution = processor.execute(query, threshold, estimator)
            truth = int(
                np.count_nonzero(np.count_nonzero(records != query[None, :], axis=1) <= threshold)
            )
            assert execution.num_results == truth
            assert execution.num_candidates >= execution.num_results

    def test_exact_allocation_never_worse_than_mean(self, processor, records):
        """Cardinality-aware allocation should not produce more candidates than naive."""
        exact = exact_part_estimator(processor, records)
        naive = mean_part_estimator(processor, records)
        rng = np.random.default_rng(1)
        exact_total, naive_total = 0, 0
        for _ in range(5):
            query = records[rng.integers(0, len(records))]
            threshold = int(rng.integers(6, 12))
            exact_total += processor.execute(query, threshold, exact).num_candidates
            naive_total += processor.execute(query, threshold, naive).num_candidates
        assert exact_total <= naive_total

    def test_model_part_estimator_adapter(self, processor, records):
        class ConstantEstimator:
            def estimate(self, record, theta):
                return 1.0

        adapter = model_part_estimator(processor, [ConstantEstimator()] * processor.num_parts)
        assert adapter(0, records[0][:8], 2) == 1.0

    def test_model_part_estimator_wrong_count(self, processor):
        with pytest.raises(ValueError):
            model_part_estimator(processor, [])

    def test_execution_timing_fields(self, processor, records):
        estimator = exact_part_estimator(processor, records)
        execution = processor.execute(records[0], 6, estimator)
        assert execution.allocation_seconds >= 0.0
        assert execution.processing_seconds >= 0.0
        assert execution.total_seconds == pytest.approx(
            execution.allocation_seconds + execution.processing_seconds
        )


# --------------------------------------------------------------------------- #
# Curve-batched estimation call counts (the batch-first rewiring contract)
# --------------------------------------------------------------------------- #
class TestCurveBatchedCalls:
    @pytest.fixture(scope="class")
    def records(self, binary_dataset):
        return binary_dataset.records[:200]

    @pytest.fixture(scope="class")
    def processor(self, records):
        return GPHQueryProcessor(records, part_size=8)

    def _part_mean_estimators(self, processor, records):
        """One fitted MeanEstimator per part, wrapped with call counters."""
        from repro.workloads import QueryExample

        estimators = []
        for start, stop in processor.selector.parts:
            width = stop - start
            inner = MeanEstimator(theta_max=float(width), num_buckets=width + 1)
            columns = records[:, start:stop]
            examples = [
                QueryExample(
                    columns[0],
                    float(t),
                    int(
                        np.count_nonzero(
                            np.count_nonzero(columns != columns[0][None, :], axis=1) <= t
                        )
                    ),
                )
                for t in range(width + 1)
            ]
            estimators.append(CountingEstimator(inner.fit(examples)))
        return estimators

    def test_gph_allocation_issues_one_curve_call_per_part(self, processor, records):
        estimators = self._part_mean_estimators(processor, records)
        adapter = model_part_estimator(processor, estimators)
        processor.allocate(records[0], 8, adapter)
        for estimator in estimators:
            assert estimator.curve_calls == 1
            assert estimator.batch_calls == 0  # no per-threshold scalar calls

    def test_gph_legacy_callable_still_supported(self, processor, records):
        calls = []

        def legacy(part_index, part_bits, threshold):
            calls.append((part_index, threshold))
            return 1.0

        allocation = processor.allocate(records[0], 8, legacy)
        assert sum(allocation) >= processor.allocation_budget(8)
        assert calls  # the scalar fallback fetched the curves point by point

    def test_gph_curve_path_allocates_like_scalar_path(self, processor, records):
        """Curve-batched and scalar-loop estimation must yield identical plans."""
        exact = exact_part_estimator(processor, records)

        def scalar_view(part_index, part_bits, threshold):
            return exact(part_index, part_bits, threshold)

        rng = np.random.default_rng(5)
        for _ in range(4):
            query = records[rng.integers(0, len(records))]
            threshold = int(rng.integers(4, 12))
            assert processor.allocate(query, threshold, exact) == processor.allocate(
                query, threshold, scalar_view
            )

    def test_conjunctive_batch_planning_one_call_per_attribute(self, relation):
        processor = ConjunctiveQueryProcessor(relation, num_pivots=8, seed=0)
        queries = generate_conjunctive_queries(relation, num_queries=6, seed=2)
        estimators = {
            attribute: CountingEstimator(
                KernelDensityEstimator(matrix, "euclidean", sample_size=40, seed=0)
            )
            for attribute, matrix in relation.attributes.items()
        }
        report = run_conjunctive_workload(processor, queries, estimators)
        assert report.num_queries == len(queries)
        for estimator in estimators.values():
            assert estimator.batch_calls == 1  # whole workload in one batched call
            assert estimator.curve_calls == 0

    def test_conjunctive_tie_break_matches_per_query_planning(self, relation):
        """Tied estimates must break by each query's own predicate order in
        workload-batched and per-query planning alike (the argmin tie-break
        is insertion order)."""

        class ConstantEstimator(CardinalityEstimator):
            monotonic = True

            def estimate_batch(self, records, thetas):
                return np.full(len(records), 7.0)

        processor = ConjunctiveQueryProcessor(relation, num_pivots=8, seed=0)
        queries = generate_conjunctive_queries(relation, num_queries=4, seed=4)
        # Reverse one query's predicate order so insertion order differs per query.
        queries[1] = ConjunctiveQuery(predicates=list(reversed(queries[1].predicates)))
        estimators = {attribute: ConstantEstimator() for attribute in relation.attribute_names}
        batched = processor.plan_workload(queries, estimators)
        single = [processor.plan(query, estimators) for query in queries]
        assert [p.chosen_attribute for p in batched] == [p.chosen_attribute for p in single]
        assert [p.verify_order for p in batched] == [p.verify_order for p in single]
        # And the tie-break follows each query's first predicate.
        assert batched[1].chosen_attribute == queries[1].predicates[0].attribute

    def test_conjunctive_batch_planning_same_plans_as_per_query(self, relation):
        processor = ConjunctiveQueryProcessor(relation, num_pivots=8, seed=0)
        queries = generate_conjunctive_queries(relation, num_queries=6, seed=3)
        estimators = {
            attribute: ExactEstimator(
                BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0)
            )
            for attribute, matrix in relation.attributes.items()
        }
        batched = processor.plan_workload(queries, estimators)
        single = [processor.plan(query, estimators) for query in queries]
        assert [p.estimates for p in batched] == [p.estimates for p in single]
        assert [p.chosen_attribute for p in batched] == [p.chosen_attribute for p in single]
        assert [p.verify_order for p in batched] == [p.verify_order for p in single]
        # Same plans, same executions: the workload runner adds nothing else.
        report = run_conjunctive_workload(processor, queries, estimators)
        inline = [processor.execute(query, estimators) for query in queries]
        assert [e.result_ids for e in report.executions] == [e.result_ids for e in inline]
        assert report.total_candidates == sum(e.candidates_examined for e in inline)


# --------------------------------------------------------------------------- #
# Plan objects (the engine consumes these; execute == plan + execute_plan)
# --------------------------------------------------------------------------- #
class TestPlanObjects:
    @pytest.fixture(scope="class")
    def processor(self, relation):
        return ConjunctiveQueryProcessor(relation, num_pivots=8, seed=0)

    @pytest.fixture(scope="class")
    def queries(self, relation):
        return generate_conjunctive_queries(relation, num_queries=6, seed=7)

    @pytest.fixture(scope="class")
    def estimators(self, relation):
        return {
            attribute: ExactEstimator(BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0))
            for attribute, matrix in relation.attributes.items()
        }

    def test_plan_is_inspectable(self, processor, queries, estimators):
        plan = processor.plan(queries[0], estimators)
        assert plan.chosen_attribute in queries[0].attributes()
        assert set(plan.verify_order) == set(queries[0].attributes()) - {plan.chosen_attribute}
        # Residuals verify in ascending-estimate order.
        residual_estimates = [plan.estimates[a] for a in plan.verify_order]
        assert residual_estimates == sorted(residual_estimates)
        assert plan.estimated_candidates == plan.estimates[plan.chosen_attribute]

    def test_execute_plan_equals_execute(self, processor, queries, estimators):
        for query in queries:
            planned = processor.execute_plan(processor.plan(query, estimators))
            inline = processor.execute(query, estimators)
            assert planned.chosen_attribute == inline.chosen_attribute
            assert planned.result_ids == inline.result_ids
            assert planned.candidates_examined == inline.candidates_examined

    def test_plan_workload_matches_per_query_plans(self, processor, queries, estimators):
        workload_plans = processor.plan_workload(queries, estimators)
        for query, plan in zip(queries, workload_plans):
            single = processor.plan(query, estimators)
            assert plan.chosen_attribute == single.chosen_attribute
            assert plan.verify_order == single.verify_order
            assert plan.estimates == single.estimates

    def test_gph_plan_carries_cost(self, binary_dataset):
        records = binary_dataset.records[:200]
        processor = GPHQueryProcessor(records, part_size=8)
        estimator = exact_part_estimator(processor, records)
        plan = processor.plan(records[0], 8, estimator)
        assert sum(plan.allocation) >= processor.allocation_budget(8)
        assert plan.estimated_candidates >= 0.0
        assert plan.allocation_seconds >= 0.0
        # Executing a precomputed plan skips re-allocation and matches.
        execution = processor.execute(records[0], 8, plan=plan)
        direct = processor.execute(records[0], 8, estimator)
        assert execution.allocation == direct.allocation
        assert execution.num_results == direct.num_results
        # The exact oracle's DP cost equals the candidate upper bound shape:
        # estimated >= actual results is not guaranteed, but both are finite.
        assert np.isfinite(plan.estimated_candidates)

    def test_execute_requires_estimator_or_plan(self, binary_dataset):
        processor = GPHQueryProcessor(binary_dataset.records[:50], part_size=8)
        with pytest.raises(ValueError):
            processor.execute(binary_dataset.records[0], 4)

    def test_injected_selector_is_reused(self, binary_dataset):
        from repro.selection import PigeonholeHammingSelector

        selector = PigeonholeHammingSelector(binary_dataset.records[:100], part_size=8)
        processor = GPHQueryProcessor([], selector=selector)
        assert processor.selector is selector
        assert processor.part_size == 8
        assert processor.num_parts == len(selector.parts)
