"""Tests for the §9.11 case studies on the one planning path.

The conjunctive study runs on ``repro.engine``'s ``QueryPlanner`` +
``QueryExecutor`` (a policy is the estimate source the planner is given);
the GPH study plans with ``GPHQueryProcessor.plan`` and executes with
``selector.verified_candidates`` under the plan's allocation, as the engine's
executor does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import KernelDensityEstimator, MeanEstimator
from repro.baselines.simple import ExactEstimator
from repro.core.interface import CardinalityEstimator
from repro.engine import QueryExecutor, QueryPlanner
from repro.optimizer import (
    DirectEstimates,
    ExactPartCardinalities,
    GPHQueryProcessor,
    MeanPartCardinalities,
    ModelPartCardinalities,
    generate_conjunctive_queries,
    plan_quality,
    relation_catalog,
)
from repro.selection import BallIndexEuclideanSelector, PigeonholeHammingSelector
from repro.workloads import QueryExample


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


def conjunction_oracle(catalog, query):
    """Reference answer: the intersection of each predicate's own index result."""
    return sorted(
        set.intersection(
            *(
                set(catalog.get(p.attribute).selector.query(p.record, p.theta))
                for p in query.predicates
            )
        )
    )


def run_policy(catalog, estimators, queries):
    """Plan a workload from a policy's estimators and execute every plan."""
    executor = QueryExecutor(catalog)
    plans = QueryPlanner(catalog, DirectEstimates(estimators)).plan_many(queries)
    return executor.execute(plans)


def exact_policy(relation):
    return {
        attribute: ExactEstimator(BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0))
        for attribute, matrix in relation.attributes.items()
    }


def mean_policy(relation):
    """A fitted query-independent Mean estimator per attribute."""
    policy = {}
    for attribute, matrix in relation.attributes.items():
        rng = np.random.default_rng(0)
        selector = BallIndexEuclideanSelector(matrix, num_pivots=8, seed=0)
        examples = []
        for _ in range(20):
            row = matrix[rng.integers(0, len(matrix))]
            theta = float(rng.uniform(0.2, 0.5))
            examples.append(QueryExample(row, theta, selector.cardinality(row, theta)))
        policy[attribute] = MeanEstimator(theta_max=1.0, num_buckets=16).fit(examples)
    return policy


def kde_policy(relation):
    return {
        attribute: KernelDensityEstimator(matrix, "euclidean", sample_size=60, seed=0)
        for attribute, matrix in relation.attributes.items()
    }


# --------------------------------------------------------------------------- #
# Conjunctive queries
# --------------------------------------------------------------------------- #
class TestConjunctive:
    @pytest.fixture(scope="class")
    def catalog(self, relation):
        return relation_catalog(relation, num_pivots=8, seed=0)

    @pytest.fixture(scope="class")
    def queries(self, relation):
        return generate_conjunctive_queries(relation, num_queries=8, seed=1)

    @pytest.fixture(scope="class")
    def exact_estimators(self, relation):
        return exact_policy(relation)

    def test_queries_have_all_attributes(self, relation, queries):
        for query in queries:
            assert set(query.attributes()) == set(relation.attribute_names)

    def test_answer_is_intersection(self, catalog, queries, exact_estimators):
        for result in run_policy(catalog, exact_estimators, queries[:2]):
            answer = set(result.record_ids)
            for predicate in result.plan.query.predicates:
                selector = catalog.get(predicate.attribute).selector
                assert answer <= set(selector.query(predicate.record, predicate.theta))

    def test_execute_returns_correct_results(self, relation, catalog, queries):
        """Whatever the estimate quality, the answer is the exact conjunction."""
        for policy in (exact_policy, mean_policy, kde_policy):
            results = run_policy(catalog, policy(relation), queries)
            for query, result in zip(queries, results):
                assert result.record_ids == conjunction_oracle(catalog, query), policy.__name__

    def test_exact_estimator_has_perfect_precision(self, catalog, queries, exact_estimators):
        report = plan_quality(catalog, run_policy(catalog, exact_estimators, queries))
        assert report.planning_precision == 1.0
        assert report.num_queries == len(queries)

    def test_better_estimator_fewer_candidates(self, relation, catalog, queries, exact_estimators):
        """The exact planner should examine no more candidates than a naive Mean planner."""
        exact_report = plan_quality(catalog, run_policy(catalog, exact_estimators, queries))
        mean_report = plan_quality(catalog, run_policy(catalog, mean_policy(relation), queries))
        assert exact_report.driver_candidates <= mean_report.driver_candidates

    def test_kde_planner_reasonable_precision(self, relation, catalog, queries):
        report = plan_quality(catalog, run_policy(catalog, kde_policy(relation), queries))
        assert 0.0 <= report.planning_precision <= 1.0
        assert report.estimation_seconds > 0.0
        assert report.processing_seconds > 0.0
        assert report.total_seconds == pytest.approx(
            report.estimation_seconds + report.processing_seconds
        )

    def test_workload_report_accumulates(self, catalog, queries, exact_estimators):
        results = run_policy(catalog, exact_estimators, queries[:3])
        report = plan_quality(catalog, results)
        assert report.num_queries == 3
        assert report.driver_candidates == sum(r.driver_candidates for r in results)
        assert report.driver_candidates >= sum(len(r.record_ids) for r in results)
        assert plan_quality(catalog, []).planning_precision == 0.0


# --------------------------------------------------------------------------- #
# GPH Hamming query processing
# --------------------------------------------------------------------------- #
def gph_policy(name, processor, records):
    if name == "exact":
        return ExactPartCardinalities(processor, records)
    if name == "mean":
        return MeanPartCardinalities(processor, records)
    return ModelPartCardinalities.histograms(processor, records, group_size=4)


def gph_candidates(processor, query, threshold, estimator):
    """(results, candidate count) of one query under the policy's allocation."""
    plan = processor.plan(query, threshold, estimator)
    return processor.selector.verified_candidates(query, threshold, allocation=plan.allocation)


def hamming_scan(records, query, threshold):
    return np.flatnonzero(np.count_nonzero(records != query[None, :], axis=1) <= threshold).tolist()


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
        estimator = ExactPartCardinalities(processor, records)
        query = records[0]
        for threshold in (4, 8, 12):
            allocation = processor.plan(query, threshold, estimator).allocation
            assert sum(allocation) >= processor.allocation_budget(threshold)

    @pytest.mark.parametrize("builder", ["exact", "mean", "histogram"])
    def test_results_are_exact_for_every_estimator(self, processor, records, builder):
        """Whatever the allocation quality, GPH must return the exact result set."""
        estimator = gph_policy(builder, processor, records)
        rng = np.random.default_rng(0)
        for _ in range(4):
            query = records[rng.integers(0, len(records))]
            threshold = int(rng.integers(2, 10))
            results, num_candidates = gph_candidates(processor, query, threshold, estimator)
            assert results == hamming_scan(records, query, threshold)
            assert num_candidates >= len(results)

    def test_exact_allocation_never_worse_than_mean(self, processor, records):
        """Cardinality-aware allocation should not produce more candidates than naive."""
        exact = ExactPartCardinalities(processor, records)
        naive = MeanPartCardinalities(processor, records)
        rng = np.random.default_rng(1)
        exact_total, naive_total = 0, 0
        for _ in range(5):
            query = records[rng.integers(0, len(records))]
            threshold = int(rng.integers(6, 12))
            exact_total += gph_candidates(processor, query, threshold, exact)[1]
            naive_total += gph_candidates(processor, query, threshold, naive)[1]
        assert exact_total <= naive_total

    def test_model_part_estimator_adapter(self, processor, records):
        class ConstantEstimator:
            def estimate_curve_many(self, records, thetas):
                return np.ones((len(records), len(thetas)))

        adapter = ModelPartCardinalities(processor, [ConstantEstimator()] * processor.num_parts)
        part_queries = [processor.part_query(records[0], p) for p in range(processor.num_parts)]
        curves = adapter.part_curves(part_queries, [2] * processor.num_parts)
        assert [curve.tolist() for curve in curves] == [[1.0, 1.0, 1.0]] * processor.num_parts

    def test_model_part_estimator_wrong_count(self, processor):
        with pytest.raises(ValueError):
            ModelPartCardinalities(processor, [])


@st.composite
def gph_cases(draw):
    part_size = draw(st.sampled_from([4, 8, 16]))
    # Up to three parts, the last possibly narrower than the others.
    dimension = draw(st.integers(part_size, 2 * part_size + part_size // 2))
    num_records = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Clustered rows, so thresholds below the dimension select non-trivially.
    centre = rng.integers(0, 2, size=dimension)
    flips = rng.random((num_records, dimension)) < draw(st.sampled_from([0.05, 0.3, 0.5]))
    records = (centre[None, :] ^ flips).astype(np.uint8)
    query = (centre ^ (rng.random(dimension) < 0.2)).astype(np.uint8)
    num_parts = -(-dimension // part_size)
    threshold = draw(st.integers(0, dimension + num_parts))
    return part_size, records, query, threshold


class TestGPHAllocationProperty:
    """The allocation is complete for every policy and every θ, including θ
    past the dimension where the pigeonhole budget exceeds the part widths
    (the removed per-part cap returned under-budget allocations there and
    dropped rows silently)."""

    @settings(max_examples=40, deadline=None)
    @given(case=gph_cases())
    def test_allocation_spends_the_budget_and_answers_exactly(self, case):
        part_size, records, query, threshold = case
        processor = GPHQueryProcessor(records, part_size=part_size)
        widths = [stop - start for start, stop in processor.selector.parts]
        truth = hamming_scan(records, query, threshold)
        for name in ("exact", "mean", "histogram"):
            plan = processor.plan(query, threshold, gph_policy(name, processor, records))
            assert all(0 <= t <= width for t, width in zip(plan.allocation, widths)), name
            assert sum(plan.allocation) >= min(
                processor.allocation_budget(threshold), sum(widths)
            ), name
            results, _ = processor.selector.verified_candidates(
                query, threshold, allocation=plan.allocation
            )
            assert results == truth, name

    @settings(max_examples=25, deadline=None)
    @given(case=gph_cases())
    def test_exact_part_curves_equal_a_column_scan(self, case):
        """Point-by-point reference for the oracle's whole-curve kernel."""
        part_size, records, query, threshold = case
        processor = GPHQueryProcessor(records, part_size=part_size)
        part_queries = [processor.part_query(query, p) for p in range(processor.num_parts)]
        limits = [
            min(stop - start, processor.allocation_budget(threshold))
            for start, stop in processor.selector.parts
        ]
        curves = ExactPartCardinalities(processor, records).part_curves(part_queries, limits)
        for (start, stop), bits, limit, curve in zip(
            processor.selector.parts, part_queries, limits, curves
        ):
            distances = np.count_nonzero(records[:, start:stop] != bits[None, :], axis=1)
            assert curve.tolist() == [
                float(np.count_nonzero(distances <= t)) for t in range(limit + 1)
            ]


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
        adapter = ModelPartCardinalities(processor, estimators)
        processor.plan(records[0], 8, adapter)
        for estimator in estimators:
            assert estimator.curve_calls == 1
            assert estimator.batch_calls == 0  # no per-threshold scalar calls

    def test_conjunctive_batch_planning_one_call_per_attribute(self, relation):
        catalog = relation_catalog(relation, num_pivots=8, seed=0)
        queries = generate_conjunctive_queries(relation, num_queries=6, seed=2)
        estimators = {
            attribute: CountingEstimator(
                KernelDensityEstimator(matrix, "euclidean", sample_size=40, seed=0)
            )
            for attribute, matrix in relation.attributes.items()
        }
        report = plan_quality(catalog, run_policy(catalog, estimators, queries))
        assert report.num_queries == len(queries)
        for estimator in estimators.values():
            assert estimator.batch_calls == 1  # whole workload in one batched call
            assert estimator.curve_calls == 0


# --------------------------------------------------------------------------- #
# Plan objects
# --------------------------------------------------------------------------- #
class TestPlanObjects:
    @pytest.fixture(scope="class")
    def planner(self, relation):
        catalog = relation_catalog(relation, num_pivots=8, seed=0)
        return QueryPlanner(catalog, DirectEstimates(exact_policy(relation)))

    @pytest.fixture(scope="class")
    def queries(self, relation):
        return generate_conjunctive_queries(relation, num_queries=6, seed=7)

    def test_plan_is_inspectable(self, planner, queries):
        plan = planner.plan(queries[0])
        assert plan.driver.attribute in queries[0].attributes()
        assert {p.attribute for p in plan.residuals} == set(queries[0].attributes()) - {
            plan.driver.attribute
        }
        # Residuals verify by ascending rank, per_row / (1 - estimate / n):
        # the µs each spends per row it discards.
        def rank(planned):
            selector = planner.catalog.get(planned.attribute).selector
            share = planned.estimated_cardinality / len(selector)
            per_row = selector.verify_cost(1.0) - selector.verify_cost(0.0)
            return per_row / (1.0 - share) if share < 1.0 else float("inf")

        ranks = [rank(p) for p in plan.residuals]
        assert ranks == sorted(ranks)
        assert plan.estimated_candidates == plan.driver.estimated_cardinality
        # The exact policy's estimate is the driver's true cardinality.
        selector = planner.catalog.get(plan.driver.attribute).selector
        assert plan.estimated_candidates == len(
            selector.query(plan.driver.predicate.record, plan.driver.theta)
        )

    def test_plan_workload_matches_per_query_plans(self, planner, queries):
        """Gathering a workload's estimates per endpoint scatters each back to
        its own query: a batch of N plans like N batches of one."""

        def shape(plan):
            return (
                plan.driver.attribute,
                plan.driver.estimated_cardinality,
                [(p.attribute, p.estimated_cardinality) for p in plan.residuals],
            )

        for query, plan in zip(queries, planner.plan_many(queries)):
            assert plan.query is query
            assert shape(plan) == shape(planner.plan(query))

    def test_gph_plan_carries_cost(self, binary_dataset):
        records = binary_dataset.records[:200]
        processor = GPHQueryProcessor(records, part_size=8)
        plan = processor.plan(records[0], 8, ExactPartCardinalities(processor, records))
        assert plan.threshold == 8
        assert sum(plan.allocation) >= processor.allocation_budget(8)
        assert plan.allocation_seconds >= 0.0
        # The oracle's DP cost is the sum of the per-part candidate counts,
        # an upper bound on the size of their union.
        assert np.isfinite(plan.estimated_candidates)
        assert plan.estimated_candidates >= processor.selector.candidate_count(
            records[0], plan.allocation
        )

    def test_injected_selector_is_reused(self, binary_dataset):
        selector = PigeonholeHammingSelector(binary_dataset.records[:100], part_size=8)
        processor = GPHQueryProcessor([], selector=selector)
        assert processor.selector is selector
        assert processor.part_size == 8
        assert processor.num_parts == len(selector.parts)
