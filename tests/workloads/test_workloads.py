"""Unit tests for workload construction, labelling, and out-of-dataset queries."""

import numpy as np
import pytest

from repro.distances import get_distance
from repro.selection import LinearScanSelector, default_selector
from repro.workloads import (
    QueryExample,
    Workload,
    build_workload,
    generate_out_of_dataset_queries,
    k_medoids,
    label_queries,
    relabel,
    sample_query_indexes,
    sample_thresholds,
)


class TestThresholdSampling:
    def test_integer_valued_thresholds_are_integers(self, rng):
        thresholds = sample_thresholds(10, 5, integer_valued=True, rng=rng)
        assert np.allclose(thresholds, np.round(thresholds))

    def test_integer_valued_all_when_enough(self, rng):
        thresholds = sample_thresholds(4, 10, integer_valued=True, rng=rng)
        assert np.array_equal(thresholds, [0, 1, 2, 3, 4])

    def test_real_valued_in_range(self, rng):
        thresholds = sample_thresholds(0.4, 6, integer_valued=False, rng=rng)
        assert np.all(thresholds >= 0.0) and np.all(thresholds <= 0.4)
        assert np.array_equal(thresholds, np.sort(thresholds))

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            sample_thresholds(4, 0, integer_valued=True, rng=rng)


class TestQuerySampling:
    def test_single_uniform_size(self, binary_dataset, rng):
        picks = sample_query_indexes(binary_dataset, 30, "single_uniform", rng)
        assert len(picks) == 30
        assert len(set(picks.tolist())) == 30

    def test_multi_uniform_bounded(self, binary_dataset, rng):
        picks = sample_query_indexes(binary_dataset, 30, "multi_uniform", rng)
        assert 0 < len(picks) <= 30

    def test_skewed_overrepresents_small_clusters(self, binary_dataset, rng):
        picks = sample_query_indexes(binary_dataset, 60, "skewed", rng)
        labels = binary_dataset.cluster_labels[picks]
        # Under skewed sampling every cluster should be hit despite size skew.
        assert len(np.unique(labels)) == binary_dataset.num_clusters

    def test_unknown_policy(self, binary_dataset, rng):
        with pytest.raises(KeyError):
            sample_query_indexes(binary_dataset, 10, "stratified", rng)


class TestLabeling:
    def test_labels_match_exact_counts(self, binary_dataset):
        selector = default_selector("hamming", binary_dataset.records)
        scan = LinearScanSelector(binary_dataset.records, get_distance("hamming"))
        queries = [binary_dataset.records[0], binary_dataset.records[5]]
        examples = label_queries(queries, [0, 4, 8], selector)
        assert len(examples) == 6
        for example in examples:
            assert example.cardinality == scan.cardinality(example.record, example.theta)

    def test_relabel_after_shrinking_dataset(self, binary_dataset):
        selector = default_selector("hamming", binary_dataset.records)
        examples = label_queries([binary_dataset.records[0]], [8], selector)
        smaller = default_selector("hamming", binary_dataset.records[:50])
        relabelled = relabel(examples, smaller)
        assert relabelled[0].cardinality <= examples[0].cardinality


class TestBuildWorkload:
    def test_split_sizes(self, binary_workload):
        summary = binary_workload.summary()
        assert summary["train"] > summary["validation"]
        assert summary["train"] > summary["test"]
        assert len(binary_workload) == sum(summary.values())

    def test_cardinalities_positive(self, binary_workload):
        # Every query is a dataset record, so it always matches itself.
        assert all(example.cardinality >= 1 for example in binary_workload.train)

    def test_cardinality_monotone_per_query(self, binary_workload):
        """For one query record, cardinality must not decrease with the threshold."""
        by_record = {}
        for example in binary_workload.train:
            by_record.setdefault(example.record.tobytes(), []).append(example)
        for examples in by_record.values():
            examples.sort(key=lambda e: e.theta)
            cardinalities = [e.cardinality for e in examples]
            assert cardinalities == sorted(cardinalities)

    def test_invalid_split(self, binary_dataset):
        with pytest.raises(ValueError):
            build_workload(binary_dataset, split=(0.5, 0.5, 0.5))

    def test_max_queries_cap(self, binary_dataset):
        workload = build_workload(binary_dataset, query_fraction=0.5, max_queries=10, num_thresholds=3, seed=0)
        unique_records = {e.record.tobytes() for e in workload}
        assert len(unique_records) <= 10

    def test_policies_produce_workloads(self, set_dataset):
        for policy in ("single_uniform", "multi_uniform", "skewed"):
            workload = build_workload(
                set_dataset, query_fraction=0.05, num_thresholds=3, policy=policy, seed=2
            )
            assert len(workload.train) > 0

    def test_helpers(self, binary_workload):
        records = Workload.records(binary_workload.train[:3])
        thetas = Workload.thetas(binary_workload.train[:3])
        cards = Workload.cardinalities(binary_workload.train[:3])
        assert len(records) == 3 and thetas.shape == (3,) and cards.shape == (3,)


class TestOutOfDatasetQueries:
    def test_k_medoids_returns_requested_count(self, set_dataset):
        medoids = k_medoids(set_dataset.records, "jaccard", num_medoids=4, sample_size=60, seed=0)
        assert len(medoids) == 4

    @pytest.mark.parametrize(
        "fixture_name", ["binary_dataset", "string_dataset", "set_dataset", "vector_dataset"]
    )
    def test_generates_right_type_and_count(self, request, fixture_name):
        dataset = request.getfixturevalue(fixture_name)
        queries = generate_out_of_dataset_queries(dataset, num_queries=5, num_candidates=30, seed=0)
        assert len(queries) == 5
        sample_record = dataset.records[0]
        if isinstance(sample_record, np.ndarray):
            assert all(np.asarray(q).shape == np.asarray(sample_record).shape for q in queries)
        else:
            assert all(isinstance(q, type(sample_record)) for q in queries)

    def test_outliers_are_far_from_data(self, binary_dataset):
        """Out-of-dataset queries should be farther from the data than members are."""
        distance = get_distance("hamming")
        queries = generate_out_of_dataset_queries(binary_dataset, num_queries=5, num_candidates=50, seed=0)
        data_sample = list(binary_dataset.records[:40])
        outlier_distance = np.mean(
            [np.mean(distance.distances_to(q, data_sample)) for q in queries]
        )
        member_distance = np.mean(
            [np.mean(distance.distances_to(r, data_sample)) for r in binary_dataset.records[40:45]]
        )
        assert outlier_distance > member_distance


class TestQueryExample:
    def test_fields(self):
        example = QueryExample(record="abc", theta=2.0, cardinality=7)
        assert example.record == "abc"
        assert example.theta == 2.0
        assert example.cardinality == 7


class TestVectorizedLabelling:
    """label_queries/relabel must produce exactly the labels of the scalar loop."""

    def _scalar_label(self, queries, thresholds, selector):
        return [
            QueryExample(record=record, theta=float(theta), cardinality=selector.cardinality(record, float(theta)))
            for record in queries
            for theta in thresholds
        ]

    @pytest.mark.parametrize(
        "fixture_name",
        ["binary_dataset", "string_dataset", "set_dataset", "vector_dataset"],
    )
    def test_label_queries_matches_scalar_loop(self, request, fixture_name):
        dataset = request.getfixturevalue(fixture_name)
        selector = default_selector(dataset.distance_name, dataset.records)
        distance = get_distance(dataset.distance_name)
        rng = np.random.default_rng(8)
        queries = [
            dataset.records[int(i)]
            for i in rng.choice(len(dataset.records), size=5, replace=False)
        ]
        if distance.integer_valued:
            thresholds = [1.0, 2.0, float(int(dataset.theta_max))]
        else:
            thresholds = [dataset.theta_max * f for f in (0.2, 0.5, 1.0)]
        fast = label_queries(queries, thresholds, selector)
        slow = self._scalar_label(queries, thresholds, selector)
        assert [(e.theta, e.cardinality) for e in fast] == [
            (e.theta, e.cardinality) for e in slow
        ]

    def test_relabel_matches_scalar_loop(self, binary_dataset):
        selector = default_selector("hamming", binary_dataset.records)
        rng = np.random.default_rng(9)
        queries = [binary_dataset.records[int(i)] for i in rng.integers(0, 100, size=4)]
        examples = label_queries(queries, [2.0, 4.0, 6.0], selector)
        # Relabel against a shrunken dataset.
        smaller = default_selector("hamming", binary_dataset.records[:150])
        fast = relabel(examples, smaller)
        slow = [
            QueryExample(e.record, e.theta, smaller.cardinality(e.record, e.theta))
            for e in examples
        ]
        assert [(e.theta, e.cardinality) for e in fast] == [
            (e.theta, e.cardinality) for e in slow
        ]
