"""Unit tests for the exact similarity-selection algorithms.

The central invariant: every index-based selector returns exactly the same
result set as the brute-force linear scan, for every query and threshold.
"""

import numpy as np
import pytest

from repro.distances import (
    EditDistance,
    EuclideanDistance,
    HammingDistance,
    JaccardDistance,
)
from repro.selection import (
    BallIndexEuclideanSelector,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
    default_selector,
    qgrams,
    split_dimensions,
)


class TestLinearScan:
    def test_hamming(self, binary_dataset):
        selector = LinearScanSelector(binary_dataset.records, HammingDistance())
        query = binary_dataset.records[0]
        assert 0 in selector.query(query, 0)

    def test_cardinality_equals_query_length(self, vector_dataset):
        selector = LinearScanSelector(vector_dataset.records, EuclideanDistance())
        query = vector_dataset.records[3]
        assert selector.cardinality(query, 0.5) == len(selector.query(query, 0.5))

    def test_rebuild(self, binary_dataset):
        selector = LinearScanSelector(binary_dataset.records, HammingDistance())
        rebuilt = selector.rebuild(list(binary_dataset.records[:10]))
        assert len(rebuilt) == 10


class TestPackedHamming:
    def test_matches_linear_scan(self, binary_dataset):
        reference = LinearScanSelector(binary_dataset.records, HammingDistance())
        fast = PackedHammingSelector(binary_dataset.records)
        rng = np.random.default_rng(0)
        for _ in range(10):
            query = binary_dataset.records[rng.integers(0, len(binary_dataset))]
            threshold = int(rng.integers(0, 13))
            assert fast.query(query, threshold) == reference.query(query, threshold)

    def test_empty_dataset(self):
        selector = PackedHammingSelector([])
        assert selector.query(np.zeros(8, dtype=np.uint8), 3) == []

    def test_distances_helper(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records)
        distances = selector.distances(binary_dataset.records[0])
        assert distances[0] == 0
        assert len(distances) == len(binary_dataset)

    @pytest.mark.parametrize("factory", [PackedHammingSelector, PigeonholeHammingSelector])
    @pytest.mark.parametrize("bad", [2, 255, 0.5, -1.0])
    def test_rows_that_are_not_bits_are_refused(self, factory, bad):
        # Packing reads any nonzero value as a 1 bit; HammingDistance counts
        # x != y.  Accepting [0, 2, 0, ...] made query([0, 1, 0, ...], 0)
        # return [0, 1] where a linear scan returns [1].
        good = np.zeros(8)
        good[1] = 1
        not_bits = np.zeros(8)
        not_bits[1] = bad
        with pytest.raises(ValueError, match="0 and 1"):
            factory([not_bits, good])
        selector = factory([good, good])
        with pytest.raises(ValueError, match="0 and 1"):
            selector.insert_many([not_bits])
        assert len(selector) == 2
        assert selector.query(good, 0) == [0, 1]
        assert selector.insert_many([good.astype(bool)]) == 1


class TestPigeonholeHamming:
    def test_split_dimensions(self):
        assert split_dimensions(32, 16) == [(0, 16), (16, 32)]
        assert split_dimensions(20, 16) == [(0, 16), (16, 20)]

    def test_split_dimensions_invalid(self):
        with pytest.raises(ValueError):
            split_dimensions(10, 0)

    def test_uniform_allocation_sums_to_threshold(self, binary_dataset):
        selector = PigeonholeHammingSelector(binary_dataset.records, part_size=8)
        allocation = selector.uniform_allocation(10)
        assert sum(allocation) == 10

    def test_matches_linear_scan(self, binary_dataset):
        reference = LinearScanSelector(binary_dataset.records, HammingDistance())
        pigeonhole = PigeonholeHammingSelector(binary_dataset.records, part_size=8)
        rng = np.random.default_rng(1)
        for _ in range(6):
            query = binary_dataset.records[rng.integers(0, len(binary_dataset))]
            threshold = int(rng.integers(0, 9))
            assert pigeonhole.query(query, threshold) == sorted(reference.query(query, threshold))

    def test_candidate_count_at_least_results(self, binary_dataset):
        pigeonhole = PigeonholeHammingSelector(binary_dataset.records, part_size=8)
        query = binary_dataset.records[5]
        allocation = pigeonhole.uniform_allocation(6)
        candidates = pigeonhole.candidate_count(query, allocation)
        results = len(pigeonhole.query(query, 6, allocation=allocation))
        assert candidates >= results


class TestQGramEdit:
    def test_qgrams(self):
        grams = qgrams("abab", 2)
        assert grams["ab"] == 2
        assert grams["ba"] == 1

    def test_qgrams_short_string(self):
        assert qgrams("a", 2) == {"a": 1}

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramEditSelector(["abc"], q=0)

    def test_matches_linear_scan(self, string_dataset):
        reference = LinearScanSelector(string_dataset.records, EditDistance())
        indexed = QGramEditSelector(string_dataset.records, q=2)
        rng = np.random.default_rng(2)
        for _ in range(8):
            query = string_dataset.records[rng.integers(0, len(string_dataset))]
            threshold = int(rng.integers(0, 5))
            assert sorted(indexed.query(query, threshold)) == sorted(
                reference.query(query, threshold)
            )


class TestPrefixFilterJaccard:
    def test_matches_linear_scan(self, set_dataset):
        reference = LinearScanSelector(set_dataset.records, JaccardDistance())
        indexed = PrefixFilterJaccardSelector(set_dataset.records)
        rng = np.random.default_rng(3)
        for _ in range(8):
            query = set_dataset.records[rng.integers(0, len(set_dataset))]
            threshold = float(rng.uniform(0.0, 0.5))
            assert sorted(indexed.query(query, threshold)) == sorted(
                reference.query(query, threshold)
            )

    def test_threshold_one_returns_everything(self, set_dataset):
        indexed = PrefixFilterJaccardSelector(set_dataset.records)
        assert len(indexed.query(set_dataset.records[0], 1.0)) == len(set_dataset)

    def test_empty_query_matches_empty_sets_only(self):
        selector = PrefixFilterJaccardSelector([frozenset(), frozenset({1, 2})])
        assert selector.query(frozenset(), 0.2) == [0]


class TestBallIndexEuclidean:
    def test_matches_linear_scan(self, vector_dataset):
        reference = LinearScanSelector(vector_dataset.records, EuclideanDistance())
        indexed = BallIndexEuclideanSelector(vector_dataset.records, num_pivots=8, seed=0)
        rng = np.random.default_rng(4)
        for _ in range(8):
            query = vector_dataset.records[rng.integers(0, len(vector_dataset))]
            threshold = float(rng.uniform(0.1, 0.9))
            assert sorted(indexed.query(query, threshold)) == sorted(
                reference.query(query, threshold)
            )

    def test_empty_dataset(self):
        selector = BallIndexEuclideanSelector(np.zeros((0, 4)))
        assert selector.query(np.zeros(4), 1.0) == []


class TestDefaultSelector:
    @pytest.mark.parametrize(
        "fixture_name,distance_name",
        [
            ("binary_dataset", "hamming"),
            ("string_dataset", "edit"),
            ("set_dataset", "jaccard"),
            ("vector_dataset", "euclidean"),
        ],
    )
    def test_builds_for_every_distance(self, request, fixture_name, distance_name):
        dataset = request.getfixturevalue(fixture_name)
        selector = default_selector(distance_name, dataset.records)
        query = dataset.records[0]
        assert selector.cardinality(query, dataset.theta_max) >= 1

    def test_unknown_distance(self):
        with pytest.raises(KeyError):
            default_selector("cosine", [])


class TestCardinalityCurve:
    """cardinality_curve must equal the per-threshold scalar loop exactly."""

    @pytest.mark.parametrize(
        "fixture_name,distance_name",
        [
            ("binary_dataset", "hamming"),
            ("string_dataset", "edit"),
            ("set_dataset", "jaccard"),
            ("vector_dataset", "euclidean"),
        ],
    )
    def test_curve_matches_scalar_loop(self, request, fixture_name, distance_name):
        dataset = request.getfixturevalue(fixture_name)
        from repro.distances import get_distance

        distance = get_distance(distance_name)
        selectors = [
            default_selector(distance_name, dataset.records),
            LinearScanSelector(dataset.records, distance),
        ]
        if distance_name == "hamming":
            selectors.append(PigeonholeHammingSelector(dataset.records, part_size=8))
        if distance.integer_valued:
            thresholds = [0.0, 1.0, 3.0, float(int(dataset.theta_max))]
        else:
            thresholds = [0.0, dataset.theta_max * 0.4, dataset.theta_max]
        rng = np.random.default_rng(2)
        for record_id in rng.choice(len(dataset.records), size=6, replace=False):
            record = dataset.records[int(record_id)]
            for selector in selectors:
                curve = selector.cardinality_curve(record, thresholds)
                scalar = [selector.cardinality(record, theta) for theta in thresholds]
                assert curve.tolist() == scalar, type(selector).__name__

    def test_unsorted_thresholds_supported(self, binary_dataset):
        selector = default_selector("hamming", binary_dataset.records)
        record = binary_dataset.records[0]
        curve = selector.cardinality_curve(record, [5.0, 1.0, 3.0])
        assert curve.tolist() == [
            selector.cardinality(record, t) for t in (5.0, 1.0, 3.0)
        ]

    def test_empty_thresholds(self, binary_dataset):
        selector = default_selector("hamming", binary_dataset.records)
        assert selector.cardinality_curve(binary_dataset.records[0], []).size == 0


class TestVerifiedCandidates:
    def test_matches_query_and_reports_cost(self, binary_dataset):
        selector = PigeonholeHammingSelector(binary_dataset.records, part_size=8)
        rng = np.random.default_rng(6)
        for _ in range(5):
            record = binary_dataset.records[rng.integers(0, len(binary_dataset.records))]
            threshold = int(rng.integers(2, 10))
            matches, candidates = selector.verified_candidates(record, threshold)
            assert matches == selector.query(record, threshold)
            assert candidates >= len(matches)
