"""Unit tests for the distance functions."""

import numpy as np
import pytest

from repro.distances import (
    EditDistance,
    EuclideanDistance,
    HammingDistance,
    JaccardDistance,
    get_distance,
    jaccard_similarity,
    levenshtein,
    normalize_rows,
    pack_bits,
    packed_hamming_distances,
    unpack_bits,
)
from repro.selection import LinearScanSelector


class TestHamming:
    def test_basic(self):
        assert HammingDistance().distance([0, 1, 0], [1, 1, 0]) == 1

    def test_identity(self):
        assert HammingDistance().distance([1, 0, 1], [1, 0, 1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HammingDistance().distance([0, 1], [0, 1, 1])

    def test_distances_to_matches_loop(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(20, 16))
        query = rng.integers(0, 2, size=16)
        distance = HammingDistance()
        batch = distance.distances_to(query, data)
        loop = [distance.distance(query, row) for row in data]
        assert np.allclose(batch, loop)

    def test_count_within(self):
        data = [[0, 0], [0, 1], [1, 1]]
        assert LinearScanSelector(data, HammingDistance()).cardinality([0, 0], 1) == 2

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(1)
        vectors = rng.integers(0, 2, size=(5, 13)).astype(np.uint8)
        packed = pack_bits(vectors)
        assert np.array_equal(unpack_bits(packed, 13), vectors)

    def test_packed_distance_matches_plain(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, size=(30, 24)).astype(np.uint8)
        query = rng.integers(0, 2, size=24).astype(np.uint8)
        packed = pack_bits(data)
        query_packed = pack_bits(query)[0]
        fast = packed_hamming_distances(query_packed, packed)
        slow = np.count_nonzero(data != query[None, :], axis=1)
        assert np.array_equal(fast, slow)


class TestEdit:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "ab", 1),
            ("abc", "xabc", 1),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
        ],
    )
    def test_levenshtein_known_values(self, x, y, expected):
        assert levenshtein(x, y) == expected

    def test_symmetry(self):
        assert levenshtein("abcde", "badec") == levenshtein("badec", "abcde")

    def test_count_within(self):
        data = ["cat", "car", "dog", "cart"]
        assert LinearScanSelector(data, EditDistance()).cardinality("cat", 1) == 3


class TestJaccard:
    def test_similarity_identical(self):
        assert jaccard_similarity({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_similarity_disjoint(self):
        assert jaccard_similarity({1, 2}, {3, 4}) == 0.0

    def test_similarity_partial(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_empty_sets_convention(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_distance_is_one_minus_similarity(self):
        distance = JaccardDistance()
        assert distance.distance({1, 2}, {2, 3}) == pytest.approx(1.0 - 1.0 / 3.0)

    def test_accepts_lists(self):
        assert JaccardDistance().distance([1, 2, 2], [1, 2]) == pytest.approx(0.0)

    def test_count_within(self):
        data = [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({9})]
        assert LinearScanSelector(data, JaccardDistance()).cardinality({1, 2}, 0.5) == 2


class TestEuclidean:
    def test_basic(self):
        assert EuclideanDistance().distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EuclideanDistance().distance([0.0], [0.0, 1.0])

    def test_distances_to_matches_loop(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(25, 8))
        query = rng.normal(size=8)
        distance = EuclideanDistance()
        batch = distance.distances_to(query, data)
        loop = [distance.distance(query, row) for row in data]
        assert np.allclose(batch, loop)

    def test_normalize_rows_unit_norm(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(10, 5))
        norms = np.linalg.norm(normalize_rows(matrix), axis=1)
        assert np.allclose(norms, 1.0)

    def test_normalize_rows_zero_row_safe(self):
        matrix = np.zeros((2, 3))
        assert np.all(np.isfinite(normalize_rows(matrix)))


class TestRegistry:
    @pytest.mark.parametrize("name", ["hamming", "edit", "jaccard", "euclidean"])
    def test_get_distance_known(self, name):
        assert get_distance(name).name == name

    def test_get_distance_unknown(self):
        with pytest.raises(KeyError):
            get_distance("cosine")


class TestBatchLevenshtein:
    """The vectorized multi-string DP behind EditDistance.cross_distances."""

    @pytest.fixture(scope="class")
    def words(self):
        import random

        random.seed(0)
        alphabet = "abcde"
        return [
            "".join(random.choices(alphabet, k=random.randint(0, 12)))
            for _ in range(120)
        ]

    def test_cross_distances_matches_pairwise_loop(self, words):
        from repro.distances import batch_levenshtein  # noqa: F401 (public API)

        distance = EditDistance()
        queries = words[:10]
        matrix = distance.cross_distances(queries, words)
        expected = np.array(
            [[levenshtein(q, w) for w in words] for q in queries], dtype=np.float64
        )
        assert np.array_equal(matrix, expected)

    def test_distances_to_matches_loop(self, words):
        distance = EditDistance()
        batch = distance.distances_to(words[0], words)
        loop = [distance.distance(words[0], w) for w in words]
        assert np.array_equal(batch, loop)

    def test_threshold_mode_exact_below_threshold(self, words):
        from repro.distances import batch_levenshtein

        for query in words[:5]:
            pruned = batch_levenshtein(query, words, threshold=3)
            exact = np.array([levenshtein(query, w) for w in words])
            within = exact <= 3
            assert np.array_equal(pruned[within], exact[within])
            assert (pruned[~within] > 3).all()

    def test_empty_edge_cases(self):
        from repro.distances import batch_levenshtein

        assert batch_levenshtein("", ["", "ab"]).tolist() == [0, 2]
        assert batch_levenshtein("ab", ["", ""]).tolist() == [2, 2]
        assert batch_levenshtein("ab", []).tolist() == []
