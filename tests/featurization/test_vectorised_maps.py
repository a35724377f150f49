"""The array-valued θ → τ maps and batch featurizations against their scalar forms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.distances.jaccard import as_frozenset
from repro.featurization import (
    EditFeatureExtractor,
    HammingFeatureExtractor,
    MinHashJaccardFeatureExtractor,
    PStableEuclideanFeatureExtractor,
    collision_probability,
)

BUCKET_WIDTH = 0.5
THETA_MAX = 0.8


def scalar_collision_probability(theta: float, r: float) -> float:
    """The per-θ formula the vectorised map replaced (Datar et al., via norm.cdf)."""
    if theta <= 0.0:
        return 1.0
    ratio = r / theta
    if ratio > 40.0:
        return 1.0
    term1 = 1.0 - 2.0 * norm.cdf(-ratio)
    term2 = (2.0 / (np.sqrt(2.0 * np.pi) * ratio)) * (1.0 - np.exp(-(ratio ** 2) / 2.0))
    return float(max(0.0, min(1.0, term1 - term2)))


def scalar_euclidean_tau(extractor: PStableEuclideanFeatureExtractor, theta: float) -> int:
    epsilon = scalar_collision_probability(theta, extractor.bucket_width)
    denominator = 1.0 - scalar_collision_probability(extractor.theta_max, extractor.bucket_width)
    ratio = min(max((1.0 - epsilon) / denominator, 0.0), 1.0)
    return int(np.floor(extractor.tau_max * ratio + 1e-12))


@pytest.fixture(scope="module")
def euclidean():
    return PStableEuclideanFeatureExtractor(
        input_dimension=8, theta_max=THETA_MAX, bucket_width=BUCKET_WIDTH, tau_max=16, seed=0
    )


@pytest.fixture(scope="module")
def dense_grid():
    """20,001 points plus the branch points: θ = 0, r/θ > 40, and the tolerated overshoot."""
    edge_cases = [0.0, 1e-300, BUCKET_WIDTH / 40.0001, BUCKET_WIDTH / 40.0, THETA_MAX + 1e-9]
    return np.concatenate([np.linspace(0.0, THETA_MAX, 20_001), edge_cases])


def test_collision_probabilities_equal_the_scalar_formula(euclidean, dense_grid):
    expected = [scalar_collision_probability(theta, BUCKET_WIDTH) for theta in dense_grid]
    # Array exp may differ from scalar exp in the last place; the branches may not.
    actual = euclidean.collision_probabilities(dense_grid)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=2.5e-16)
    assert np.array_equal(actual == 1.0, np.asarray(expected) == 1.0)
    assert collision_probability(-1.0, BUCKET_WIDTH) == 1.0
    assert collision_probability(BUCKET_WIDTH / 41.0, BUCKET_WIDTH) == 1.0


def test_euclidean_thresholds_equal_the_scalar_formula(euclidean, dense_grid):
    taus = euclidean.transform_thresholds(dense_grid)
    assert taus.dtype == np.int64
    assert taus.tolist() == [scalar_euclidean_tau(euclidean, theta) for theta in dense_grid]
    assert taus[-1] == euclidean.tau_max


@pytest.mark.parametrize("thetas", [[-1e-9], [0.1, THETA_MAX + 1e-6], [np.inf]])
def test_euclidean_thresholds_still_reject_out_of_range(euclidean, thetas):
    with pytest.raises(ValueError):
        euclidean.transform_thresholds(thetas)
    with pytest.raises(ValueError):
        euclidean.transform_threshold(thetas[-1])


EXTRACTORS = {
    "hamming-identity": HammingFeatureExtractor(dimension=16, theta_max=8),
    "hamming-proportional": HammingFeatureExtractor(dimension=16, theta_max=32, tau_max=16),
    "edit": EditFeatureExtractor(alphabet="abc", max_length=10, theta_max=5),
    "jaccard": MinHashJaccardFeatureExtractor(universe_size=50, theta_max=0.4, seed=0),
    "euclidean": PStableEuclideanFeatureExtractor(input_dimension=8, theta_max=0.8, seed=0),
}


@pytest.mark.parametrize("name", EXTRACTORS)
def test_scalar_threshold_is_a_one_element_batch(name):
    extractor = EXTRACTORS[name]
    grid = np.linspace(0.0, extractor.theta_max, 257)
    taus = extractor.transform_thresholds(grid)
    scalars = [extractor.transform_threshold(theta) for theta in grid]
    assert all(type(tau) is int for tau in scalars)
    assert scalars == taus.tolist()
    assert np.all(np.diff(taus) >= 0) and taus[0] == 0 and taus[-1] <= extractor.tau_max
    assert extractor.transform_thresholds([]).shape == (0,)
    with pytest.raises(ValueError):
        extractor.transform_threshold(extractor.theta_max * 1.01)


@pytest.mark.parametrize("name", EXTRACTORS)
def test_available_taus_is_one_batch_call(name, monkeypatch):
    extractor = EXTRACTORS[name]
    expected = sorted(
        {extractor.transform_threshold(t) for t in np.linspace(0.0, extractor.theta_max, 512)}
    )
    calls = []
    original = type(extractor).transform_thresholds

    def counting(self, thetas):
        calls.append(len(thetas))
        return original(self, thetas)

    monkeypatch.setattr(type(extractor), "transform_thresholds", counting)
    assert extractor.available_taus() == expected
    assert calls == [512]


vectors = st.lists(
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=8, max_size=8),
    min_size=1,
    max_size=20,
)


@settings(max_examples=40, deadline=None)
@given(vectors)
def test_euclidean_batch_records_equal_the_per_record_stack(records):
    extractor = EXTRACTORS["euclidean"]
    records = [np.asarray(record) for record in records]
    batch = extractor.transform_records(records)
    assert batch.dtype == np.float64
    assert np.array_equal(batch, np.stack([extractor.transform_record(r) for r in records]))
    blocks = batch.reshape(len(records), extractor.num_hashes, extractor.block_size)
    assert np.all(blocks.sum(axis=2) == 1.0)
    # The one-hot position is the clipped hash value of that hash function.
    assert np.array_equal(blocks.argmax(axis=2), extractor.hash_values(records))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=16, max_size=16), min_size=1, max_size=20))
def test_hamming_batch_records_equal_the_per_record_stack(records):
    extractor = EXTRACTORS["hamming-identity"]
    for typed in (records, [np.asarray(r, dtype=np.uint8) for r in records], np.asarray(records)):
        batch = extractor.transform_records(typed)
        assert batch.dtype == np.float64
        assert np.array_equal(batch, np.stack([extractor.transform_record(r) for r in typed]))
        assert np.array_equal(batch, np.asarray(records, dtype=np.float64))


def per_record_jaccard(extractor: MinHashJaccardFeatureExtractor, record) -> np.ndarray:
    """The per-record b-bit minwise hash the batch kernel replaced."""
    elements = np.fromiter(
        (int(e) % extractor.universe_size for e in as_frozenset(record)), dtype=np.int64
    )
    vector = np.zeros(extractor.dimension, dtype=np.float64)
    if elements.size == 0:
        values = np.zeros(extractor.num_permutations, dtype=np.int64)
    else:
        ranks = extractor._permutations[:, elements]
        min_positions = ranks.argmin(axis=1)
        min_ranks = ranks[np.arange(extractor.num_permutations), min_positions]
        values = min_ranks & (extractor.block_size - 1)
    vector[np.arange(extractor.num_permutations) * extractor.block_size + values] = 1.0
    return vector


def per_record_edit(extractor: EditFeatureExtractor, record) -> np.ndarray:
    """The per-character window writes the batch kernel replaced."""
    vector = np.zeros(extractor.dimension, dtype=np.float64)
    for position, character in enumerate(str(record)[: extractor.max_length]):
        group = extractor._char_to_group.get(character)
        if group is None:
            continue
        start = group * extractor.group_width + position
        stop = min(start + 2 * extractor.window + 1, (group + 1) * extractor.group_width)
        vector[start:stop] = 1.0
    return vector


tokens = st.one_of(st.integers(-120, 120), st.integers(-(2**63), 2**63 - 1))
token_lists = st.lists(tokens, max_size=12)
set_records = st.one_of(
    token_lists,
    token_lists.map(tuple),
    token_lists.map(set),
    token_lists.map(frozenset),
    token_lists.map(lambda values: [np.int64(v) for v in values]),
    token_lists.map(lambda values: np.asarray(values, dtype=np.int64)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(set_records, min_size=1, max_size=64))
@example([[], [3, 3, 53, -47], (120, 7, 7), {-1}, [np.int64(49)], frozenset()])
def test_jaccard_batch_records_equal_the_per_record_map(records):
    """Empty sets, duplicate tokens, tokens ≥ universe_size and negative ones."""
    extractor = EXTRACTORS["jaccard"]
    batch = extractor.transform_records(records)
    assert batch.dtype == np.float64
    assert np.array_equal(batch, np.stack([per_record_jaccard(extractor, r) for r in records]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcxz\U0001F600", max_size=14), min_size=1, max_size=64))
@example(["", "abcabcabca", "ccccccccccc", "x\U0001F600a", "zzz"])
def test_edit_batch_records_equal_the_per_record_map(records):
    """Characters outside Σ, a non-BMP character, strings past l_max = 10 and one
    of exactly l_max whose last window ends at its group's edge."""
    extractor = EXTRACTORS["edit"]
    batch = extractor.transform_records(records)
    assert batch.dtype == np.float64
    assert np.array_equal(batch, np.stack([per_record_edit(extractor, r) for r in records]))


RECORDS = {
    "hamming-identity": np.arange(16) % 2,
    "hamming-proportional": np.arange(16) % 3 == 0,
    "edit": "abcab",
    "jaccard": [4, 8, 15, 16, 23, 42],
    "euclidean": np.linspace(-1.0, 1.0, 8),
}


@pytest.mark.parametrize("name", EXTRACTORS)
def test_scalar_record_is_a_one_element_batch(name):
    extractor, record = EXTRACTORS[name], RECORDS[name]
    vector = extractor.transform_record(record)
    assert vector.shape == (extractor.dimension,)
    assert np.array_equal(vector, extractor.transform_records([record])[0])


@pytest.mark.parametrize("name", EXTRACTORS)
def test_empty_batch_is_an_empty_matrix(name):
    features = EXTRACTORS[name].transform_records([])
    assert features.dtype == np.float64
    assert features.shape == (0, EXTRACTORS[name].dimension)


@pytest.mark.parametrize("name", ["hamming-identity", "euclidean"])
def test_batch_records_reject_wrong_dimension(name):
    extractor = EXTRACTORS[name]
    width = 16 if name == "hamming-identity" else 8
    with pytest.raises(ValueError):
        extractor.transform_records([np.zeros(width), np.zeros(width + 1)])
    with pytest.raises(ValueError):
        extractor.transform_records([np.zeros(width + 1)])
