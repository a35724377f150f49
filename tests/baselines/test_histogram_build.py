"""The array-pass histogram build is the dict-of-``tobytes`` build it replaced.

``HistogramHammingEstimator`` counts each dimension group's patterns in one
array pass (``np.bincount`` of integer codes, ``np.unique`` of rows for wide
groups) instead of one Python step per row.  Pattern order may differ; the counts are integers, so every curve must
come out bit-identical to the reference build kept below.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HistogramHammingEstimator
from repro.store import load_component, save_component

#: 1–16 count codes in a dense table; 24 and 64 count rows with np.unique.
GROUP_SIZES = [1, 6, 8, 10, 16, 24, 64]


def reference_build(records, group_size):
    """An estimator whose tables come from the per-row dict build."""
    estimator = HistogramHammingEstimator(records, group_size=group_size)
    matrix = np.asarray(records, dtype=np.uint8)
    estimator._pattern_matrices, estimator._pattern_counts = [], []
    for start, stop in estimator._groups:
        histogram = defaultdict(int)
        for row in matrix:
            histogram[row[start:stop].tobytes()] += 1
        if histogram:
            patterns = np.stack([np.frombuffer(pattern, dtype=np.uint8) for pattern in histogram])
        else:
            patterns = np.zeros((0, stop - start), dtype=np.uint8)
        estimator._pattern_matrices.append(patterns)
        estimator._pattern_counts.append(np.asarray(list(histogram.values()), dtype=np.float64))
    return estimator


def tables(estimator):
    """Each group's {pattern bytes: count}, order-free."""
    return [
        {pattern.tobytes(): count for pattern, count in zip(patterns, counts)}
        for patterns, counts in zip(estimator._pattern_matrices, estimator._pattern_counts)
    ]


def assert_same_estimator(built, reference, probes):
    assert tables(built) == tables(reference)
    assert built.size_in_bytes() == reference.size_in_bytes()
    assert np.array_equal(built.estimate_curve_many(probes), reference.estimate_curve_many(probes))
    thetas = np.arange(len(probes), dtype=np.float64) % (probes.shape[1] + 2)
    assert np.array_equal(
        built.estimate_batch(probes, thetas), reference.estimate_batch(probes, thetas)
    )


def clustered_rows(rng, rows, dimension):
    """0/1 rows drawn from a few prototypes, so patterns repeat."""
    prototypes = rng.integers(0, 2, size=(max(1, rows // 4), dimension), dtype=np.uint8)
    matrix = prototypes[rng.integers(len(prototypes), size=rows)]
    noise = rng.random(matrix.shape) < 0.1
    return (matrix ^ noise).astype(np.uint8)


@pytest.mark.parametrize("group_size", GROUP_SIZES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 60),
    dimension=st.integers(1, 70),
)
def test_array_build_equals_dict_build(group_size, seed, rows, dimension):
    rng = np.random.default_rng(seed)
    matrix = clustered_rows(rng, rows, dimension)
    probes = np.concatenate([matrix[:3], rng.integers(0, 2, size=(3, dimension), dtype=np.uint8)])
    assert_same_estimator(
        HistogramHammingEstimator(matrix, group_size=group_size),
        reference_build(matrix, group_size),
        probes,
    )


@pytest.mark.parametrize("group_size", GROUP_SIZES[1:])
def test_dimension_the_group_size_does_not_divide(group_size):
    # 67 is prime: the last group is a short one for every size but 1.
    matrix = clustered_rows(np.random.default_rng(3), 200, 67)
    built = HistogramHammingEstimator(matrix, group_size=group_size)
    assert built._groups[-1][1] - built._groups[-1][0] == 67 % group_size
    assert_same_estimator(built, reference_build(matrix, group_size), matrix[:8])


@pytest.mark.parametrize("group_size", GROUP_SIZES)
def test_empty_matrix(group_size):
    matrix = np.zeros((0, 70), dtype=np.uint8)
    built = HistogramHammingEstimator(matrix, group_size=group_size)
    assert all(patterns.shape == (0, stop - start) for patterns, (start, stop) in zip(
        built._pattern_matrices, built._groups
    ))
    assert_same_estimator(
        built, reference_build(matrix, group_size), np.zeros((2, 70), dtype=np.uint8)
    )


@pytest.mark.parametrize("group_size", [8, 24, 64])
def test_snapshot_round_trip(tmp_path, group_size):
    matrix = clustered_rows(np.random.default_rng(9), 120, 70)
    save_component(HistogramHammingEstimator(matrix, group_size=group_size), tmp_path / "h")
    restored = load_component(tmp_path / "h")
    assert_same_estimator(restored, reference_build(matrix, group_size), matrix[:6])
