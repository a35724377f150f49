"""The ``::partJ`` histograms an update keeps by its delta equal fresh ones.

``apply_update`` on a GPH attribute hands each part histogram the inserted
rows or the rows a delete removes, instead of rebuilding it from the column.
After any sequence of updates, every part must hold the counts a
``HistogramHammingEstimator`` built over the live rows holds and serve
bit-identical curves.  The base rows keep bit 0 of every 8-bit group at 0, so
an all-ones row is a pattern no group has seen; the sequence inserts it and
deletes it again, which takes the last row of that pattern out.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HistogramHammingEstimator, UniformSamplingEstimator
from repro.datasets.updates import UpdateOperation
from repro.engine import SimilarityQueryEngine
from repro.selection import CompactionPolicy

ROWS, WIDTH, PART = 60, 32, 8


def tables(estimator):
    return estimator._num_records, [
        {pattern.tobytes(): int(count) for pattern, count in zip(patterns, counts)}
        for patterns, counts in zip(estimator._pattern_matrices, estimator._pattern_counts)
    ]


def assert_parts_fresh(engine, rng):
    binding = engine.catalog.get("hm")
    rows = np.asarray(binding.records, dtype=np.uint8)
    probes = rng.integers(0, 2, size=(32, WIDTH), dtype=np.uint8)
    probes[:8] = rows[rng.integers(0, len(rows), size=8)]
    for endpoint, (start, stop) in zip(binding.part_endpoints, binding.selector.parts):
        kept = engine.service.registry.get(endpoint).estimator
        fresh = HistogramHammingEstimator(rows[:, start:stop])
        assert tables(kept) == tables(fresh), endpoint
        assert all(counts.dtype == np.int64 for counts in kept._pattern_counts)
        assert np.array_equal(
            kept.estimate_curve_many(probes[:, start:stop]),
            fresh.estimate_curve_many(probes[:, start:stop]),
        ), endpoint


operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "unseen"]), st.integers(1, 6)),
    min_size=1, max_size=10,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=operations)
def test_delta_kept_histograms_equal_fresh_ones(seed, steps):
    rng = np.random.default_rng(seed)
    mask = np.ones(WIDTH, dtype=np.uint8)
    mask[::PART] = 0  # bit 0 of every group stays 0 in the base rows

    def rows(count):
        return rng.integers(0, 2, size=(count, WIDTH), dtype=np.uint8) & mask

    engine = SimilarityQueryEngine()
    base = rows(ROWS)
    engine.register_attribute(
        "hm", base, "hamming", UniformSamplingEstimator(base, "hamming", seed=0),
        theta_max=WIDTH, gph_part_size=2 * PART,
    )
    binding = engine.catalog.get("hm")
    for kind, count in steps:
        if kind == "insert":
            engine.apply_update("hm", UpdateOperation("insert", list(rows(count))))
        elif kind == "delete":
            positions = rng.choice(len(binding), size=min(count, len(binding) - 1), replace=False)
            engine.apply_update("hm", UpdateOperation("delete", list(positions)))
        else:  # an unseen pattern in every group comes in, then its last row goes
            engine.apply_update("hm", UpdateOperation("insert", [np.ones(WIDTH, dtype=np.uint8)]))
            assert_parts_fresh(engine, rng)
            engine.apply_update("hm", UpdateOperation("delete", [len(binding) - 1]))
        assert_parts_fresh(engine, rng)
    assert len(binding) == len(binding.selector)


def test_an_emptied_index_keeps_its_parts_and_histograms():
    """Deleting every row compacts the index down to no rows; it keeps its
    dimension and part size, so the rows inserted next land in the same
    parts and every part histogram counts them."""
    rng = np.random.default_rng(3)
    engine = SimilarityQueryEngine()
    base = rng.integers(0, 2, size=(ROWS, WIDTH), dtype=np.uint8)
    engine.register_attribute(
        "hm", base, "hamming", UniformSamplingEstimator(base, "hamming", seed=0),
        theta_max=WIDTH, gph_part_size=PART,
    )
    binding = engine.catalog.get("hm")
    parts = list(binding.selector.parts)
    assert len(parts) == WIDTH // PART
    binding.selector.compaction_policy = CompactionPolicy(0.25, 0.5, min_tombstones=1)
    engine.apply_update("hm", UpdateOperation("delete", list(range(ROWS))))
    assert binding.selector.delta_stats()["physical"] == 0  # compacted to nothing
    assert binding.selector.parts == parts
    engine.apply_update(
        "hm", UpdateOperation("insert", list(rng.integers(0, 2, size=(4, WIDTH), dtype=np.uint8)))
    )
    assert binding.selector.parts == parts
    assert_parts_fresh(engine, rng)
