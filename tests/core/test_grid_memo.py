"""An explicit curve grid's θ → τ columns are mapped once per grid.

``CardNetEstimator.estimate_curve_many`` keeps the columns of the last
explicit grid it served; the answers must stay exactly the model's native
curve indexed through the extractor's θ → τ map, whichever grids alternate,
after the model retrains, and after a restore from a snapshot that predates
the memo.
"""

import numpy as np
import pytest

from repro.core import CardNetEstimator
from repro.store import load_component, save_component


def _expected(estimator, records, grid):
    features = estimator.extractor.transform_records(records)
    taus = estimator.extractor.transform_thresholds(grid)
    return estimator.model.estimate_curve(features)[:, taus]


@pytest.fixture(params=["vector", "set"])
def served(request, vector_dataset, vector_workload, set_dataset, set_workload):
    """A freshly fitted estimator (Euclidean: no canonical grid; Jaccard: an
    explicit grid next to its canonical one), two explicit grids, a workload."""
    dataset, workload = {
        "vector": (vector_dataset, vector_workload),
        "set": (set_dataset, set_workload),
    }[request.param]
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=1, vae_pretrain_epochs=1, seed=0
    )
    estimator.fit(workload.train[:80], workload.validation[:20])
    grids = (
        np.linspace(0.0, dataset.theta_max, 65),
        np.linspace(0.0, dataset.theta_max / 2, 9),
    )
    return estimator, grids, workload


def test_alternating_grids_serve_the_mapped_native_curve(served):
    estimator, grids, workload = served
    records = [example.record for example in workload.test[:12]]
    for grid in (*grids, *grids, grids[0]):
        curves = estimator.estimate_curve_many(records, grid)
        assert np.array_equal(curves, _expected(estimator, records, grid))
    # The memo keeps its own copy: a caller that rewrites its grid array in
    # place and asks again gets the new grid's columns.
    grid = grids[0] * 0.75
    estimator.estimate_curve_many(records, grid)
    grid *= 0.5
    assert np.array_equal(
        estimator.estimate_curve_many(records, grid), _expected(estimator, records, grid)
    )


def test_retrained_model_is_read_through_the_same_columns(served):
    estimator, grids, workload = served
    records = [example.record for example in workload.test[:12]]
    before = estimator.estimate_curve_many(records, grids[0])
    estimator.incremental_fit(workload.train[:40], workload.validation[:20], max_epochs=2)
    after = estimator.estimate_curve_many(records, grids[0])
    assert np.array_equal(after, _expected(estimator, records, grids[0]))
    assert not np.array_equal(after, before)  # the weights moved; the memo holds no curves


def test_snapshot_without_the_memo_loads_and_serves_the_same_curves(served, tmp_path):
    estimator, grids, workload = served
    records = [example.record for example in workload.test[:12]]
    expected = [estimator.estimate_curve_many(records, grid) for grid in grids]
    # The state a snapshot written before the memo existed holds.
    del estimator._grid_taus
    save_component(estimator, tmp_path / "estimator")
    restored = load_component(tmp_path / "estimator")
    assert not hasattr(restored, "_grid_taus")
    for grid, curves in zip(grids, expected):
        assert np.array_equal(restored.estimate_curve_many(records, grid), curves)
    # A snapshot written with the memo restores it and serves the same curves.
    save_component(restored, tmp_path / "with-memo")
    again = load_component(tmp_path / "with-memo")
    assert np.array_equal(again.estimate_curve_many(records, grids[1]), expected[1])
