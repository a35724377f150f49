"""O(Δ) label maintenance and the update manager's delta path (paper §8)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets import (
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.datasets.updates import UpdateOperation
from repro.selection import (
    BallIndexEuclideanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
)
from repro.sharding import ShardedSelector
from repro.workloads.builder import label_queries, relabel, relabel_delta


@pytest.fixture(scope="module")
def delta_setup(binary_dataset, binary_workload):
    selector = PackedHammingSelector(binary_dataset.records)
    return binary_dataset, binary_workload, selector


class TestRelabelDelta:
    def test_empty_delta_returns_the_same_labels(self, delta_setup):
        _, workload, selector = delta_setup
        examples = list(workload.validation)
        relabelled = relabel_delta(examples, selector, [], [])
        assert [e.cardinality for e in relabelled] == [
            e.cardinality for e in examples
        ]

    @pytest.mark.parametrize("case", ["insert", "delete", "both"])
    def test_delta_relabel_matches_full_relabel(self, delta_setup, case):
        dataset, workload, _ = delta_setup
        rng = np.random.default_rng(13)
        records = list(dataset.records)
        selector = PackedHammingSelector(np.asarray(records, dtype=np.uint8))
        examples = list(workload.validation)

        inserted, removed = [], []
        if case in ("insert", "both"):
            inserted = list(
                rng.integers(0, 2, size=(9, records[0].shape[0]), dtype=np.uint8)
            )
            selector.insert_many(inserted)
        if case in ("delete", "both"):
            positions = np.asarray([3, 17, 40])
            removed = [records[int(i)] for i in positions]
            selector.delete_many(positions)

        fast = relabel_delta(examples, selector, inserted, removed)
        full = relabel(examples, selector)
        assert [e.cardinality for e in fast] == [e.cardinality for e in full]

    def test_accumulated_deltas_cancel_insert_then_delete(self, delta_setup):
        dataset, workload, _ = delta_setup
        rng = np.random.default_rng(5)
        selector = PackedHammingSelector(dataset.records)
        examples = list(workload.validation)

        extra = list(
            rng.integers(0, 2, size=(4, dataset.records.shape[1]), dtype=np.uint8)
        )
        selector.insert_many(extra)
        # Drop two of the rows just inserted: in the *accumulated* delta both
        # sides must cancel, leaving labels equal to a full relabel.
        doomed = np.asarray([len(dataset.records), len(dataset.records) + 1])
        selector.delete_many(doomed)
        inserted = extra
        removed = [extra[0], extra[1]]

        fast = relabel_delta(examples, selector, inserted, removed)
        full = relabel(examples, selector)
        assert [e.cardinality for e in fast] == [e.cardinality for e in full]

    @pytest.mark.parametrize("panel_cells", [1, 13, 40])
    def test_blocked_comparison_matches_full_relabel(self, delta_setup, monkeypatch, panel_cells):
        # A panel smaller than one example's Δ row, and two that split the
        # examples into uneven blocks.
        monkeypatch.setattr("repro.workloads.builder._PANEL_CELLS", panel_cells)
        dataset, workload, _ = delta_setup
        records = list(dataset.records)
        selector = PackedHammingSelector(np.asarray(records, dtype=np.uint8))
        inserted = list(
            np.random.default_rng(2).integers(0, 2, size=(6, records[0].shape[0]), dtype=np.uint8)
        )
        selector.insert_many(inserted)
        selector.delete_many(np.asarray([5, 9]))
        examples = list(workload.validation)
        fast = relabel_delta(examples, selector, inserted, [records[5], records[9]])
        full = relabel(examples, selector)
        assert [e.cardinality for e in fast] == [e.cardinality for e in full]


# --------------------------------------------------------------------------- #
# relabel_delta == relabel on every engine selector, generated
# --------------------------------------------------------------------------- #
def _near_hamming(row, salt):
    row = np.array(row, dtype=np.uint8, copy=True)
    if salt % 3:
        row[salt % row.size] ^= 1
    return row


def _near_string(row, salt):
    if salt % 3 == 0:
        return row
    cut = salt % (len(row) + 1)
    return row[:cut] + "xyz"[salt % 3] + row[cut + 1 :]


def _near_vector(row, salt):
    row = np.array(row, dtype=np.float64, copy=True)
    if salt % 3:
        row[salt % row.size] += 0.05 * (salt % 5 - 2)
    return row


def _near_set(row, salt):
    return row if salt % 3 == 0 else frozenset(set(row) ^ {salt % 30})


#: distance → (base rows, threshold grid, near-copy of a row, the engine's index)
DELTA_CASES = {
    "hamming": (
        make_binary_dataset(
            num_records=48, dimension=16, num_clusters=3, flip_probability=0.1, seed=1
        ).records,
        [0.0, 1.0, 3.0, 6.0],
        _near_hamming,
        lambda rows: PigeonholeHammingSelector(rows, part_size=4),
    ),
    "edit": (
        make_string_dataset(num_records=48, num_clusters=3, base_length=8, seed=1).records,
        [0.0, 1.0, 2.0, 4.0],
        _near_string,
        QGramEditSelector,
    ),
    "euclidean": (
        make_vector_dataset(num_records=48, dimension=6, num_clusters=3, seed=1).records,
        [0.0, 0.2, 0.5, 0.9],
        _near_vector,
        BallIndexEuclideanSelector,
    ),
    "jaccard": (
        make_set_dataset(
            num_records=48, num_clusters=3, universe_size=30, base_set_size=6, seed=1
        ).records,
        [0.0, 0.2, 0.5, 0.8],
        _near_set,
        PrefixFilterJaccardSelector,
    ),
}

update_steps = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 60), min_size=1, max_size=5)),
    min_size=1,
    max_size=5,
)


def _cardinalities(examples):
    return [example.cardinality for example in examples]


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "4-shard"])
@pytest.mark.parametrize("distance_name", sorted(DELTA_CASES))
@settings(max_examples=15, deadline=None)
@given(steps=update_steps)
# Insert three rows, then delete the two newest: the accumulated Δ cancels.
@example(steps=[(True, [1, 2, 4]), (False, [0, 1])])
def test_relabel_delta_equals_relabel_on_engine_selectors(distance_name, sharded, steps):
    rows, grid, near, build = DELTA_CASES[distance_name]
    # Plan every operation on a mirror first, so thresholds can sit exactly
    # on the distance from a probe to a row the updates insert or remove.
    mirror, plan = list(rows), []
    for insert, picks in steps:
        if insert:
            delta = [near(mirror[pick % len(mirror)], pick) for pick in picks]
            plan.append(("insert", delta, delta))
            mirror = mirror + delta
        else:
            # Counted from the end, so deletes often hit rows inserted just before.
            positions = sorted({len(mirror) - 1 - pick % len(mirror) for pick in picks})
            plan.append(("delete", positions, [mirror[i] for i in positions]))
            mirror = [row for i, row in enumerate(mirror) if i not in set(positions)]

    selector = (
        ShardedSelector(rows, build, num_shards=4, parallel=False) if sharded else build(rows)
    )
    probes = [rows[0], rows[7], near(rows[11], 4)]
    touched = [row for _, _, delta in plan for row in delta]
    on_boundary = selector.distance.distances_to(probes[0], touched)[:3]
    thresholds = sorted(set(grid) | set(on_boundary.tolist()))
    start = labels = label_queries(probes, thresholds, selector)

    inserted_so_far, removed_so_far = [], []
    for kind, argument, delta in plan:
        if kind == "insert":
            selector.insert_many(argument)
            inserted, removed = delta, []
        else:
            selector.delete_many(argument)
            inserted, removed = [], delta
        inserted_so_far += inserted
        removed_so_far += removed
        labels = relabel_delta(labels, selector, inserted, removed)
        assert _cardinalities(labels) == _cardinalities(relabel(labels, selector))
    # The whole accumulated Δ at once, as the manager's pending-train path
    # replays it: a row inserted and later deleted cancels.
    replayed = relabel_delta(start, selector, inserted_so_far, removed_so_far)
    assert _cardinalities(replayed) == _cardinalities(relabel(start, selector))


@pytest.fixture
def manager(binary_dataset, binary_workload):
    selector = PackedHammingSelector(binary_dataset.records)
    estimator = CardNetEstimator.for_dataset(
        binary_dataset, seed=3, epochs=2, vae_pretrain_epochs=1
    )
    train = relabel(binary_workload.train[:30], selector)
    validation = relabel(binary_workload.validation[:10], selector)
    estimator.fit(train, validation)
    return IncrementalUpdateManager(
        estimator,
        selector,
        train,
        validation,
        max_epochs_per_update=1,
    )


class TestManagerDeltaPath:
    def test_process_applies_in_place_without_rebuilding(self, manager):
        selector = manager.selector
        mutations = selector.mutation_count
        rng = np.random.default_rng(2)
        inserted = rng.integers(
            0, 2, size=(5, np.asarray(manager.records[0]).shape[0]), dtype=np.uint8
        )
        report = manager.process(UpdateOperation("insert", inserted), 0)
        assert manager.selector is selector  # no index rebuild, only a delta
        assert selector.mutation_count == mutations + 1
        assert report.dataset_size == len(manager.records)

    def test_validation_labels_stay_exact_through_the_delta_path(self, manager):
        rng = np.random.default_rng(8)
        width = np.asarray(manager.records[0]).shape[0]
        manager.process(
            UpdateOperation("insert", rng.integers(0, 2, size=(6, width), dtype=np.uint8)),
            0,
        )
        manager.process(UpdateOperation("delete", np.asarray([1, 30, 299])), 1)
        expected = relabel(manager.validation_examples, manager.selector)
        assert [e.cardinality for e in manager.validation_examples] == [
            e.cardinality for e in expected
        ]

    def test_training_deltas_accumulate_until_a_retrain(self, manager):
        rng = np.random.default_rng(4)
        width = np.asarray(manager.records[0]).shape[0]
        # Make the baseline untriggerable so no retrain happens.
        manager._baseline_validation_error = float("inf")
        train_before = manager.train_examples
        manager.process(
            UpdateOperation("insert", rng.integers(0, 2, size=(3, width), dtype=np.uint8)),
            0,
        )
        manager.process(UpdateOperation("delete", np.asarray([7, 8])), 1)
        # Training labels untouched; deltas parked for the next retrain.
        assert manager.train_examples is train_before
        assert len(manager._pending_train_inserted) == 3
        assert len(manager._pending_train_removed) == 2
        # Force a degradation so the next step retrains and drains the queue.
        manager._baseline_validation_error = -1.0
        report = manager.process(UpdateOperation("delete", np.asarray([0])), 2)
        assert report.retrained
        assert manager._pending_train_inserted == []
        assert manager._pending_train_removed == []
        expected = relabel(manager.train_examples, manager.selector)
        assert [e.cardinality for e in manager.train_examples] == [
            e.cardinality for e in expected
        ]

    def test_revalidate_full_relabel_drains_pending(self, manager):
        rng = np.random.default_rng(9)
        width = np.asarray(manager.records[0]).shape[0]
        manager._baseline_validation_error = float("inf")
        manager.process(
            UpdateOperation("insert", rng.integers(0, 2, size=(2, width), dtype=np.uint8)),
            0,
        )
        assert manager._pending_train_inserted
        report = manager.revalidate(force_retrain=True)
        assert report.retrained
        assert manager._pending_train_inserted == []
        assert manager._pending_train_removed == []
