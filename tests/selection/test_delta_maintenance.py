"""O(Δ) delta maintenance: bit-identity with from-scratch rebuilds.

The pinned contract (ISSUE 10): after any stream of ``insert_many`` /
``delete_many`` calls a delta-maintained selector answers every query exactly
like a selector rebuilt from scratch over the same live records — cold (with
tombstones outstanding), after compaction, and across a snapshot round trip.
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
    CompactionPolicy,
    GrowableArray,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
)
from repro.store import load_component, save_component


def _cases(binary_dataset, string_dataset, set_dataset, vector_dataset):
    return [
        (
            "hamming",
            binary_dataset.records,
            lambda records: PackedHammingSelector(records),
            HammingDistance(),
            [2, 6, 12],
        ),
        (
            "hamming-gph",
            binary_dataset.records,
            lambda records: PigeonholeHammingSelector(records, part_size=8),
            HammingDistance(),
            [2, 6, 12],
        ),
        (
            "edit",
            string_dataset.records,
            lambda records: QGramEditSelector(records),
            EditDistance(),
            [1, 3, 6],
        ),
        (
            "jaccard",
            set_dataset.records,
            lambda records: PrefixFilterJaccardSelector(records),
            JaccardDistance(),
            [0.1, 0.3, 0.4],
        ),
        (
            "euclidean",
            vector_dataset.records,
            lambda records: BallIndexEuclideanSelector(records, num_pivots=8),
            EuclideanDistance(),
            [0.2, 0.5, 0.8],
        ),
    ]


def _mutate(selector, records, rng, rounds=4):
    """A deterministic mixed insert/delete stream; returns the live reference list."""
    live = list(records[:150])
    extra = list(records[150:])
    for _ in range(rounds):
        take = int(rng.integers(5, 20))
        batch, extra = extra[:take], extra[take:]
        selector.insert_many(batch)
        live.extend(batch)
        drop = sorted(
            int(i) for i in rng.choice(len(live), size=int(rng.integers(3, 12)), replace=False)
        )
        selector.delete_many(drop)
        for position in reversed(drop):
            del live[position]
    return live


def _assert_identical(selector, rebuilt, queries, thresholds):
    for query in queries:
        for theta in thresholds:
            assert selector.query(query, theta) == rebuilt.query(query, theta)
            assert selector.cardinality(query, theta) == rebuilt.cardinality(query, theta)
        curve = selector.cardinality_curve(query, thresholds)
        expected = rebuilt.cardinality_curve(query, thresholds)
        assert np.array_equal(curve, expected)


class TestDeltaBitIdentity:
    @pytest.fixture()
    def cases(self, binary_dataset, string_dataset, set_dataset, vector_dataset):
        return _cases(binary_dataset, string_dataset, set_dataset, vector_dataset)

    def test_matches_rebuild_cold_and_after_compaction(self, cases):
        for name, records, factory, _distance, thresholds in cases:
            rng = np.random.default_rng(11)
            selector = factory(records[:150])
            live = _mutate(selector, records, rng)
            assert len(selector.dataset) == len(live)
            assert all(
                np.array_equal(a, b) for a, b in zip(selector.dataset, live)
            )
            rebuilt = factory(live)
            queries = [live[int(i)] for i in rng.integers(0, len(live), size=6)]
            # Cold: tombstones outstanding.
            assert selector.delta_stats()["tombstones"] > 0, name
            _assert_identical(selector, rebuilt, queries, thresholds)
            # After compaction: physical layout collapses to the live rows.
            selector.compact()
            assert selector.delta_stats()["tombstones"] == 0, name
            _assert_identical(selector, rebuilt, queries, thresholds)

    def test_matches_linear_scan_after_mutations(self, cases):
        for name, records, factory, distance, thresholds in cases:
            rng = np.random.default_rng(23)
            selector = factory(records[:150])
            live = _mutate(selector, records, rng)
            reference = LinearScanSelector(live, distance)
            for i in rng.integers(0, len(live), size=5):
                for theta in thresholds:
                    assert selector.query(live[int(i)], theta) == reference.query(
                        live[int(i)], theta
                    ), name

    def test_snapshot_roundtrip_with_tombstones(self, cases, tmp_path):
        for name, records, factory, _distance, thresholds in cases:
            rng = np.random.default_rng(5)
            selector = factory(records[:150])
            live = _mutate(selector, records, rng)
            save_component(selector, tmp_path / f"snap-{name}")
            restored = load_component(tmp_path / f"snap-{name}")
            queries = [live[int(i)] for i in rng.integers(0, len(live), size=4)]
            _assert_identical(restored, factory(live), queries, thresholds)
            # Restored selectors keep accepting deltas.
            restored.insert_many(live[:3])
            assert len(restored) == len(live) + 3

    def test_snapshot_refuses_a_view_left_with_tombstones(self, binary_dataset, tmp_path, monkeypatch):
        """The view is written as its row count, which is only the view when
        no row is tombstoned; a compaction that leaves any is an error."""
        selector = PackedHammingSelector(binary_dataset.records[:50])
        selector.delete_many([0, 1])
        monkeypatch.setattr(selector, "compact", lambda: 0)
        with pytest.raises(ValueError, match="tombstones"):
            save_component(selector, tmp_path / "snap")


class TestUpdateSemantics:
    def test_insert_bootstrap_from_empty(self, binary_dataset):
        selector = PackedHammingSelector([])
        selector.insert_many(binary_dataset.records[:10])
        assert len(selector) == 10
        assert selector.query(binary_dataset.records[0], 0) == [0]

    def test_pigeonhole_bootstrap_keeps_its_part_size(self, binary_dataset):
        selector = PigeonholeHammingSelector([], part_size=8)
        selector.insert_many(binary_dataset.records[:10])
        assert selector.parts == [(0, 8), (8, 16), (16, 24), (24, 32)]

    def test_ball_index_compaction_keeps_its_configuration(self):
        """Built over 3 rows (so 3 pivots), grown to 2,003 and shrunk to 503:
        the forced compaction rebuilds with the 16 pivots and the seed the
        index was built with, as a fresh build over those rows does."""
        rng = np.random.default_rng(4)
        selector = BallIndexEuclideanSelector(rng.normal(size=(3, 6)), num_pivots=16, seed=7)
        assert len(selector._pivots) == 3
        selector.insert_many(list(rng.normal(size=(2000, 6))))
        selector.delete_many(range(1500))
        assert selector.delta_stats()["tombstones"] == 0  # the forced compaction ran
        fresh = BallIndexEuclideanSelector(selector.dataset, num_pivots=16, seed=7)
        assert len(selector._pivots) == len(fresh._pivots) == 16
        np.testing.assert_array_equal(selector._pivots, fresh._pivots)
        assert selector.rebuild(selector.dataset).seed == 7

    def test_delete_to_empty_then_reinsert(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:5])
        selector.delete_many(range(5))
        assert len(selector) == 0
        assert selector.query(binary_dataset.records[0], 32) == []
        selector.insert_many(binary_dataset.records[5:8])
        assert len(selector) == 3

    def test_delete_out_of_range_raises(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:5])
        with pytest.raises(IndexError):
            selector.delete_many([5])
        with pytest.raises(IndexError):
            selector.delete_many([-1])

    def test_delete_duplicate_positions_raise(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:5])
        with pytest.raises(ValueError):
            selector.delete_many([2, 2])

    def test_empty_operations_are_noops(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:5])
        before = selector.mutation_count
        assert selector.insert_many([]) == 0
        assert selector.delete_many([]) == 0
        assert selector.mutation_count == before

    def test_mutation_count_tracks_logical_changes_only(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:20])
        assert selector.mutation_count == 0
        selector.insert_many(binary_dataset.records[20:25])
        selector.delete_many([0, 3])
        assert selector.mutation_count == 2
        selector.compact()
        assert selector.mutation_count == 2

    def test_forced_compaction_bounds_tombstone_debt(self, binary_dataset):
        selector = PackedHammingSelector(binary_dataset.records[:40])
        selector.compaction_policy = CompactionPolicy(force_ratio=0.3, min_tombstones=4)
        for _ in range(6):
            selector.delete_many([0, 1, 2])
        stats = selector.delta_stats()
        assert stats["tombstones"] < 0.5 * max(1, stats["physical"])
        assert selector.compaction_policy.force_ratio == 0.3  # survives compaction

    def test_generic_fallback_rebuilds_in_place(self, binary_dataset):
        selector = LinearScanSelector(list(binary_dataset.records[:10]), HammingDistance())
        alias = selector
        selector.insert_many(binary_dataset.records[10:12])
        selector.delete_many([0])
        assert len(alias) == 11
        assert alias.mutation_count == 2


class TestGrowableArray:
    def test_amortized_append_and_view(self):
        store = GrowableArray(np.zeros((2, 3), dtype=np.int64))
        for i in range(10):
            store.append(np.full((1, 3), i, dtype=np.int64))
        assert store.count == 12
        assert np.array_equal(store.view()[-1], [9, 9, 9])
        assert len(np.asarray(store)) == 12

    def test_width_mismatch_raises(self):
        store = GrowableArray(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            store.append(np.zeros((1, 4), dtype=np.int64))

    def test_snapshot_trims_capacity_slack(self, tmp_path):
        store = GrowableArray(np.arange(4, dtype=np.int64))
        store.append(np.arange(5, dtype=np.int64))
        save_component(store, tmp_path / "store")
        restored = load_component(tmp_path / "store")
        assert np.array_equal(np.asarray(restored), np.asarray(store))
        restored.append(np.arange(2, dtype=np.int64))
        assert restored.count == 11
