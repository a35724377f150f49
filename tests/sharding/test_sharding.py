"""Tests for the sharding layer: the hash partition, fan-out selection, serving.

The load-bearing guarantees:

* sharded exact selection is bit-identical to the unsharded selector for any
  partitioning, any shard count, and all four distances;
* the merged serving endpoint's curve equals the elementwise sum of the
  shard estimators' curves, in shard order, and stays monotone (the paper's monotonicity
  composes under partitioning);
* a global update routes into per-shard local operations whose application
  matches applying the update globally — and only the touched shards do work.
"""

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.core.interface import CardinalityEstimator
from repro.datasets.updates import UpdateOperation, apply_operation, generate_update_stream
from repro.distances import get_distance
from repro.selection import LinearScanSelector, default_selector
from repro.engine import SimilarityQueryEngine
from repro.serving import EstimationService
from repro.sharding import ShardAssignment, ShardedSelector
from repro.sharding.partitioner import assign_shards


class ExactCountEstimator(CardinalityEstimator):
    """Exact per-shard oracle: merged serving answers equal unsharded counts."""

    name = "ExactCount"
    monotonic = True

    def __init__(self, records, distance_name):
        self._selector = LinearScanSelector(records, get_distance(distance_name))

    def estimate_batch(self, records, thetas):
        return np.asarray(
            [
                float(self._selector.cardinality(record, float(theta)))
                for record, theta in zip(records, thetas)
            ]
        )

    def estimate_curve_many(self, records, thetas=None):
        thetas = self._resolve_curve_thetas(thetas)
        return np.stack(
            [
                self._selector.cardinality_curve(record, thetas).astype(np.float64)
                for record in records
            ]
        )


def sharded_for(dataset, num_shards):
    return ShardedSelector(
        dataset.records,
        lambda shard_records: default_selector(dataset.distance_name, shard_records),
        num_shards=num_shards,
    )


#: One record of each kind the library serves, a few of each shape.
PINNED_RECORDS = [
    np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8),
    np.zeros(8, dtype=np.uint8),
    np.ones(16, dtype=np.uint8),
    np.array([0.5, -1.25, 3.0]),
    np.zeros(3),
    np.array([1e-3, 2.0, -7.5, 4.25]),
    "monotone",
    "cardinality",
    "",
    frozenset({1, 5, 9}),
    frozenset(),
    frozenset({"similarity", "selection"}),
]


# --------------------------------------------------------------------------- #
# The hash partition and assignments
# --------------------------------------------------------------------------- #
class TestPartitioner:
    def test_hash_is_content_stable(self, binary_dataset):
        first = assign_shards(binary_dataset.records[:20], 4)
        again = assign_shards([np.array(r) for r in binary_dataset.records[:20]], 4)
        assert np.array_equal(first, again)  # copies land on the same shard

    @pytest.mark.parametrize(
        "num_shards, expected",
        [
            (4, [0, 2, 3, 3, 1, 3, 3, 3, 2, 3, 3, 2]),
            (5, [0, 0, 1, 3, 1, 0, 0, 3, 4, 0, 1, 1]),
        ],
    )
    def test_shard_of_each_record_kind_is_pinned(self, num_shards, expected):
        """The hash decides every shard layout, and with it every per-shard
        model a snapshot or a benchmark fixture holds: these ids must not
        move."""
        sharded = ShardedSelector(
            PINNED_RECORDS,
            lambda rows: LinearScanSelector(rows, get_distance("hamming")),
            num_shards=num_shards,
        )
        assert sharded.assignment.shard_of.tolist() == expected

    def test_assignment_views_are_inverse(self, binary_dataset):
        assignment = ShardAssignment.from_shard_of(
            assign_shards(binary_dataset.records, 3), num_shards=3
        )
        for shard, ids in enumerate(assignment.global_ids):
            assert np.array_equal(assignment.shard_of[ids], np.full(len(ids), shard))
            assert np.array_equal(
                assignment.local_of[ids], np.arange(len(ids))
            )
            assert np.array_equal(assignment.to_global(shard, np.arange(len(ids))), ids)

    def test_invalid_configuration(self, binary_dataset):
        with pytest.raises(ValueError):
            sharded_for(binary_dataset, 0)
        with pytest.raises(ValueError):
            ShardAssignment.from_shard_of(np.asarray([0, 5]), num_shards=2)


# --------------------------------------------------------------------------- #
# Exactness: fan-out + merge is bit-identical to the unsharded selector
# --------------------------------------------------------------------------- #
class TestShardedSelectorExact:
    @pytest.fixture(
        params=["binary_dataset", "string_dataset", "set_dataset", "vector_dataset"]
    )
    def dataset(self, request):
        return request.getfixturevalue(request.param)

    def thetas(self, dataset):
        if get_distance(dataset.distance_name).integer_valued:
            top = int(dataset.theta_max)
            return [1.0, float(max(1, top // 2)), float(top)]
        return [dataset.theta_max * 0.3, dataset.theta_max * 0.7, dataset.theta_max]

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 256])
    def test_query_bit_identical(self, dataset, num_shards):
        reference = LinearScanSelector(
            dataset.records, get_distance(dataset.distance_name)
        )
        sharded = sharded_for(dataset, num_shards)
        assert sum(sharded.shard_sizes()) == len(dataset.records)
        if num_shards > len(dataset.records):
            assert 0 in sharded.shard_sizes()  # empty shards answer too
        rng = np.random.default_rng(3)
        for record_id in rng.choice(len(dataset.records), size=5, replace=False):
            record = dataset.records[int(record_id)]
            for theta in self.thetas(dataset):
                assert sharded.query(record, theta) == reference.query(record, theta)
                assert sharded.cardinality(record, theta) == reference.cardinality(
                    record, theta
                )

    def test_cardinality_curve_matches_and_is_monotone(self, dataset):
        reference = LinearScanSelector(
            dataset.records, get_distance(dataset.distance_name)
        )
        sharded = sharded_for(dataset, 4)
        grid = np.linspace(0.0, dataset.theta_max, 7)
        record = dataset.records[5]
        curve = sharded.cardinality_curve(record, grid)
        assert np.array_equal(curve, reference.cardinality_curve(record, grid))
        assert np.all(np.diff(curve) >= 0)

    def test_query_with_counts_sums(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 4)
        record = binary_dataset.records[0]
        matches, counts = sharded.query_with_counts(record, 6.0)
        assert len(counts) == 4
        assert sum(counts) == len(matches)
        assert matches.dtype == np.int64
        assert matches.tolist() == sharded.query(record, 6.0)

    def test_rebuild_preserves_configuration(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 3)
        rebuilt = sharded.rebuild(binary_dataset.records[:100])
        assert isinstance(rebuilt, ShardedSelector)
        assert rebuilt.num_shards == 3
        assert len(rebuilt) == 100
        reference = LinearScanSelector(
            binary_dataset.records[:100], get_distance("hamming")
        )
        record = binary_dataset.records[0]
        assert rebuilt.query(record, 5.0) == reference.query(record, 5.0)


# --------------------------------------------------------------------------- #
# Update routing: per-shard local operations == the global operation
# --------------------------------------------------------------------------- #
class TestUpdateRouting:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_routed_stream_tracks_global_apply(self, binary_dataset, num_shards):
        sharded = sharded_for(binary_dataset, num_shards)
        records = list(binary_dataset.records)
        operations = generate_update_stream(
            binary_dataset, num_operations=8, records_per_operation=6, seed=2
        )
        rng = np.random.default_rng(5)
        for operation in operations:
            sharded.apply_operation(operation)
            records = apply_operation(records, operation)
            assert len(sharded) == len(records)
            reference = LinearScanSelector(records, get_distance("hamming"))
            record = records[0]
            assert sharded.query(record, 6.0) == reference.query(record, 6.0)
            # The rows are read back from the shards' stores, in the order asked.
            ids = rng.choice(len(records), size=20)
            rows = sharded.rows_at(ids)
            assert isinstance(rows, np.ndarray) and rows.dtype == np.uint8
            assert np.array_equal(rows, np.asarray([records[int(i)] for i in ids]))
        assert np.array_equal(sharded.dataset, np.asarray(records))

    def test_untouched_shards_keep_their_index(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 4)
        before = sharded.shards
        versions = [shard.mutation_count for shard in before]
        # The hash sends a copy of record 0 to record 0's shard.
        touched = int(sharded.assignment.shard_of[0])
        routing = sharded.route_operation(
            UpdateOperation("insert", [binary_dataset.records[0]])
        )
        assert routing.touched_shards == [touched]
        sharded.apply_routed(routing)
        # Every shard object survives in place (O(Δ) deltas, no rebuilds);
        # only the touched shard absorbed a mutation.
        for shard_id in range(4):
            assert sharded.shard(shard_id) is before[shard_id]
            if shard_id == touched:
                assert sharded.shard(shard_id).mutation_count == versions[shard_id] + 1
            else:
                assert sharded.shard(shard_id).mutation_count == versions[shard_id]

    def test_delete_routing_skips_out_of_range(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 2)
        size = len(sharded)
        routing = sharded.route_operation(UpdateOperation("delete", [0, size + 50]))
        assert sum(len(op.records) for op in routing.local_operations.values()) == 1
        sharded.apply_routed(routing)
        assert len(sharded) == size - 1

    def test_already_applied_shard_size_is_validated(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 2)
        routing = sharded.route_operation(UpdateOperation("delete", [0, 1]))
        shard_id = routing.touched_shards[0]
        # Claimed as applied in place, but nobody applied it: stale size.
        with pytest.raises(ValueError):
            sharded.apply_routed(routing, applied_shards=[shard_id])


# --------------------------------------------------------------------------- #
# Sharded serving: merged endpoint = sum of the shard estimators' curves
# --------------------------------------------------------------------------- #
class TestShardedServing:
    """A sharded attribute's endpoints, driven through the engine's service."""

    GRID = np.arange(13, dtype=np.float64)

    @pytest.fixture
    def engine(self, binary_dataset):
        assert binary_dataset.theta_max == self.GRID[-1]
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "hm", binary_dataset.records, "hamming",
            lambda rows, _: ExactCountEstimator(rows, "hamming"),
            num_shards=3, curve_thetas=self.GRID,
        )
        return engine

    def test_endpoints_registered(self, engine):
        binding = engine.catalog.get("hm")
        assert binding.shard_endpoints == ["hm#shard0", "hm#shard1", "hm#shard2"]
        assert engine.service.registry.names() == ["hm", *binding.shard_endpoints]

    def test_merged_equals_shard_sum_and_unsharded_exact(self, engine, binary_dataset):
        service, registry = engine.service, engine.service.registry
        endpoints = engine.catalog.get("hm").shard_endpoints
        rng = np.random.default_rng(4)
        records = [
            binary_dataset.records[int(i)]
            for i in rng.choice(len(binary_dataset.records), size=8, replace=False)
        ]
        thetas = [float(rng.integers(1, int(binary_dataset.theta_max))) for _ in records]
        merged = service.estimate_many("hm", records, thetas)
        # Exactly the shard estimators' curves, summed in shard order.
        summed = np.zeros((len(records), len(self.GRID)))
        for endpoint in endpoints:
            summed += registry.get(endpoint).estimator.estimate_curve_many(records, self.GRID)
        assert np.array_equal(service.estimate_curve_many("hm", records), summed)
        per_shard = [service.estimate_many(endpoint, records, thetas) for endpoint in endpoints]
        assert np.array_equal(merged, np.sum(per_shard, axis=0))
        # Exact per-shard oracles: the sum IS the unsharded exact count.
        reference = LinearScanSelector(binary_dataset.records, get_distance("hamming"))
        assert merged == pytest.approx(
            [reference.cardinality(r, t) for r, t in zip(records, thetas)]
        )

    def test_merged_curve_is_monotone_by_construction(self, engine, binary_dataset):
        for record_id in (0, 11, 42):
            curve = engine.service.estimate_curve("hm", binary_dataset.records[record_id])
            assert np.all(np.diff(curve) >= -1e-9)

    def test_repeat_requests_hit_every_cache(self, engine, binary_dataset):
        service = engine.service
        records = [binary_dataset.records[i] for i in range(5)]
        thetas = [4.0] * 5
        service.estimate_many("hm", records, thetas)
        hits_before = service.cache.hits
        service.estimate_many("hm", records, thetas)
        # The repeat is answered fully from the merged endpoint's cache.
        assert service.cache.hits >= hits_before + len(records)
        assert service.telemetry.endpoint("hm").hit_rate > 0.0
        # The client-facing endpoint accounts the two passes exactly as an
        # unsharded endpoint does: the shard endpoints' traffic stays theirs.
        unsharded = EstimationService()
        unsharded.register(
            "hm",
            ExactCountEstimator(binary_dataset.records, "hamming"),
            curve_thetas=self.GRID,
            distance_name="hamming",
        )
        for _ in range(2):
            unsharded.estimate_many("hm", records, thetas)
        merged = service.telemetry.endpoint("hm").snapshot()
        plain = unsharded.telemetry.endpoint("hm").snapshot()
        for key in ("requests", "cache_hits", "hit_rate"):
            assert merged[key] == plain[key], key
        assert merged["cache_hits"] == len(records)

    def test_shard_invalidation_also_drops_merged_curves(self, engine, binary_dataset):
        service = engine.service
        endpoints = engine.catalog.get("hm").shard_endpoints
        record = binary_dataset.records[0]
        service.estimate_many("hm", [record], [4.0])
        # One record through the merged endpoint: one merged curve, and the
        # shard endpoints' caches are not touched.
        assert len(service.cache) == 1
        assert all(service.telemetry.endpoint(e).requests == 0 for e in endpoints)
        for endpoint in endpoints:
            service.estimate_many(endpoint, [record], [4.0])
        assert len(service.cache) == 4
        report = engine.apply_update(
            "hm", UpdateOperation("insert", [binary_dataset.records[1]])
        )
        # The merged curve sums every shard, so it went stale with the
        # touched shard — but the untouched shards keep their cached curves.
        assert len(report.touched_shards) == 1
        cached = [
            endpoint
            for endpoint in ["hm", *endpoints]
            if service.cache.get(endpoint, service.registry.get(endpoint).key_for(record))
            is not None
        ]
        touched = endpoints[report.touched_shards[0]]
        assert cached == [endpoint for endpoint in endpoints if endpoint != touched]

    def test_mismatched_canonical_grids_rejected(self, binary_dataset):
        class GriddedEstimator(ExactCountEstimator):
            def __init__(self, records, grid):
                super().__init__(records, "hamming")
                self._grid = np.asarray(grid, dtype=np.float64)

            def curve_thetas(self):
                return self._grid

        engine = SimilarityQueryEngine()
        with pytest.raises(ValueError):
            engine.register_sharded_attribute(
                "bad", binary_dataset.records[:20], "hamming",
                lambda rows, index: GriddedEstimator(rows, np.arange(5.0 + 2 * index)),
                num_shards=2,
            )
        assert engine.service.registry.names() == []
        assert engine.catalog.names() == []

    def test_gridless_estimators_require_theta_max(self, binary_dataset):
        engine = SimilarityQueryEngine()

        def factory(rows, index):
            return UniformSamplingEstimator(rows, "hamming", seed=index)

        with pytest.raises(ValueError):
            engine.register_sharded_attribute(
                "us", binary_dataset.records[:50], "hamming", factory, num_shards=1
            )
        assert engine.service.registry.names() == []
        engine.register_sharded_attribute(
            "us", binary_dataset.records[:50], "hamming", factory, num_shards=1,
            theta_max=binary_dataset.theta_max,
        )
        grid = engine.service.registry.get("us").curve_thetas
        assert grid[-1] == pytest.approx(binary_dataset.theta_max)
