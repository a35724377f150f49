"""Tests for the sharding layer: partitioners, fan-out selection, serving.

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
from repro.serving import EstimationService
from repro.sharding import (
    HashPartitioner,
    RoundRobinPartitioner,
    ShardAssignment,
    ShardedEstimatorGroup,
    ShardedSelector,
    get_partitioner,
)


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


def sharded_for(dataset, num_shards, partitioner="hash"):
    return ShardedSelector(
        dataset.records,
        lambda shard_records: default_selector(dataset.distance_name, shard_records),
        num_shards=num_shards,
        partitioner=partitioner,
    )


# --------------------------------------------------------------------------- #
# Partitioners and assignments
# --------------------------------------------------------------------------- #
class TestPartitioner:
    def test_hash_is_content_stable(self, binary_dataset):
        partitioner = HashPartitioner(4)
        first = partitioner.assign(binary_dataset.records[:20])
        again = partitioner.assign([np.array(r) for r in binary_dataset.records[:20]])
        assert np.array_equal(first, again)  # copies land on the same shard

    def test_round_robin_is_balanced(self):
        partitioner = RoundRobinPartitioner(4)
        assignment = partitioner.partition(list(range(103)))
        sizes = assignment.shard_sizes()
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_assignment_views_are_inverse(self, binary_dataset):
        assignment = HashPartitioner(3).partition(binary_dataset.records)
        for shard, ids in enumerate(assignment.global_ids):
            assert np.array_equal(assignment.shard_of[ids], np.full(len(ids), shard))
            assert np.array_equal(
                assignment.local_of[ids], np.arange(len(ids))
            )
            assert np.array_equal(assignment.to_global(shard, np.arange(len(ids))), ids)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            RoundRobinPartitioner(0)
        with pytest.raises(KeyError):
            get_partitioner("nope", 2)
        with pytest.raises(ValueError):
            ShardAssignment.from_shard_of(np.asarray([0, 5]), num_shards=2)

    def test_conflicting_num_shards_and_partitioner_rejected(self, binary_dataset):
        """num_shards and an explicit partitioner instance must agree — a
        silent preference would hand back a different shard count than the
        caller asked for (regression)."""
        with pytest.raises(ValueError):
            ShardedSelector(
                binary_dataset.records,
                lambda shard_records: default_selector("hamming", shard_records),
                num_shards=8,
                partitioner=HashPartitioner(4),
            )
        # Consistent and partitioner-only configurations both work.
        consistent = ShardedSelector(
            binary_dataset.records,
            lambda shard_records: default_selector("hamming", shard_records),
            num_shards=4,
            partitioner=HashPartitioner(4),
        )
        assert consistent.num_shards == 4
        inferred = ShardedSelector(
            binary_dataset.records,
            lambda shard_records: default_selector("hamming", shard_records),
            partitioner=HashPartitioner(3),
        )
        assert inferred.num_shards == 3


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

    @pytest.mark.parametrize("partitioner", ["hash", "round_robin"])
    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_query_bit_identical(self, dataset, partitioner, num_shards):
        reference = LinearScanSelector(
            dataset.records, get_distance(dataset.distance_name)
        )
        sharded = sharded_for(dataset, num_shards, partitioner)
        assert sum(sharded.shard_sizes()) == len(dataset.records)
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

    def test_query_many_equals_per_query(self, dataset):
        sharded = sharded_for(dataset, 3)
        rng = np.random.default_rng(8)
        records = [
            dataset.records[int(i)]
            for i in rng.choice(len(dataset.records), size=6, replace=False)
        ]
        thetas = [self.thetas(dataset)[1]] * len(records)
        batched = sharded.query_many(records, thetas)
        singles = [sharded.query(r, t) for r, t in zip(records, thetas)]
        assert batched == singles

    def test_query_with_counts_sums(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 4)
        record = binary_dataset.records[0]
        matches, counts = sharded.query_with_counts(record, 6.0)
        assert len(counts) == 4
        assert sum(counts) == len(matches)

    def test_rebuild_preserves_configuration(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 3, partitioner="round_robin")
        rebuilt = sharded.rebuild(binary_dataset.records[:100])
        assert isinstance(rebuilt, ShardedSelector)
        assert rebuilt.num_shards == 3
        assert len(rebuilt) == 100
        reference = LinearScanSelector(
            binary_dataset.records[:100], get_distance("hamming")
        )
        record = binary_dataset.records[0]
        assert rebuilt.query(record, 5.0) == reference.query(record, 5.0)

    def test_mismatched_query_many_lengths(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 2)
        with pytest.raises(ValueError):
            sharded.query_many([binary_dataset.records[0]], [1.0, 2.0])


# --------------------------------------------------------------------------- #
# Update routing: per-shard local operations == the global operation
# --------------------------------------------------------------------------- #
class TestUpdateRouting:
    @pytest.mark.parametrize("partitioner", ["hash", "round_robin"])
    def test_routed_stream_tracks_global_apply(self, binary_dataset, partitioner):
        sharded = sharded_for(binary_dataset, 3, partitioner)
        records = list(binary_dataset.records)
        operations = generate_update_stream(
            binary_dataset, num_operations=8, records_per_operation=6, seed=2
        )
        for operation in operations:
            sharded.apply_operation(operation)
            records = apply_operation(records, operation)
            assert len(sharded) == len(records)
            reference = LinearScanSelector(records, get_distance("hamming"))
            record = records[0]
            assert sharded.query(record, 6.0) == reference.query(record, 6.0)
        assert all(
            np.array_equal(a, b) for a, b in zip(sharded.dataset, records)
        )

    def test_untouched_shards_keep_their_index(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 4, partitioner="round_robin")
        before = sharded.shards
        versions = [shard.mutation_count for shard in before]
        # Round-robin sends one appended record to shard len(dataset) % 4.
        touched = len(sharded) % 4
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
class TestShardedEstimatorGroup:
    @pytest.fixture
    def setup(self, binary_dataset):
        sharded = sharded_for(binary_dataset, 3)
        service = EstimationService()
        estimators = [
            ExactCountEstimator(list(shard.dataset), "hamming")
            for shard in sharded.shards
        ]
        group = ShardedEstimatorGroup(
            "hm",
            service,
            estimators,
            curve_thetas=np.arange(int(binary_dataset.theta_max) + 1, dtype=np.float64),
            distance_name="hamming",
        )
        return sharded, service, group

    def test_endpoints_registered(self, setup):
        _, service, group = setup
        assert group.shard_endpoints == ["hm#shard0", "hm#shard1", "hm#shard2"]
        for endpoint in [*group.shard_endpoints, "hm"]:
            assert endpoint in service.registry

    def test_merged_equals_shard_sum_and_unsharded_exact(self, setup, binary_dataset):
        _, _, group = setup
        rng = np.random.default_rng(4)
        records = [
            binary_dataset.records[int(i)]
            for i in rng.choice(len(binary_dataset.records), size=8, replace=False)
        ]
        thetas = [float(rng.integers(1, int(binary_dataset.theta_max))) for _ in records]
        merged = group.estimate_many(records, thetas)
        # Exactly the shard estimators' curves, summed in shard order.
        summed = np.zeros((len(records), len(group.curve_thetas)))
        for estimator in group.estimators:
            summed += estimator.estimate_curve_many(records, group.curve_thetas)
        assert np.array_equal(group.estimate_curve_many(records), summed)
        assert np.array_equal(merged, group.shard_estimates(records, thetas).sum(axis=0))
        # Exact per-shard oracles: the sum IS the unsharded exact count.
        reference = LinearScanSelector(binary_dataset.records, get_distance("hamming"))
        assert merged == pytest.approx(
            [reference.cardinality(r, t) for r, t in zip(records, thetas)]
        )

    def test_merged_curve_is_monotone_by_construction(self, setup, binary_dataset):
        _, _, group = setup
        for record_id in (0, 11, 42):
            curve = group.estimate_curve(binary_dataset.records[record_id])
            assert np.all(np.diff(curve) >= -1e-9)

    def test_repeat_requests_hit_every_cache(self, setup, binary_dataset):
        _, service, group = setup
        records = [binary_dataset.records[i] for i in range(5)]
        thetas = [4.0] * 5
        group.estimate_many(records, thetas)
        hits_before = service.cache.hits
        group.estimate_many(records, thetas)
        # The repeat is answered fully from the merged endpoint's cache.
        assert service.cache.hits >= hits_before + len(records)
        assert service.telemetry.endpoint("hm").hit_rate > 0.0
        # The client-facing endpoint accounts the two passes exactly as an
        # unsharded endpoint does: the shard endpoints' traffic stays theirs.
        unsharded = EstimationService()
        unsharded.register(
            "hm",
            ExactCountEstimator(binary_dataset.records, "hamming"),
            curve_thetas=np.arange(int(binary_dataset.theta_max) + 1, dtype=np.float64),
            distance_name="hamming",
        )
        for _ in range(2):
            unsharded.estimate_many("hm", records, thetas)
        merged = service.telemetry.endpoint("hm").snapshot()
        plain = unsharded.telemetry.endpoint("hm").snapshot()
        for key in ("requests", "cache_hits", "hit_rate"):
            assert merged[key] == plain[key], key
        assert merged["cache_hits"] == len(records)

    def test_shard_invalidation_also_drops_merged_curves(self, setup, binary_dataset):
        _, service, group = setup
        record = binary_dataset.records[0]
        group.estimate_many([record], [4.0])
        # One record through the merged endpoint: one merged curve, and the
        # shard endpoints' caches are not touched.
        assert len(service.cache) == 1
        assert all(service.telemetry.endpoint(e).requests == 0 for e in group.shard_endpoints)
        group.shard_estimates([record], [4.0])
        assert len(service.cache) == 4
        dropped = group.invalidate_shard(1)
        # The merged curve sums every shard, so it went stale with shard 1 —
        # but the untouched shards keep their cached curves.
        assert dropped == 2
        assert len(service.cache) == 2

    def test_mismatched_canonical_grids_rejected(self, binary_dataset):
        class GriddedEstimator(ExactCountEstimator):
            def __init__(self, records, grid):
                super().__init__(records, "hamming")
                self._grid = np.asarray(grid, dtype=np.float64)

            def curve_thetas(self):
                return self._grid

        service = EstimationService()
        with pytest.raises(ValueError):
            ShardedEstimatorGroup(
                "bad",
                service,
                [
                    GriddedEstimator(binary_dataset.records[:10], np.arange(5.0)),
                    GriddedEstimator(binary_dataset.records[10:20], np.arange(7.0)),
                ],
            )

    def test_gridless_estimators_require_theta_max(self, binary_dataset):
        service = EstimationService()
        estimators = [
            UniformSamplingEstimator(binary_dataset.records[:50], "hamming", seed=0)
        ]
        with pytest.raises(ValueError):
            ShardedEstimatorGroup("us", service, estimators)
        group = ShardedEstimatorGroup(
            "us", service, estimators, theta_max=binary_dataset.theta_max
        )
        assert group.curve_thetas[-1] == pytest.approx(binary_dataset.theta_max)

    def test_unregister_removes_every_endpoint(self, setup):
        _, service, group = setup
        group.unregister()
        assert "hm" not in service.registry
        assert "hm#shard0" not in service.registry
