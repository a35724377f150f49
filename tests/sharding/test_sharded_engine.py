"""Engine integration for sharded attributes: plan, execute, update, repair.

Covers the wiring the tentpole adds across layers: the planner reads one
merged monotone curve, the executor fans out across shard indexes and merges
exactly, updates route to per-shard managers so only the touched shard
relabels/retrains, and merged-endpoint drift revalidates every shard.
"""

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets.synthetic import Dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import (
    ConjunctiveQuery,
    ShardedUpdateReport,
    SimilarityPredicate,
    SimilarityQueryEngine,
)
from repro.selection import LinearScanSelector
from repro.sharding.partitioner import assign_shards
from repro.workloads.builder import relabel


def sampling_factory(distance_name, **options):
    def factory(shard_records, shard_index):
        return UniformSamplingEstimator(
            shard_records, distance_name, seed=shard_index, **options
        )

    return factory


@pytest.fixture
def sharded_engine(binary_dataset):
    engine = SimilarityQueryEngine()
    engine.register_sharded_attribute(
        "hm",
        binary_dataset.records,
        "hamming",
        sampling_factory("hamming", sample_ratio=0.3),
        num_shards=4,
        theta_max=binary_dataset.theta_max,
    )
    return engine


class TestShardedExecution:
    def test_registration_wires_endpoints_and_binding(self, sharded_engine):
        binding = sharded_engine.catalog.get("hm")
        assert binding.sharded
        assert binding.endpoint == "hm"
        assert binding.shard_endpoints == [f"hm#shard{k}" for k in range(4)]
        for endpoint in ["hm", *binding.shard_endpoints]:
            assert endpoint in sharded_engine.service.registry
        merged = sharded_engine.service.registry.get("hm")
        assert merged.metadata == {"sharded": True, "num_shards": 4}

    def test_plans_read_the_merged_curve(self, sharded_engine, binary_dataset):
        plan = sharded_engine.explain(
            SimilarityPredicate("hm", binary_dataset.records[0], 5.0)
        )
        assert plan.driver_shards == 4
        assert "shards=4" in plan.describe()
        # Merged estimate == sum of the per-shard served estimates.
        per_shard = [
            sharded_engine.service.estimate(endpoint, binary_dataset.records[0], 5.0)
            for endpoint in sharded_engine.catalog.get("hm").shard_endpoints
        ]
        assert plan.driver.estimated_cardinality == pytest.approx(sum(per_shard))

    def test_execution_is_exact_with_shard_counts(self, sharded_engine, binary_dataset):
        reference = LinearScanSelector(binary_dataset.records, get_distance("hamming"))
        rng = np.random.default_rng(6)
        for record_id in rng.choice(len(binary_dataset.records), size=8, replace=False):
            record = binary_dataset.records[int(record_id)]
            theta = float(rng.integers(2, int(binary_dataset.theta_max)))
            result = sharded_engine.execute(SimilarityPredicate("hm", record, theta))
            assert result.record_ids == reference.query(record, theta)
            assert result.shard_counts is not None and len(result.shard_counts) == 4
            assert sum(result.shard_counts) == result.driver_actual

    def test_conjunction_mixes_sharded_and_unsharded(self, relation):
        engine = SimilarityQueryEngine()
        names = relation.attribute_names
        engine.register_sharded_attribute(
            names[0],
            relation.attributes[names[0]],
            "euclidean",
            sampling_factory("euclidean", sample_ratio=0.3),
            num_shards=3,
            theta_max=1.0,
        )
        for attribute in names[1:]:
            engine.register_attribute(
                attribute,
                relation.attributes[attribute],
                "euclidean",
                UniformSamplingEstimator(
                    relation.attributes[attribute], "euclidean", sample_ratio=0.3, seed=0
                ),
                theta_max=1.0,
            )
        scans = {
            attribute: LinearScanSelector(matrix, get_distance("euclidean"))
            for attribute, matrix in relation.attributes.items()
        }
        rng = np.random.default_rng(2)
        for _ in range(5):
            record_id = int(rng.integers(0, len(relation)))
            query = ConjunctiveQuery(
                [
                    SimilarityPredicate(
                        attribute,
                        relation.attributes[attribute][record_id]
                        + rng.normal(0.0, 0.05, relation.attributes[attribute].shape[1]),
                        float(rng.uniform(0.3, 0.6)),
                    )
                    for attribute in names
                ]
            )
            truth = None
            for predicate in query.predicates:
                matches = set(
                    scans[predicate.attribute].query(predicate.record, predicate.theta)
                )
                truth = matches if truth is None else truth & matches
            assert engine.execute(query).record_ids == sorted(truth)

    def test_duplicate_name_and_single_manager_rejected(
        self, sharded_engine, binary_dataset
    ):
        with pytest.raises(KeyError):
            sharded_engine.register_sharded_attribute(
                "hm",
                binary_dataset.records,
                "hamming",
                sampling_factory("hamming", sample_ratio=0.3),
                theta_max=binary_dataset.theta_max,
            )
        manager = object()
        with pytest.raises(ValueError):
            sharded_engine.attach_manager("hm", manager)

    def test_failed_registration_leaves_no_half_state(self, binary_dataset):
        """A name collision on the serving side must not leave a poisoned
        catalog binding or leaked shard endpoints (regression)."""
        engine = SimilarityQueryEngine()
        # Occupy the merged endpoint name directly on the service.
        engine.service.register(
            "hm",
            UniformSamplingEstimator(binary_dataset.records, "hamming", seed=0),
            theta_max=binary_dataset.theta_max,
        )
        with pytest.raises(KeyError):
            engine.register_sharded_attribute(
                "hm",
                binary_dataset.records,
                "hamming",
                sampling_factory("hamming", sample_ratio=0.3),
                num_shards=2,
                theta_max=binary_dataset.theta_max,
            )
        assert "hm" not in engine.catalog
        assert "hm#shard0" not in engine.service.registry
        assert "hm#shard1" not in engine.service.registry
        # A fresh registration under an unclaimed name still works.
        binding = engine.register_sharded_attribute(
            "hm2",
            binary_dataset.records,
            "hamming",
            sampling_factory("hamming", sample_ratio=0.3),
            num_shards=2,
            theta_max=binary_dataset.theta_max,
        )
        assert binding.sharded


class TestManagerWiring:
    def test_miswired_manager_endpoint_rejected(self, sharded_engine, binary_dataset):
        """A pre-wired manager pointing at anything but its shard endpoint on
        the engine's service would invalidate the wrong curves on retrain —
        the merged endpoint would keep summing a stale shard (regression)."""

        class StubManager:
            def __init__(self, selector, service, endpoint):
                self.selector = selector
                self.service = service
                self.service_endpoint = endpoint

            def ensure_baseline(self):
                return 0.0

            def revalidate(self):
                return None

            def process(self, operation, operation_index=0):
                return None

        binding = sharded_engine.catalog.get("hm")
        shard_index = binding.selector.shard(0)
        # Wired to the MERGED endpoint instead of hm#shard0: rejected.
        wrong_endpoint = StubManager(shard_index, sharded_engine.service, "hm")
        with pytest.raises(ValueError):
            sharded_engine.attach_shard_managers("hm", {0: wrong_endpoint})
        # Wired to the right endpoint name but on a foreign service: rejected.
        from repro.serving import EstimationService

        foreign = StubManager(shard_index, EstimationService(), "hm#shard0")
        with pytest.raises(ValueError):
            sharded_engine.attach_shard_managers("hm", {0: foreign})
        # Correctly wired (or unwired) managers attach fine.
        correct = StubManager(shard_index, sharded_engine.service, "hm#shard0")
        sharded_engine.attach_shard_managers("hm", {0: correct})


class TestShardedUpdates:
    def test_update_touches_only_routed_shards(self, sharded_engine, binary_dataset):
        binding = sharded_engine.catalog.get("hm")
        shards_before = binding.selector.shards
        report = sharded_engine.apply_update(
            "hm", UpdateOperation("insert", [binary_dataset.records[0]])
        )
        assert isinstance(report, ShardedUpdateReport)
        assert len(report.touched_shards) == 1
        touched = report.touched_shards[0]
        # Shards absorb updates as in-place O(Δ) deltas: every shard object
        # keeps its identity, and only the routed shard saw a mutation.
        for shard_id in range(4):
            assert binding.selector.shard(shard_id) is shards_before[shard_id]
            expected_mutations = 1 if shard_id == touched else 0
            assert (
                binding.selector.shard(shard_id).mutation_count == expected_mutations
            )
        assert report.dataset_size == len(binary_dataset.records) + 1
        assert len(binding.records) == report.dataset_size

    def test_results_stay_exact_through_update_stream(
        self, sharded_engine, binary_dataset
    ):
        from repro.datasets import generate_update_stream

        operations = generate_update_stream(
            binary_dataset, num_operations=4, records_per_operation=8, seed=9
        )
        for operation in operations:
            sharded_engine.apply_update("hm", operation)
        binding = sharded_engine.catalog.get("hm")
        reference = LinearScanSelector(binding.records, get_distance("hamming"))
        record = binding.records[3]
        result = sharded_engine.execute(SimilarityPredicate("hm", record, 6.0))
        assert result.record_ids == reference.query(record, 6.0)

    @pytest.mark.xfail(
        strict=True,
        reason="ShardedSelector.apply_routed inserts shard by shard, so a shard "
        "applied before the one that refuses keeps its rows",
    )
    def test_a_refused_mixed_batch_changes_no_shard(self, sharded_engine, binary_dataset):
        binding = sharded_engine.catalog.get("hm")
        good = binary_dataset.records[20:28]
        bad = next(
            row for row in (np.array(r, copy=True) for r in binary_dataset.records)
            if assign_shards([row], 4)[0] == 3
        )
        bad[0] = 2
        # Shards apply in id order: a good row's shard goes before the bad one.
        assert min(assign_shards(good, 4)) < 3
        sizes = [len(shard) for shard in binding.selector.shards]
        with pytest.raises(ValueError):
            sharded_engine.apply_update("hm", UpdateOperation("insert", [*good, bad]))
        assert [len(shard) for shard in binding.selector.shards] == sizes
        assert len(binding) == sum(sizes)

    @pytest.mark.xfail(
        strict=True,
        reason="an emptied shard takes the width of the next row routed to it, "
        "and rows_at then cannot stack the shards",
    )
    def test_an_emptied_shard_refuses_a_row_of_another_width(
        self, sharded_engine, binary_dataset
    ):
        binding = sharded_engine.catalog.get("hm")
        shard_of = np.asarray(binding.selector.assignment.shard_of)
        sharded_engine.apply_update(
            "hm", UpdateOperation("delete", np.flatnonzero(shard_of == 0).tolist())
        )
        assert len(binding.selector.shard(0)) == 0
        wide = next(
            row for row in (np.resize(r, 33) for r in binary_dataset.records)
            if assign_shards([row], 4)[0] == 0
        )
        with pytest.raises(ValueError):
            sharded_engine.apply_update("hm", UpdateOperation("insert", [wide]))
        assert binding.selector.rows_at(np.arange(len(binding))).shape == (len(binding), 32)


@pytest.fixture(scope="module")
def managed_sharded_setup(binary_dataset, binary_workload):
    """Two-shard CardNet deployment with one real update manager per shard."""
    engine = SimilarityQueryEngine()

    trained = {}

    def cardnet_factory(shard_records, shard_index):
        shard_dataset = Dataset(
            name=f"HM-Shard{shard_index}",
            records=shard_records,
            distance_name="hamming",
            theta_max=binary_dataset.theta_max,
            cluster_labels=np.zeros(len(shard_records), dtype=np.int64),
        )
        estimator = CardNetEstimator.for_dataset(
            shard_dataset, epochs=2, vae_pretrain_epochs=1, seed=shard_index
        )
        trained[shard_index] = (estimator, shard_records)
        return estimator

    binding = engine.register_sharded_attribute(
        "hm",
        binary_dataset.records,
        "hamming",
        cardnet_factory,
        num_shards=2,
        theta_max=binary_dataset.theta_max,
    )
    managers = {}
    for shard_index, shard in enumerate(binding.selector.shards):
        estimator, shard_records = trained[shard_index]
        train = relabel(binary_workload.train[:30], shard)
        validation = relabel(binary_workload.validation[:10], shard)
        estimator.fit(train, validation)
        managers[shard_index] = IncrementalUpdateManager(
            estimator,
            shard,
            train,
            validation,
            max_epochs_per_update=1,
        )
    engine.attach_shard_managers("hm", managers)
    return engine, managers


class TestPerShardManagers:
    def test_update_relabels_only_the_touched_shard(
        self, managed_sharded_setup, binary_dataset
    ):
        engine, managers = managed_sharded_setup
        sizes_before = {k: len(m.records) for k, m in managers.items()}
        # The hash sends a copy of record 1 to record 1's shard.
        touched = int(engine.catalog.get("hm").selector.assignment.shard_of[1])
        report = engine.apply_update(
            "hm", UpdateOperation("insert", [binary_dataset.records[1]])
        )
        assert report.touched_shards == [touched]
        assert set(report.reports) == {touched}
        assert len(managers[touched].records) == sizes_before[touched] + 1
        untouched = 1 - touched
        assert len(managers[untouched].records) == sizes_before[untouched]
        # Manager and sharded selector share the shard's index by reference.
        binding = engine.catalog.get("hm")
        assert binding.selector.shard(touched) is managers[touched].selector

    def test_post_update_execution_exact(self, managed_sharded_setup):
        engine, _ = managed_sharded_setup
        binding = engine.catalog.get("hm")
        reference = LinearScanSelector(binding.records, get_distance("hamming"))
        record = binding.records[-1]
        result = engine.execute(SimilarityPredicate("hm", record, 5.0))
        assert result.record_ids == reference.query(record, 5.0)

    def test_merged_drift_revalidates_every_shard(self, managed_sharded_setup):
        engine, managers = managed_sharded_setup
        monitor = engine.feedback
        # Push estimated-vs-actual pairs that are wildly wrong straight into
        # the monitor (the unit under test is repair fan-out, not planning).
        events = [
            monitor.observe("hm", estimated=1.0, actual=50_000.0)
            for _ in range(monitor.min_observations + 1)
        ]
        fired = [event for event in events if event is not None]
        assert fired, "drift should have fired on the merged endpoint"
        event = fired[0]
        assert event.endpoint == "hm"
        revalidation = event.revalidation
        assert revalidation is not None
        assert sorted(revalidation.reports) == sorted(managers)
        assert revalidation.epochs_run >= 0  # aggregate is well-formed
        snapshot = engine.feedback.snapshot()
        assert snapshot["events"][-1]["endpoint"] == "hm"


class TestEngineRebalance:
    def test_rebalance_swaps_endpoints_and_stays_exact(
        self, sharded_engine, binary_dataset
    ):
        from repro.sharding import RebalancePlan, SplitShard

        engine = sharded_engine
        binding = engine.catalog.get("hm")
        record = binary_dataset.records[5]
        predicate = SimilarityPredicate("hm", record, 6.0)
        before_ids = engine.execute(predicate).record_ids
        old_merged = engine.service.registry.get("hm")

        report = engine.rebalance_attribute(
            "hm", RebalancePlan([SplitShard(0, parts=2)])
        )

        assert report is not None
        assert report.num_shards_after == report.num_shards_before + 1
        assert binding.shard_endpoints == [
            f"hm#shard{i}" for i in range(report.num_shards_after)
        ]
        new_merged = engine.service.registry.get("hm")
        assert new_merged.estimator is not old_merged.estimator
        assert list(new_merged.curve_thetas) == list(old_merged.curve_thetas)
        # Planning still works against the swapped endpoints...
        plan = engine.explain(ConjunctiveQuery([predicate]))
        assert plan.driver.predicate.attribute == "hm"
        assert plan.driver_shards == report.num_shards_after
        # ...and execution is still bit-identical.
        assert engine.execute(predicate).record_ids == before_ids

    def test_rebalance_detaches_stale_shard_managers(
        self, managed_sharded_setup
    ):
        from repro.sharding import MergeShards, RebalancePlan

        engine, managers = managed_sharded_setup
        assert sorted(engine._links["hm"].managers) == sorted(managers)
        report = engine.rebalance_attribute(
            "hm", RebalancePlan([MergeShards((0, 1))])
        )
        assert report is not None
        assert "hm" not in engine._links
        # Drift on the merged endpoint must not try to repair via managers
        # built for the old layout (they hold dead shard selectors).
        monitor = engine.feedback
        events = [
            monitor.observe("hm", estimated=1.0, actual=50_000.0)
            for _ in range(monitor.min_observations + 1)
        ]
        fired = [event for event in events if event is not None]
        assert fired and fired[0].revalidation is None

    def test_rebalance_requires_estimator_factory(self, sharded_engine):
        from repro.sharding import RebalancePlan, SplitShard

        engine = sharded_engine
        engine._estimator_factories.pop("hm")
        with pytest.raises(RuntimeError, match="set_estimator_factory"):
            engine.rebalance_attribute("hm", RebalancePlan([SplitShard(0)]))
        engine.set_estimator_factory("hm", sampling_factory("hamming", sample_ratio=0.3))
        report = engine.rebalance_attribute("hm", RebalancePlan([SplitShard(0)]))
        assert report is not None

    def test_rebalance_rejects_unsharded_attribute(self, binary_dataset):
        from repro.baselines import UniformSamplingEstimator

        engine = SimilarityQueryEngine()
        engine.register_attribute(
            "flat",
            binary_dataset.records,
            "hamming",
            UniformSamplingEstimator(
                binary_dataset.records, "hamming", sample_ratio=0.3, seed=0
            ),
            theta_max=binary_dataset.theta_max,
        )
        with pytest.raises(ValueError, match="not sharded"):
            engine.rebalance_attribute("flat")
        with pytest.raises(ValueError, match="not sharded"):
            engine.set_estimator_factory("flat", sampling_factory("hamming"))

    def test_updates_keep_flowing_after_rebalance(
        self, sharded_engine, binary_dataset
    ):
        from repro.sharding import RebalancePlan, SplitShard

        engine = sharded_engine
        engine.rebalance_attribute("hm", RebalancePlan([SplitShard(1, parts=2)]))
        rng = np.random.default_rng(21)
        inserted = rng.integers(0, 2, size=(6, 32), dtype=np.uint8)
        report = engine.apply_update("hm", UpdateOperation("insert", inserted))
        assert isinstance(report, ShardedUpdateReport)
        binding = engine.catalog.get("hm")
        assert len(binding.records) == len(binary_dataset.records) + 6
        record = inserted[0]
        reference = LinearScanSelector(
            np.asarray(binding.records), get_distance("hamming")
        )
        result = engine.execute(SimilarityPredicate("hm", record, 5.0))
        assert result.record_ids == reference.query(record, 5.0)


class TestShardedEngineLifetime:
    """A dropped sharded engine is freed by reference counting, not by the
    cycle collector: the merged estimator keeps no service reference."""

    def test_service_registry_and_estimators_die_with_the_engine(self, binary_dataset):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            engine = SimilarityQueryEngine()
            engine.register_sharded_attribute(
                "hm", binary_dataset.records, "hamming",
                sampling_factory("hamming", sample_ratio=0.3),
                num_shards=4, theta_max=binary_dataset.theta_max,
            )
            engine.execute(SimilarityPredicate("hm", binary_dataset.records[0], 5.0))
            merged = engine.service.registry.get("hm").estimator
            watched = [
                weakref.ref(engine.service),
                weakref.ref(engine.service.registry),
                weakref.ref(merged),
                weakref.ref(merged._shard_estimators[0]),
                weakref.ref(engine.service.cache),
            ]
            del merged
            del engine
            assert [ref() for ref in watched] == [None] * len(watched)
        finally:
            gc.enable()

    def test_restored_engine_serves_the_same_merged_curves(self, sharded_engine, binary_dataset, tmp_path):
        from repro.store import load_engine, save_engine

        records = list(binary_dataset.records[:6])
        before = sharded_engine.service.estimate_curve_many("hm", records)
        save_engine(sharded_engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")
        assert np.array_equal(restored.service.estimate_curve_many("hm", records), before)
        # A cold request (nothing cached) sums the restored shard estimators.
        restored.service.invalidate("hm")
        for endpoint in restored.catalog.get("hm").shard_endpoints:
            restored.service.invalidate(endpoint)
        assert np.array_equal(restored.service.estimate_curve_many("hm", records), before)

    def test_restored_engine_frees_without_gc(
        self, sharded_engine, binary_dataset, tmp_path
    ):
        import gc
        import weakref

        from repro.store import load_engine, save_engine

        records = list(binary_dataset.records[:6])
        before = sharded_engine.service.estimate_curve_many("hm", records)
        save_engine(sharded_engine, tmp_path / "snap")
        gc.collect()
        gc.disable()
        try:
            restored = load_engine(tmp_path / "snap")
            merged = restored.service.registry.get("hm").estimator
            restored.service.invalidate("hm")
            assert np.array_equal(restored.service.estimate_curve_many("hm", records), before)
            watched = [weakref.ref(restored.service), weakref.ref(merged)]
            del merged
            del restored
            assert [ref() for ref in watched] == [None] * len(watched)
        finally:
            gc.enable()
