"""Restore equivalence: a loaded engine behaves bit-identically to the saved one.

Covers every acceptance property of the snapshot subsystem: identical
``estimate_batch``/curve answers, identical :class:`QueryPlan`s and
:class:`QueryResult`s on all four distances (cold and warm cache alike),
GPH per-part allocations, sharded deployments (including post-restore
updates), manager identity re-wiring, and the drift/retrain loop resuming
exactly where the original left off.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.sampling import UniformSamplingEstimator
from repro.core import CardNetEstimator
from repro.core.incremental import IncrementalUpdateManager
from repro.datasets.updates import UpdateOperation
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.selection import BallIndexEuclideanSelector, PigeonholeHammingSelector
from repro.sharding import RebalancePlan, SplitShard
from repro.store import (
    FORMAT_VERSION,
    SnapshotFormatError,
    inspect_snapshot,
    load_engine,
    save_engine,
)


DISTANCES = ["hamming", "edit", "jaccard", "euclidean"]


def _sampling(records, distance_name):
    return UniformSamplingEstimator(records, distance_name, sample_ratio=0.4, seed=3)


@pytest.fixture(scope="module")
def datasets():
    from repro.datasets import (
        make_binary_dataset,
        make_set_dataset,
        make_string_dataset,
        make_vector_dataset,
    )

    n = 220
    return {
        "hamming": make_binary_dataset(
            num_records=n, dimension=32, num_clusters=4, flip_probability=0.1,
            theta_max=12, seed=7, name="HM-Store",
        ),
        "edit": make_string_dataset(
            num_records=n, num_clusters=4, base_length=10, max_mutations=5,
            theta_max=6, seed=7, name="ED-Store",
        ),
        "jaccard": make_set_dataset(
            num_records=n, universe_size=60, num_clusters=4, base_set_size=12,
            theta_max=0.8, seed=7, name="JC-Store",
        ),
        "euclidean": make_vector_dataset(
            num_records=n, dimension=8, num_clusters=4, theta_max=4.0,
            seed=7, name="EU-Store",
        ),
    }


@pytest.fixture(scope="module")
def cardnets(datasets):
    """CardNet-A on the edit and Jaccard columns, whose extractors the
    snapshot restores without running ``__init__``."""
    from repro.workloads import build_workload

    estimators = {}
    for name in ("edit", "jaccard"):
        workload = build_workload(datasets[name], query_fraction=0.1, num_thresholds=4, seed=11)
        estimators[name] = CardNetEstimator.for_dataset(
            datasets[name], accelerated=True, epochs=1, vae_pretrain_epochs=1, seed=0
        ).fit(workload.train, workload.validation)
    return estimators


def _build_engine(datasets, estimators=None):
    engine = SimilarityQueryEngine()
    for distance_name in DISTANCES:
        dataset = datasets[distance_name]
        estimator = (estimators or {}).get(distance_name)
        engine.register_attribute(
            distance_name,
            dataset.records,
            distance_name,
            estimator or _sampling(dataset.records, distance_name),
            theta_max=dataset.theta_max,
        )
    return engine


def _queries(datasets):
    thetas = {"hamming": 5.0, "edit": 3.0, "jaccard": 0.4, "euclidean": 1.5}
    queries = [
        SimilarityPredicate(name, datasets[name].records[index], thetas[name])
        for name in DISTANCES
        for index in (2, 9, 31)
    ]
    queries.append(
        ConjunctiveQuery(
            [
                SimilarityPredicate("hamming", datasets["hamming"].records[5], 6.0),
                SimilarityPredicate("edit", datasets["edit"].records[5], 4.0),
            ]
        )
    )
    return queries


def assert_plans_equal(plan_a, plan_b):
    assert plan_a.driver.attribute == plan_b.driver.attribute
    assert plan_a.driver.theta == plan_b.driver.theta
    assert plan_a.driver.estimated_cardinality == plan_b.driver.estimated_cardinality
    assert plan_a.allocation == plan_b.allocation
    assert plan_a.driver_shards == plan_b.driver_shards
    assert [p.attribute for p in plan_a.residuals] == [p.attribute for p in plan_b.residuals]
    assert [p.estimated_cardinality for p in plan_a.residuals] == [
        p.estimated_cardinality for p in plan_b.residuals
    ]


def assert_results_equal(result_a, result_b):
    assert result_a.record_ids == result_b.record_ids
    assert result_a.driver_actual == result_b.driver_actual
    assert result_a.driver_candidates == result_b.driver_candidates
    assert result_a.verification_examined == result_b.verification_examined
    assert result_a.shard_counts == result_b.shard_counts
    assert_plans_equal(result_a.plan, result_b.plan)


class TestFourDistanceEquivalence:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold-cache", "warm-cache"])
    def test_estimates_plans_results_bit_identical(self, datasets, cardnets, tmp_path, warm):
        engine = _build_engine(datasets, cardnets)
        queries = _queries(datasets)
        if warm:
            engine.execute_many(queries)  # populate curves, windows, telemetry
            assert len(engine.service.cache) > 0
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")

        assert len(restored.service.cache) == len(engine.service.cache)
        for name in cardnets:
            assert isinstance(restored.service.registry.get(name).estimator, CardNetEstimator)

        for name in DISTANCES:
            records = [datasets[name].records[i] for i in range(0, 40, 3)]
            grid = restored.service.registry.get(name).curve_thetas
            thetas = np.linspace(float(grid[0]), float(grid[-1]), len(records))
            np.testing.assert_array_equal(
                engine.service.estimate_many(name, records, thetas),
                restored.service.estimate_many(name, records, thetas),
            )
            np.testing.assert_array_equal(
                engine.service.estimate_curve_many(name, records),
                restored.service.estimate_curve_many(name, records),
            )

        for query in _queries(datasets):
            assert_plans_equal(engine.explain(query), restored.explain(query))
        for original, loaded in zip(
            engine.execute_many(queries), restored.execute_many(queries)
        ):
            assert_results_equal(original, loaded)

    def test_warm_restore_serves_from_cache(self, datasets, tmp_path):
        engine = _build_engine(datasets)
        records = [datasets["hamming"].records[i] for i in range(16)]
        engine.service.estimate_curve_many("hamming", records)
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")

        before = restored.service.telemetry.endpoint("hamming").cache_hits
        restored.service.estimate_curve_many("hamming", records)
        stats = restored.service.telemetry.endpoint("hamming")
        # Every request hit the restored warm cache — no model call happened.
        assert stats.cache_hits == before + len(records)
        assert stats.batches == engine.service.telemetry.endpoint("hamming").batches

    def test_restored_cached_curves_stay_frozen(self, datasets, tmp_path):
        engine = _build_engine(datasets)
        engine.service.estimate_curve("hamming", datasets["hamming"].records[0])
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")
        (curve,) = list(restored.service.cache._entries.values())
        with pytest.raises(ValueError):
            curve[0] = 1e9


class TestGPHAndSharded:
    def test_gph_attribute_round_trips(self, datasets, tmp_path):
        dataset = datasets["hamming"]
        engine = SimilarityQueryEngine()
        engine.register_attribute(
            "hm",
            dataset.records,
            "hamming",
            _sampling(dataset.records, "hamming"),
            selector=PigeonholeHammingSelector(dataset.records, part_size=8),
            theta_max=dataset.theta_max,
        )
        query = SimilarityPredicate("hm", dataset.records[4], 6.0)
        original = engine.execute(query)
        assert original.plan.allocation is not None
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")
        binding = restored.catalog.get("hm")
        assert binding.part_endpoints  # per-part endpoints restored
        assert_results_equal(original, restored.execute(query))

    def test_sharded_attribute_round_trips_and_updates(self, datasets, tmp_path):
        dataset = datasets["hamming"]
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec",
            dataset.records,
            "hamming",
            lambda records, shard: UniformSamplingEstimator(
                records, "hamming", sample_ratio=0.5, seed=shard
            ),
            num_shards=3,
            theta_max=dataset.theta_max,
        )
        query = SimilarityPredicate("vec", dataset.records[11], 6.0)
        original = engine.execute(query)
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")

        loaded = restored.execute(query)
        assert_results_equal(original, loaded)
        assert loaded.shard_counts is not None and sum(loaded.shard_counts) == loaded.driver_actual

        # The restored merged endpoint still sums the shard endpoints' estimators.
        endpoints = restored.catalog.get("vec").shard_endpoints
        assert endpoints == engine.catalog.get("vec").shard_endpoints
        merged = restored.service.registry.get("vec").estimator
        assert merged._shard_estimators == [
            restored.service.registry.get(endpoint).estimator for endpoint in endpoints
        ]

        # Post-restore updates route to the same shards as before the save.
        report = restored.apply_update("vec", UpdateOperation("insert", [dataset.records[0]]))
        assert len(report.touched_shards) == 1
        both = engine.apply_update("vec", UpdateOperation("insert", [dataset.records[0]]))
        assert report.touched_shards == both.touched_shards
        assert_results_equal(engine.execute(query), restored.execute(query))


class TestRuntimeBackedTopology:
    """A rebalance builds its target shards on the caller, before a snapshot
    and after a restore alike."""

    @staticmethod
    def _estimator_factory(records, shard):
        return UniformSamplingEstimator(records, "hamming", sample_ratio=0.5, seed=shard)

    def _sharded_runtime_engine(self, dataset):
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec",
            dataset.records,
            "hamming",
            self._estimator_factory,
            num_shards=3,
            theta_max=dataset.theta_max,
        )
        return engine

    def test_rebalances_start_no_thread(self, datasets, tmp_path):
        import threading

        dataset = datasets["hamming"]
        engine = self._sharded_runtime_engine(dataset)
        queries = [
            SimilarityPredicate("vec", dataset.records[i], 6.0) for i in (2, 9, 31, 44)
        ]
        threads = threading.active_count()
        engine.rebalance_attribute("vec", RebalancePlan([SplitShard(0)]))
        assert threading.active_count() == threads

        save_engine(engine, tmp_path / "snap")
        manifest_text = (tmp_path / "snap" / "manifest.json").read_text()
        assert '"_pools"' not in manifest_text
        assert "_thread" not in manifest_text

        restored = load_engine(tmp_path / "snap")
        for original, loaded in zip(
            engine.execute_many(queries), restored.execute_many(queries)
        ):
            assert_results_equal(original, loaded)

        # The next rebalance runs on the caller on both engines, and both
        # still answer query for query, shard counts included.
        restored.set_estimator_factory("vec", self._estimator_factory)
        for live in (engine, restored):
            live.rebalance_attribute("vec", RebalancePlan([SplitShard(1)]))
        assert threading.active_count() == threads
        assert restored.catalog.get("vec").selector.num_shards == 5
        assert engine.catalog.get("vec").selector.num_shards == 5
        for original, loaded in zip(
            engine.execute_many(queries), restored.execute_many(queries)
        ):
            assert_results_equal(original, loaded)

    def test_a_rebalance_after_a_restore_builds_the_saved_shard_configuration(
        self, datasets, tmp_path
    ):
        dataset = datasets["euclidean"]

        def estimators(records, shard):
            return UniformSamplingEstimator(records, "euclidean", sample_ratio=0.5, seed=shard)

        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec", dataset.records, "euclidean", estimators, num_shards=2,
            theta_max=dataset.theta_max,
            selector_factory=lambda records: BallIndexEuclideanSelector(
                records, num_pivots=5, seed=3
            ),
        )
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")
        restored.set_estimator_factory("vec", estimators)
        for live in (engine, restored):
            live.rebalance_attribute("vec", RebalancePlan([SplitShard(0)]))

        def configurations(live):
            return [
                (type(shard), shard.num_pivots, shard.seed, len(shard._pivots))
                for shard in live.catalog.get("vec").selector.shards
            ]

        assert configurations(restored) == configurations(engine)
        assert {config[:3] for config in configurations(engine)} == {
            (BallIndexEuclideanSelector, 5, 3)
        }
        queries = [
            SimilarityPredicate("vec", dataset.records[i], dataset.theta_max / 2)
            for i in (1, 17, 40)
        ]
        for original, loaded in zip(engine.execute_many(queries), restored.execute_many(queries)):
            assert_results_equal(original, loaded)


class TestManagerAndFeedbackResume:
    def _engine_with_manager(self, dataset, workload, estimator):
        engine = SimilarityQueryEngine(
            drift_threshold=1.5, feedback_window=8, min_feedback_observations=4
        )
        engine.register_attribute(
            "vec", dataset.records, "hamming", estimator, theta_max=dataset.theta_max
        )
        manager = IncrementalUpdateManager(
            estimator,
            engine.catalog.get("vec").selector,
            workload.train,
            workload.validation,
            max_epochs_per_update=1,
        )
        engine.attach_manager("vec", manager)
        return engine

    def test_manager_identity_and_drift_resume(
        self, binary_dataset, binary_workload, tmp_path
    ):
        estimator = CardNetEstimator.for_dataset(
            binary_dataset, accelerated=True, epochs=2, vae_pretrain_epochs=1, seed=0
        )
        estimator.fit(binary_workload.train, binary_workload.validation)
        engine = self._engine_with_manager(binary_dataset, binary_workload, estimator)
        queries = [
            SimilarityPredicate("vec", binary_dataset.records[i], 5.0) for i in range(6)
        ]
        engine.execute_many(queries)
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap")

        # The restored manager serves the SAME estimator object the endpoint
        # serves, on the engine's own service — a retrain reaches serving.
        link = restored._links["vec"]
        manager = link.managers[0]
        assert manager.estimator is restored.service.registry.get("vec").estimator
        assert manager.service is restored.service
        assert manager.selector is restored.catalog.get("vec").selector
        assert restored.feedback._managers["vec"] is link
        assert (
            manager._baseline_validation_error
            == engine._links["vec"].managers[0]._baseline_validation_error
        )

        # Optimizer moments survive, so incremental retraining resumes from
        # exactly the saved trajectory.
        original_opt = estimator.trainer._optimizer
        restored_opt = manager.estimator.trainer._optimizer
        assert restored_opt._step_count == original_opt._step_count
        for m_a, m_b in zip(original_opt._m, restored_opt._m):
            np.testing.assert_array_equal(m_a, m_b)

        # Same post-restore observations → drift fires identically on both
        # (the sliding windows were restored mid-flight).
        for engine_side in (engine, restored):
            event = None
            while event is None:
                event = engine_side.feedback.observe("vec", 1.0, 1000.0)
        original_event = engine.feedback.events[-1]
        restored_event = restored.feedback.events[-1]
        assert original_event.window_q_error == restored_event.window_q_error
        assert original_event.observations == restored_event.observations
        assert (original_event.revalidation is None) == (restored_event.revalidation is None)


#: A format-16 engine with two 3-shard CardNet attributes (``hm_a``
#: accelerated, ``hm`` not), and the merged curves it served.
#: ``make_format16_sharded.py`` in the same directory wrote it; its curves
#: equal those written before shard CardNets were stacked into one pass.
FORMAT16_SHARDED = Path(__file__).parent / "data" / "format16_sharded"


class TestStackedShardSnapshots:
    """The merged endpoint's parameter stack is runtime state: a snapshot does
    not hold it, and the committed one serves the curves its per-shard passes
    served before the stack existed."""

    def test_format_version_is_unchanged(self):
        assert FORMAT_VERSION == 16
        assert inspect_snapshot(FORMAT16_SHARDED).format_version == FORMAT_VERSION

    def test_snapshot_from_before_stacking_serves_its_merged_curves(self):
        expected = json.loads((FORMAT16_SHARDED / "curves.json").read_text())
        restored = load_engine(FORMAT16_SHARDED)
        for name, curves in expected.items():
            records = list(restored.catalog.get(name).records[: len(curves)])
            served = restored.service.estimate_curve_many(name, records)
            assert np.array_equal(served, np.asarray(curves)), name
            merged = restored.service.registry.get(name).estimator
            assert merged._stack.members == merged._shard_estimators

    def test_snapshot_bytes_do_not_depend_on_the_stack(self, tmp_path):
        engine = load_engine(FORMAT16_SHARDED)
        mergeds = [engine.service.registry.get(name).estimator for name in ("hm", "hm_a")]
        records = list(engine.catalog.get("hm").records[:5])
        for merged in mergeds:  # every shard's own memos, as a per-shard pass leaves them
            for estimator in merged._shard_estimators:
                estimator.estimate_curve_many(records, merged.curve_thetas())
        before = save_engine(engine, tmp_path / "before")
        for merged in mergeds:  # bypasses the service: no cache entry, no telemetry
            merged.estimate_curve_many(records, merged.curve_thetas())
            assert merged._stack.estimator is not None
        after = save_engine(engine, tmp_path / "after")
        assert after.total_bytes == before.total_bytes
        files = [{path.name: path.read_bytes() for path in info.path.iterdir()}
                 for info in (before, after)]
        assert files[0] == files[1]


class TestCorruptSnapshotsRefused:
    """``SimilarityQueryEngine.load`` raises the typed error on each fault."""

    @pytest.fixture
    def snapshot(self, tmp_path):
        directory = tmp_path / "snap"
        shutil.copytree(FORMAT16_SHARDED, directory)
        return directory

    @staticmethod
    def _payload(directory):
        manifest = json.loads((directory / "manifest.json").read_text())
        return directory / manifest["payload"], manifest

    def test_payload_cut_short_by_one_byte(self, snapshot):
        payload, _ = self._payload(snapshot)
        payload.write_bytes(payload.read_bytes()[:-1])
        with pytest.raises(SnapshotFormatError, match="partial restore"):
            SimilarityQueryEngine.load(snapshot)

    def test_one_flipped_byte_inside_a_referenced_array(self, snapshot):
        payload, manifest = self._payload(snapshot)
        entry = max(manifest["arrays"], key=lambda array: array["nbytes"])
        data = bytearray(payload.read_bytes())
        data[entry["offset"] + entry["nbytes"] // 2] ^= 0x01
        payload.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="SHA-256"):
            SimilarityQueryEngine.load(snapshot)

    @pytest.mark.parametrize("version", [8, 15])
    def test_old_version_manifest(self, snapshot, version):
        manifest_file = snapshot / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        manifest["version"] = version
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match=rf"version {version}\b.*version 16\b"):
            SimilarityQueryEngine.load(snapshot)


class TestInventory:
    def test_manifest_meta_inventories_the_engine(self, datasets, tmp_path):
        engine = _build_engine(datasets)
        engine.execute_many(_queries(datasets))
        info = save_engine(engine, tmp_path / "snap")
        assert info.kind == "engine"
        assert info.meta["attributes"] == DISTANCES_SORTED
        assert set(info.meta["endpoints"]) == set(DISTANCES)
        assert info.meta["cached_curves"] == len(engine.service.cache)
        probe = inspect_snapshot(tmp_path / "snap")
        assert probe.kind == "engine"
        assert probe.num_arrays == info.num_arrays
        assert probe.meta == info.meta


DISTANCES_SORTED = sorted(DISTANCES)
