"""The engine's one registration path: all or nothing, on one curve grid.

Every way an attribute's serving endpoints come up — ``register_attribute``
(its own endpoint, plus ``::partJ`` for a pigeonhole index),
``register_sharded_attribute`` (``#shardK`` plus the merged endpoint) and
``rebalance_attribute`` (the same for the new layout) — runs through one
routine; an update keeps the ``::partJ`` histograms by its delta, all parts or
none.  The first half of this file makes each of them fail
at every failure point that exists and checks that catalog, registry, the
binding's endpoint lists, the engine's manager map and the selector's
layout are what they were before the call, that a seeded query sample still
equals a linear scan, and that the corrected retry succeeds.  The second half
sends one ``(estimators, curve_thetas, theta_max, distance)`` through every
registration surface and expects one grid.
"""

import numpy as np
import pytest

from repro.baselines import HistogramHammingEstimator, UniformSamplingEstimator
from repro.core import IncrementalUpdateManager
from repro.datasets import make_binary_dataset, make_vector_dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection import LinearScanSelector
from repro.serving import EstimationService
from repro.sharding import (
    MergedShardEstimator, MergeShards, RebalancePlan, ShardedSelector, SplitShard,
    StaleRebalanceError,
)

ROWS, WIDTH, THETA_MAX = 120, 32, 12


@pytest.fixture(scope="module")
def dataset():
    return make_binary_dataset(
        num_records=ROWS, dimension=WIDTH, num_clusters=3, flip_probability=0.1,
        theta_max=THETA_MAX, seed=5, name="HM-Reg",
    )


def sampler(records, seed=0):
    return UniformSamplingEstimator(records, "hamming", sample_ratio=0.3, seed=seed)


def factory(shard_records, shard_index):
    return sampler(shard_records, seed=shard_index)


class ExplodingFactory:
    """Raises on the ``fail_on``-th call (0-based); records every call."""

    def __init__(self, fail_on):
        self.fail_on = fail_on
        self.calls = []

    def __call__(self, shard_records, shard_index):
        self.calls.append(shard_index)
        if len(self.calls) - 1 == self.fail_on:
            raise RuntimeError("estimator factory exploded")
        return factory(shard_records, shard_index)


class Gridded(UniformSamplingEstimator):
    """A sampling estimator that brings its own canonical grid."""

    def __init__(self, records, grid):
        super().__init__(records, "hamming", sample_ratio=0.3, seed=0)
        self._grid = np.asarray(grid, dtype=np.float64)

    def curve_thetas(self):
        return self._grid


def state(engine):
    """Everything a registration may touch, in comparable form."""
    service = engine.service
    return {
        "catalog": engine.catalog.names(),
        "registry": {
            entry.name: (id(entry.estimator), entry.canonical, entry.curve_thetas.tolist())
            for entry in service.registry
        },
        "shard_endpoints": {b.name: list(b.shard_endpoints) for b in engine.catalog},
        "part_endpoints": {b.name: list(b.part_endpoints) for b in engine.catalog},
        "links": sorted(engine._links),
        "num_shards": {
            b.name: (b.selector.num_shards, b.selector.shard_sizes())
            for b in engine.catalog
            if b.sharded
        },
        "shards": {b.name: [id(s) for s in b.selector.shards] for b in engine.catalog if b.sharded},
    }


def shard_estimators(engine, name):
    """The estimators behind a sharded attribute's ``#shardK`` endpoints."""
    registry = engine.service.registry
    return [registry.get(e).estimator for e in engine.catalog.get(name).shard_endpoints]


def assert_exact(engine, seed=17):
    """A seeded query sample per attribute equals a linear scan of its rows."""
    rng = np.random.default_rng(seed)
    for binding in engine.catalog:
        rows = np.asarray(binding.records)
        scan = LinearScanSelector(rows, get_distance("hamming"))
        for position in rng.integers(0, len(rows), size=4):
            theta = float(rng.integers(2, THETA_MAX))
            result = engine.execute(SimilarityPredicate(binding.name, rows[position], theta))
            assert result.record_ids == scan.query(rows[position], theta)


@pytest.fixture
def engine(dataset):
    """One plain attribute ``x`` already serving; ``y`` is what each case adds."""
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "x", dataset.records, "hamming", sampler(dataset.records), theta_max=THETA_MAX
    )
    return engine


def occupy(engine, dataset, endpoint):
    engine.service.register(endpoint, sampler(dataset.records, seed=9), theta_max=THETA_MAX)


# --------------------------------------------------------------------------- #
# First registrations: register_attribute / register_sharded_attribute
# --------------------------------------------------------------------------- #
def plain(engine, rows, **options):
    options.setdefault("theta_max", THETA_MAX)
    return engine.register_attribute("y", rows, "hamming", sampler(rows), **options)


def gph(engine, rows, **options):
    return plain(engine, rows, gph_part_size=8, **options)


def sharded(engine, rows, estimator_factory=factory, **options):
    options.setdefault("theta_max", THETA_MAX)
    options.setdefault("num_shards", 3)
    return engine.register_sharded_attribute("y", rows, "hamming", estimator_factory, **options)


REGISTRATIONS = {"plain": plain, "gph": gph, "sharded": sharded}

#: (site, endpoint occupied on the service beforehand)
TAKEN = [
    ("plain", "y"),
    ("gph", "y"),
    ("gph", "y::part2"),
    ("sharded", "y#shard1"),
    ("sharded", "y"),
]


@pytest.mark.parametrize("site, endpoint", TAKEN, ids=[f"{s}-{e}" for s, e in TAKEN])
def test_family_name_already_on_the_service(engine, dataset, site, endpoint):
    """The torn-parts reproduction is ``gph-y::part2``: at the parent it left
    ``y`` in the catalog with 2 of 4 part endpoints and ``uses_gph`` still
    true, and ``engine.execute`` then raised ``IndexError``."""
    occupy(engine, dataset, endpoint)
    before = state(engine)
    with pytest.raises(KeyError):
        REGISTRATIONS[site](engine, dataset.records)
    assert state(engine) == before
    assert_exact(engine)
    engine.service.unregister(endpoint)
    binding = REGISTRATIONS[site](engine, dataset.records)
    assert binding.uses_gph == (site == "gph") and binding.sharded == (site == "sharded")
    assert_exact(engine)


@pytest.mark.parametrize("site", sorted(REGISTRATIONS))
@pytest.mark.parametrize("refusal", ["misaligned", "empty", "duplicate"])
def test_catalog_refusal(engine, dataset, site, refusal):
    """The leak reproduction is ``plain-misaligned``: at the parent the retry
    raised ``KeyError: estimator 'y' is already registered``."""
    exploding = ExplodingFactory(fail_on=10**6)
    before = state(engine)
    if refusal == "duplicate":
        REGISTRATIONS[site](engine, dataset.records)
        before = state(engine)
        error = KeyError
        rows = dataset.records
    else:
        error = ValueError
        rows = dataset.records[: 0 if refusal == "empty" else ROWS - 20]
    options = {"estimator_factory": exploding} if site == "sharded" else {}
    with pytest.raises(error):
        REGISTRATIONS[site](engine, rows, **options)
    assert state(engine) == before
    # The catalog is asked before anything dear is built.
    assert exploding.calls == []
    assert_exact(engine)
    if refusal != "duplicate":
        REGISTRATIONS[site](engine, dataset.records)
        assert_exact(engine)


@pytest.mark.parametrize("site", sorted(REGISTRATIONS))
def test_non_monotone_explicit_grid(engine, dataset, site):
    before = state(engine)
    with pytest.raises(ValueError, match="non-decreasing"):
        REGISTRATIONS[site](engine, dataset.records, curve_thetas=[0.0, 4.0, 2.0, 12.0])
    assert state(engine) == before
    REGISTRATIONS[site](engine, dataset.records, curve_thetas=[0.0, 2.0, 4.0, 12.0])
    assert_exact(engine)


@pytest.mark.parametrize("fail_on", [0, 1, 2])
def test_factory_raising_on_shard_k(engine, dataset, fail_on):
    exploding = ExplodingFactory(fail_on)
    before = state(engine)
    with pytest.raises(RuntimeError, match="exploded"):
        sharded(engine, dataset.records, estimator_factory=exploding)
    assert exploding.calls == list(range(fail_on + 1))
    assert state(engine) == before
    assert_exact(engine)
    sharded(engine, dataset.records)
    assert_exact(engine)


def test_shard_estimators_with_different_canonical_grids(engine, dataset):
    def mismatched(shard_records, shard_index):
        return Gridded(shard_records, np.arange(THETA_MAX + 1 + shard_index))

    before = state(engine)
    with pytest.raises(ValueError, match="different canonical curve grid"):
        sharded(engine, dataset.records, estimator_factory=mismatched, theta_max=None)
    assert state(engine) == before
    binding = sharded(
        engine,
        dataset.records,
        estimator_factory=lambda rows, k: Gridded(rows, np.arange(THETA_MAX + 1)),
        theta_max=None,
    )
    assert binding.theta_max == THETA_MAX
    assert_exact(engine)


def test_factory_is_called_once_per_shard_in_order_with_lists(engine, dataset):
    seen = []

    def recording(shard_records, shard_index):
        seen.append((shard_index, type(shard_records), len(shard_records)))
        return factory(shard_records, shard_index)

    binding = sharded(engine, dataset.records, estimator_factory=recording, num_shards=4)
    assert seen == [(k, list, size) for k, size in enumerate(binding.selector.shard_sizes())]
    del seen[:]
    engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    sizes = binding.selector.shard_sizes()
    assert seen == [(k, list, sizes[k]) for k in (0, 4)]  # the built targets only
    for shard_index, _, size in seen:
        assert size == len(binding.selector.shards[shard_index])


def curves(engine, endpoints, records):
    engine.service.invalidate()  # computed now, not read back from the cache
    return {e: engine.service.estimate_curve_many(e, records) for e in endpoints}


def test_a_rebalance_trains_only_the_shards_it_builds(engine, dataset):
    """``SplitShard(0)`` on 4 shards builds targets 0 and 4; targets 1-3 are
    the old shards 1-3 and keep their estimators.  Their endpoints and the
    merged one answer exactly what retraining every target would."""
    calls = []

    def counting(shard_records, shard_index):
        calls.append(shard_index)
        return sampler(shard_records)  # a function of the rows alone

    binding = sharded(engine, dataset.records, estimator_factory=counting, num_shards=4)
    kept = shard_estimators(engine, "y")[1:]
    records = list(np.asarray(binding.records)[:12])
    untouched = [f"y#shard{k}" for k in (1, 2, 3)]
    before = curves(engine, untouched, records)
    del calls[:]
    engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    assert calls == [0, 4]
    assert shard_estimators(engine, "y")[1:4] == kept
    after = curves(engine, untouched + ["y"], records)
    for endpoint in untouched:
        assert np.array_equal(after[endpoint], before[endpoint]), endpoint
    grid = engine.service.registry.get("y").curve_thetas
    retrained = MergedShardEstimator(
        [sampler(shard.dataset) for shard in binding.selector.shards], grid
    )
    assert np.array_equal(after["y"], retrained.estimate_curve_many(records, grid))


def test_a_backend_other_than_thread_is_refused_before_anything_is_built(engine, dataset):
    """Shards fan out on the caller's thread or the runtime's threads; there
    are no worker processes to ask for."""
    exploding = ExplodingFactory(fail_on=10**6)
    before = state(engine)
    with pytest.raises(ValueError, match="backend"):
        sharded(engine, dataset.records, estimator_factory=exploding, backend="process")
    assert state(engine) == before
    assert exploding.calls == []
    assert sharded(engine, dataset.records, backend="thread").sharded
    assert_exact(engine)


# --------------------------------------------------------------------------- #
# Swaps: part endpoints after an update, shard endpoints after a rebalance
# --------------------------------------------------------------------------- #
@pytest.fixture
def gph_engine(engine, dataset):
    gph(engine, dataset.records)
    return engine


def new_rows(count=5, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, WIDTH), dtype=np.uint8)


def part_tables(engine, name="y"):
    """Each ``::partJ`` histogram's row count, patterns and counts, copied."""
    tables = []
    for endpoint in engine.catalog.get(name).part_endpoints:
        estimator = engine.service.registry.get(endpoint).estimator
        tables.append((
            estimator._num_records,
            [patterns.tobytes() for patterns in estimator._pattern_matrices],
            [counts.tolist() for counts in estimator._pattern_counts],
        ))
    return tables


def test_part_swap_that_cannot_build_keeps_the_old_family(gph_engine, dataset, monkeypatch):
    """A part histogram that cannot take the delta (``y::part2`` raises, after
    parts 0 and 1 computed theirs) leaves every part, the index and the
    column as they were: all parts are staged before any is adopted."""
    engine = gph_engine
    before, tables = state(engine), part_tables(engine)
    part2 = engine.service.registry.get("y::part2").estimator

    def exploding(inserted, removed):
        raise RuntimeError("histogram exploded")

    monkeypatch.setattr(part2, "counts_after", exploding)
    with pytest.raises(RuntimeError, match="histogram exploded"):
        engine.apply_update("y", UpdateOperation("insert", new_rows()))
    monkeypatch.undo()
    assert state(engine) == before and part_tables(engine) == tables
    binding = engine.catalog.get("y")
    assert len(binding) == len(binding.selector) == ROWS  # nothing landed
    assert_exact(engine)
    engine.apply_update("y", UpdateOperation("delete", [0, 1]))
    engine.apply_update("x", UpdateOperation("delete", [0, 1]))
    assert state(engine) == before  # the same endpoints, kept by the delta
    assert part_tables(engine) != tables
    assert_exact(engine)


@pytest.fixture
def sharded_engine(engine, dataset):
    """``y`` on 4 shards, every shard with an attached (routed) manager."""
    binding = sharded(engine, dataset.records, num_shards=4)

    class Manager(IncrementalUpdateManager):
        def __init__(self, shard):  # a wiring stub: no model, no labels
            self.selector, self.service, self.service_endpoint = shard, None, None

        def ensure_baseline(self):
            pass

    engine.attach_shard_managers("y", [Manager(shard) for shard in binding.selector.shards])
    return engine


def assert_rebalance_left_nothing(engine, before):
    assert state(engine) == before
    assert engine.catalog.get("y").selector.num_shards == 4
    assert sorted(engine._links["y"].managers) == [0, 1, 2, 3]
    assert_exact(engine)
    engine._links.pop("y")  # the stubs cannot process updates
    engine.apply_update("y", UpdateOperation("insert", new_rows()))
    engine.apply_update("x", UpdateOperation("insert", new_rows()))
    assert_exact(engine)
    report = engine.rebalance_attribute("y", RebalancePlan([SplitShard(0), MergeShards((2, 3))]))
    assert report.num_shards_after == 4 and engine.catalog.get("y").selector.num_shards == 4
    assert_exact(engine)


@pytest.mark.parametrize("fail_on", [0, 1, 4])
def test_factory_raising_during_rebalance(sharded_engine, fail_on):
    """Torn-rebalance reproduction: a factory failing on the second new shard
    once left 5 index shards behind 4 shard endpoints, and the next
    ``apply_update`` raised ``IndexError``.  The plan builds five targets
    (0, 1, 4, 5, 6); ``fail_on`` is the first, second and last of them."""
    engine = sharded_engine
    before = state(engine)
    factory_ = ExplodingFactory(fail_on)
    engine.set_estimator_factory("y", factory_)
    with pytest.raises(RuntimeError, match="exploded"):
        engine.rebalance_attribute(
            "y", RebalancePlan([SplitShard(0, parts=2), SplitShard(1, parts=3)])
        )
    assert factory_.calls == [0, 1, 4, 5, 6][: fail_on + 1]
    engine.set_estimator_factory("y", factory)
    assert_rebalance_left_nothing(engine, before)


def test_new_shard_name_taken_during_rebalance(sharded_engine, dataset):
    engine = sharded_engine
    occupy(engine, dataset, "y#shard4")
    before = state(engine)
    with pytest.raises(KeyError):
        engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    engine.service.unregister("y#shard4")
    before["registry"].pop("y#shard4")
    assert_rebalance_left_nothing(engine, before)


def test_commit_refusal_during_rebalance_restores_the_old_endpoints(
    sharded_engine, monkeypatch
):
    """The selector refuses the swap after the new endpoints are up: they
    come down and the old family is back."""
    engine = sharded_engine
    before = state(engine)

    def refuse(selector, staged):
        raise ValueError("swap refused")

    with monkeypatch.context() as patch:
        patch.setattr(ShardedSelector, "swap_layout", refuse)
        with pytest.raises(ValueError, match="swap refused"):
            engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    assert_rebalance_left_nothing(engine, before)


def test_update_landing_before_the_swap_refuses_the_rebalance(engine, dataset):
    """An update between staging and the swap (here: applied from inside the
    estimator factory) makes the selector refuse the stale layout; the new
    endpoints come down and the old family serves the updated rows."""
    binding = sharded(engine, dataset.records, num_shards=4)
    rows = new_rows()

    def updating(shard_records, shard_index):
        if shard_index == 0:
            engine.apply_update("y", UpdateOperation("insert", rows))
        return factory(shard_records, shard_index)

    engine.set_estimator_factory("y", updating)
    before = state(engine)
    with pytest.raises(StaleRebalanceError, match="stage the plan again"):
        engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    after = state(engine)
    assert after.pop("num_shards")["y"][0] == before.pop("num_shards")["y"][0] == 4
    assert after == before
    assert len(binding.selector) == len(binding.records) == ROWS + len(rows)
    assert_exact(engine)
    engine.set_estimator_factory("y", factory)
    report = engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    assert report.num_shards_after == 5 == len(binding.shard_endpoints)
    assert_exact(engine)


def cardnet_factory(parent):
    """Tiny untrained CardNets: one configuration, so the merged endpoint
    answers through one stacked pass over every shard's parameters."""
    from repro.core import CardNetConfig, CardNetEstimator
    from repro.datasets.synthetic import Dataset
    from repro.featurization import build_feature_extractor

    def build(shard_records, shard_index):
        shard = Dataset(
            name=parent.name, records=shard_records, distance_name="hamming",
            theta_max=parent.theta_max,
            cluster_labels=np.zeros(len(shard_records), dtype=np.int64),
            extra=dict(parent.extra),
        )
        config = CardNetConfig(
            vae_latent_dimension=3, vae_hidden_sizes=(6,), distance_embedding_dimension=2,
            embedding_dimension=4, encoder_hidden_sizes=(6, 5),
        )
        return CardNetEstimator(build_feature_extractor(shard), config=config, seed=shard_index)

    return build


def test_a_stale_swap_leaves_the_old_family_serving_its_curves(engine, dataset):
    """The kept estimators are stacked into the new merged endpoint before
    the swap is refused; the old family still answers bit for bit."""
    build = cardnet_factory(dataset)
    binding = sharded(engine, dataset.records, estimator_factory=build, num_shards=4)
    endpoints = [*binding.shard_endpoints, "y"]
    records = list(np.asarray(binding.records)[:10])
    before = curves(engine, endpoints, records)
    kept = shard_estimators(engine, "y")

    def updating(shard_records, shard_index):
        if shard_index == 0:
            engine.apply_update("y", UpdateOperation("insert", new_rows()))
        return build(shard_records, shard_index)

    engine.set_estimator_factory("y", updating)
    with pytest.raises(StaleRebalanceError):
        engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
    assert shard_estimators(engine, "y") == kept
    after = curves(engine, endpoints, records)
    for endpoint in endpoints:
        assert np.array_equal(after[endpoint], before[endpoint]), endpoint


# --------------------------------------------------------------------------- #
# One grid rule, whichever surface registers
# --------------------------------------------------------------------------- #
def vectors():
    return make_vector_dataset(
        num_records=ROWS, dimension=8, num_clusters=3, cluster_std=0.2,
        theta_max=0.8, seed=5, name="EU-Reg",
    )


def canonical_histogram(rows, k=0):
    return HistogramHammingEstimator(np.asarray(rows, dtype=np.uint8))


GRID_CASES = {
    # name: (distance, estimator(rows, k), curve_thetas, theta_max, expected grid, canonical)
    "integer-distance-theta-max": (
        "hamming", factory, None, THETA_MAX, np.arange(THETA_MAX + 1.0), False,
    ),
    "real-distance-theta-max": (
        "euclidean",
        lambda rows, k: UniformSamplingEstimator(rows, "euclidean", sample_ratio=0.3, seed=k),
        None, 0.8, np.linspace(0.0, 0.8, 65), False,
    ),
    "explicit": ("hamming", factory, [0.0, 1.0, 5.0, 9.0], THETA_MAX, [0.0, 1.0, 5.0, 9.0], False),
    "explicit-beats-canonical": (
        "hamming", canonical_histogram, [0.0, 8.0, 32.0], None, [0.0, 8.0, 32.0], False,
    ),
    "canonical": ("hamming", canonical_histogram, None, None, np.arange(WIDTH + 1.0), True),
    "canonical-beats-theta-max": (
        "hamming", canonical_histogram, None, THETA_MAX, np.arange(WIDTH + 1.0), True,
    ),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_one_grid_through_every_surface(dataset, case):
    distance, make, curve_thetas, theta_max, expected, canonical = GRID_CASES[case]
    rows = dataset.records if distance == "hamming" else vectors().records
    grids = {}

    service = EstimationService()
    entry = service.register(
        "a", make(rows, 0), curve_thetas=curve_thetas, theta_max=theta_max,
        distance_name=distance,
    )
    grids["service.register"] = entry.curve_thetas
    assert entry.canonical == canonical

    engine = SimilarityQueryEngine()
    binding = engine.register_attribute(
        "a", rows, distance, make(rows, 0), curve_thetas=curve_thetas, theta_max=theta_max
    )
    entry = engine.service.registry.get("a")
    grids["register_attribute"] = entry.curve_thetas
    assert entry.canonical == canonical
    assert binding.theta_max == (expected[-1] if theta_max is None else theta_max)

    for num_shards in (1, 2, 4):
        engine = SimilarityQueryEngine()
        binding = engine.register_sharded_attribute(
            "a", rows, distance, make, num_shards=num_shards,
            curve_thetas=curve_thetas, theta_max=theta_max,
        )
        registry = engine.service.registry
        for endpoint in binding.shard_endpoints:
            grids[f"{num_shards} shards, {endpoint}"] = registry.get(endpoint).curve_thetas
            assert registry.get(endpoint).canonical is False  # an explicit, shared grid
        grids[f"{num_shards} shards, merged"] = registry.get("a").curve_thetas
        assert registry.get("a").canonical is True  # the merged estimator's own
        assert binding.theta_max == (expected[-1] if theta_max is None else theta_max)

    for surface, grid in grids.items():
        assert grid.dtype == np.float64, surface
        assert np.array_equal(grid, np.asarray(expected, dtype=np.float64)), surface
