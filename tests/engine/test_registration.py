"""The engine's one registration path: all or nothing, on one curve grid.

Every way an attribute's serving endpoints come up — ``register_attribute``
(its own endpoint, plus ``::partJ`` for a pigeonhole index), the per-part
rebuild after an update, ``register_sharded_attribute`` (``#shardK`` plus the
merged endpoint) and ``rebalance_attribute`` (the same for the new layout) —
runs through one routine.  The first half of this file makes each of them fail
at every failure point that exists and checks that catalog, registry, the
binding's endpoint lists, the engine's group / manager maps and the selector's
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
from repro.sharding import HashPartitioner, MergeShards, RebalancePlan, SplitShard

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
        "groups": sorted(engine._groups),
        "links": sorted(engine._links),
        "num_shards": {
            b.name: (b.selector.num_shards, b.selector.shard_sizes())
            for b in engine.catalog
            if b.sharded
        },
        "in_flight": [
            b.selector.stats()["rebalance_in_flight"] for b in engine.catalog if b.sharded
        ],
    }


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
    assert seen == [(k, list, size) for k, size in enumerate(binding.selector.shard_sizes())]
    for (_, _, size), shard in zip(seen, binding.selector.shards):
        assert size == len(shard)


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


def test_part_swap_that_cannot_build_keeps_the_old_family(gph_engine, dataset, monkeypatch):
    import repro.engine.engine as engine_module

    engine = gph_engine
    before = state(engine)
    built = []

    def exploding_histogram(matrix):
        built.append(matrix.shape)
        if len(built) == 3:
            raise RuntimeError("histogram exploded")
        return HistogramHammingEstimator(matrix)

    monkeypatch.setattr(engine_module, "HistogramHammingEstimator", exploding_histogram)
    with pytest.raises(RuntimeError, match="histogram exploded"):
        engine.apply_update("y", UpdateOperation("insert", new_rows()))
    monkeypatch.undo()
    # Nothing was unregistered: the very same (now stale) part family serves.
    assert state(engine) == before
    assert len(engine.catalog.get("y")) == ROWS + 5  # the rows did change
    engine.apply_update("x", UpdateOperation("insert", new_rows()))
    assert_exact(engine)  # answers never read an estimate
    engine.apply_update("y", UpdateOperation("delete", [0, 1]))
    engine.apply_update("x", UpdateOperation("delete", [0, 1]))
    assert state(engine)["registry"] != before["registry"]  # fresh histograms
    assert_exact(engine)


def test_part_swap_that_cannot_register_restores_the_old_family(
    gph_engine, dataset, monkeypatch
):
    """Torn-parts, update side: at the parent a refusal on ``y::part2`` left 2
    of 4 part endpoints behind a binding that still said ``uses_gph``."""
    engine = gph_engine
    before = state(engine)
    register = engine.service.register
    refused = []

    def refusing(name, estimator, **options):
        if name == "y::part2" and not refused:
            refused.append(name)
            raise KeyError("estimator 'y::part2' is already registered")
        return register(name, estimator, **options)

    monkeypatch.setattr(engine.service, "register", refusing)
    with pytest.raises(KeyError):
        engine.apply_update("y", UpdateOperation("insert", new_rows()))
    monkeypatch.undo()
    # The pre-update family is back whole: same estimators, grids and flags.
    assert refused and state(engine) == before
    binding = engine.catalog.get("y")
    assert binding.uses_gph and len(binding.part_endpoints) == 4
    engine.apply_update("x", UpdateOperation("insert", new_rows()))
    assert_exact(engine)
    record = np.asarray(binding.records)[3]
    assert engine.explain(SimilarityPredicate("y", record, 6.0)).allocation is not None


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
    selector = engine.catalog.get("y").selector
    assert selector.stats()["rebalance_in_flight"] is False
    assert selector.num_shards == 4
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
    """Torn-rebalance reproduction: at the parent a factory failing on the
    second new shard left 5 index shards behind 4 shard endpoints, and the next
    ``apply_update`` raised ``IndexError``."""
    engine = sharded_engine
    before = state(engine)
    engine.set_estimator_factory("y", ExplodingFactory(fail_on))
    with pytest.raises(RuntimeError, match="exploded"):
        engine.rebalance_attribute("y", RebalancePlan([SplitShard(0, parts=2)]))
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


def test_commit_refusal_during_rebalance_restores_the_old_endpoints(sharded_engine):
    """The selector refuses the swap (a partitioner for the wrong width) after
    the new endpoints are up: they come down and the old family is back."""
    engine = sharded_engine
    before = state(engine)
    with pytest.raises(ValueError, match="partitioner covers 7 shards"):
        engine.rebalance_attribute(
            "y", RebalancePlan([SplitShard(0, parts=2)]), partitioner=HashPartitioner(7)
        )
    assert_rebalance_left_nothing(engine, before)


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
