"""What an index answers a residual verify with, and what it prices it at.

* ``distances_at`` equals the distance's ``cross_distances`` over
  ``rows_at`` on every engine index, sharded or not, with tombstones or not;
* every concrete selector class prices a probe and a verify at a
  non-negative cost that does not fall as the estimate or the row count grows
  (the planner's argmin would reward a plan for being bigger otherwise).
"""

import numpy as np
import pytest

from repro.datasets import (
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.distances import get_distance
from repro.selection import (
    BallIndexEuclideanSelector,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
    SimilaritySelector,
)
from repro.sharding import ShardedSelector

ROWS = 50
BITS = make_binary_dataset(num_records=ROWS, dimension=72, num_clusters=3, seed=8).records
STRINGS = make_string_dataset(num_records=ROWS, num_clusters=3, base_length=6, seed=8).records
SETS = make_set_dataset(
    num_records=ROWS, num_clusters=3, universe_size=30, base_set_size=5, seed=8
).records
VECTORS = make_vector_dataset(num_records=ROWS, dimension=5, num_clusters=3, seed=8).records

#: concrete selector class → a small instance of it
BUILDERS = {
    PackedHammingSelector: lambda: PackedHammingSelector(BITS),
    PigeonholeHammingSelector: lambda: PigeonholeHammingSelector(BITS, part_size=16),
    QGramEditSelector: lambda: QGramEditSelector(STRINGS),
    PrefixFilterJaccardSelector: lambda: PrefixFilterJaccardSelector(SETS),
    BallIndexEuclideanSelector: lambda: BallIndexEuclideanSelector(VECTORS),
    LinearScanSelector: lambda: LinearScanSelector(STRINGS, get_distance("edit")),
    ShardedSelector: lambda: ShardedSelector(STRINGS, QGramEditSelector, num_shards=3),
}


def concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro.") and not getattr(sub, "__abstractmethods__", None):
            yield sub
        yield from concrete_subclasses(sub)


def test_every_concrete_selector_class_is_priced():
    assert set(concrete_subclasses(SimilaritySelector)) <= set(BUILDERS)


@pytest.mark.parametrize("cls", sorted(BUILDERS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_costs_are_non_negative_and_do_not_fall(cls):
    selector = BUILDERS[cls]()
    counts = [0.0, 0.5, 1.0, 7.0, 50.0, 1e4]
    probes = [selector.probe_cost(count) for count in counts]
    verifies = [selector.verify_cost(count) for count in counts]
    for costs in (probes, verifies):
        assert costs[0] >= 0.0
        assert all(later >= earlier for earlier, later in zip(costs, costs[1:]))
    # A probe of a bigger index costs no less.
    grown = BUILDERS[cls]()
    grown.insert_many(grown.rows_at(np.arange(len(grown))))
    assert grown.probe_cost(7.0) >= selector.probe_cost(7.0)


CASES = {
    "packed_hamming": (BITS, "hamming", PackedHammingSelector),
    "pigeonhole_hamming": (BITS, "hamming", lambda rows: PigeonholeHammingSelector(rows, part_size=16)),
    "qgram_edit": (STRINGS, "edit", QGramEditSelector),
    "prefix_jaccard": (SETS, "jaccard", PrefixFilterJaccardSelector),
    "ball_euclidean": (VECTORS, "euclidean", BallIndexEuclideanSelector),
}


@pytest.mark.parametrize("deleted", [False, True], ids=["compact", "tombstoned"])
@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "3-shard"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_distances_at_equals_cross_distances_over_rows_at(name, sharded, deleted):
    rows, distance_name, build = CASES[name]
    selector = ShardedSelector(rows, build, num_shards=3) if sharded else build(rows)
    if deleted:
        selector.delete_many([0, 7, 8, 31])
    distance = get_distance(distance_name)
    rng = np.random.default_rng(1)
    for probe in (0, 13, 40):
        ids = rng.choice(len(selector), size=12, replace=False)  # unsorted on purpose
        expected = distance.cross_distances([rows[probe]], selector.rows_at(ids))[0]
        assert np.array_equal(selector.distances_at(rows[probe], ids), expected)
    assert selector.distances_at(rows[0], np.zeros(0, dtype=np.int64)).size == 0


def test_packed_distances_at_takes_the_default_path_for_a_non_binary_record():
    selector = PackedHammingSelector(BITS)
    record = BITS[3].copy()
    record[:4] = 2
    ids = np.arange(10)
    expected = get_distance("hamming").cross_distances([record], BITS[:10])[0]
    assert np.array_equal(selector.distances_at(record, ids), expected)
