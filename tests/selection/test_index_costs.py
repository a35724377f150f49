"""What an index answers a residual verify with, and what it prices it at.

* ``distances_at`` equals the distance's ``cross_distances`` over
  ``rows_at`` on every engine index, sharded or not, with tombstones or not;
  with several queries in one call each (query, row) pair equals its own
  ``cross_distances``, also at the edit kernel's edges and for a non-0/1
  Hamming record among 0/1 ones (which sends the call down the default path);
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
        assert np.array_equal(selector.distances_at([rows[probe]], ids), expected)
    assert selector.distances_at([rows[0]], np.zeros(0, dtype=np.int64)).size == 0
    # Several queries in one call, owners interleaved, ids unsorted and
    # repeated: every pair is its own query's cross distance to its own row.
    ids = rng.integers(0, len(selector), size=40)
    owners = rng.integers(0, 3, size=ids.size)
    records = [rows[0], rows[13], rows[40]]
    assert_pairs_are_cross_distances(selector, distance, records, owners, ids)


def assert_pairs_are_cross_distances(selector, distance, records, owners, ids):
    got = selector.distances_at(records, ids, owners)
    expected = np.array([
        distance.cross_distances([records[owner]], selector.rows_at([row]))[0][0]
        for owner, row in zip([0] * len(ids) if owners is None else owners, ids)
    ])
    assert got.dtype == np.float64 and got.shape == (len(ids),)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "3-shard"])
def test_edit_pairs_at_the_edges(sharded):
    """An empty query, a non-BMP character and a query longer than every row
    share one call; an emptied store answers no ids and refuses any id."""
    rows = ["kitten", "", "sitting", "\U0001F600b", "ab", "mitten", "xyz"]
    selector = (
        ShardedSelector(rows, QGramEditSelector, num_shards=3) if sharded
        else QGramEditSelector(rows)
    )
    selector.delete_many([2])
    records = ["", "a\U0001F600b", "kittenkittenkitten", "mitten"]
    ids = np.array([0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 5, 0])
    owners = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 2])
    assert_pairs_are_cross_distances(selector, get_distance("edit"), records, owners, ids)
    for record in records:  # each query alone, owning every id
        assert_pairs_are_cross_distances(selector, get_distance("edit"), [record], None, ids)
    selector.delete_many(range(len(selector)))
    assert len(selector) == 0
    for queries, owners in ((["abc"], None), (records, np.zeros(0, dtype=np.int64))):
        out = selector.distances_at(queries, [], owners)
        assert out.dtype == np.float64 and out.shape == (0,)
    with pytest.raises(IndexError):
        selector.distances_at(records, [0], [1])


def test_packed_distances_at_takes_the_default_path_for_a_non_binary_record():
    selector = PackedHammingSelector(BITS)
    record = BITS[3].copy()
    record[:4] = 2
    ids = np.arange(10)
    expected = get_distance("hamming").cross_distances([record], BITS[:10])[0]
    assert np.array_equal(selector.distances_at([record], ids), expected)
    # Among 0/1 records in one call, unsharded and on 3 shards.
    records = [BITS[0], record, BITS[9]]
    ids = np.array([4, 3, 3, 17, 0, 49, 4, 21])
    owners = np.array([0, 1, 2, 1, 0, 2, 1, 1])
    for index in (selector, ShardedSelector(BITS, PackedHammingSelector, num_shards=3)):
        assert_pairs_are_cross_distances(index, get_distance("hamming"), records, owners, ids)
