"""``query_many`` is a loop of ``query``, element for element, on every index.

Every exact selector answers a batch of ``(record, θ)`` pairs with
``query_many``: the packed Hamming scan (and the GPH index that inherits it)
in one pass per chunk of queries, a sharded selector with one ``query_many``
per shard, every other index with the default loop.  Each answer must equal
``np.asarray(query(record, θ), dtype=np.int64)`` — after generated inserts
and deletes left tombstones, again after ``compact()``, with θ on an observed
distance and a hair either side of it, θ = -0.5, one record twice in a batch
under two θs, the empty batch, an emptied index, a Hamming record that is not
0/1, and a batch larger than one chunk of the packed scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import EuclideanDistance
from repro.selection import (
    BallIndexEuclideanSelector,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
)
from repro.sharding import ShardedSelector

HAIR = 5e-13


def _bits(dimension):
    return st.lists(st.integers(0, 1), min_size=dimension, max_size=dimension).map(
        lambda row: np.asarray(row, dtype=np.uint8)
    )


_vectors = st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(
    lambda row: np.asarray(row, dtype=np.float64) / 2.0
)

#: kind → (index factory, record strategy given the hamming dimension)
INDEXES = {
    "packed": (PackedHammingSelector, _bits),
    "gph": (lambda rows: PigeonholeHammingSelector(rows, part_size=8), _bits),
    "jaccard": (
        PrefixFilterJaccardSelector,
        lambda _: st.frozensets(st.integers(0, 12), min_size=1, max_size=6),
    ),
    "edit": (
        lambda rows: QGramEditSelector(rows, q=2),
        lambda _: st.text(alphabet="abc", min_size=1, max_size=8),
    ),
    "euclidean": (lambda rows: BallIndexEuclideanSelector(rows, num_pivots=3), lambda _: _vectors),
    "linear": (lambda rows: LinearScanSelector(rows, EuclideanDistance()), lambda _: _vectors),
}
HAMMING = ("packed", "gph")
CASES = [(kind, sharded) for kind in INDEXES for sharded in (False, True)]
IDS = [f"{kind}-{'sharded' if sharded else 'single'}" for kind, sharded in CASES]


def _build(kind, sharded, rows):
    factory, _ = INDEXES[kind]
    if sharded:
        return ShardedSelector(rows, factory, num_shards=3)
    return factory(rows)


def assert_query_many_equals_query(selector, records, thetas):
    got = selector.query_many(records, thetas)
    expected = [
        np.asarray(selector.query(record, theta), dtype=np.int64)
        for record, theta in zip(records, thetas)
    ]
    assert len(got) == len(expected)
    for answer, reference in zip(got, expected):
        assert isinstance(answer, np.ndarray) and answer.dtype == np.int64
        assert answer.tolist() == reference.tolist()


def _thetas(selector, record, extra):
    """θ on observed distances from ``record`` to live rows, a hair either
    side of each, -0.5, and ``extra``."""
    thetas = [-0.5, extra]
    if len(selector):
        observed = selector.distance.distances_to(record, selector.dataset)
        for distance in np.unique(observed)[:3]:
            thetas += [float(distance) - HAIR, float(distance), float(distance) + HAIR]
    return thetas


@st.composite
def scenarios(draw, kind):
    """Initial rows, a generated update stream, and query records."""
    dimension = draw(st.sampled_from([10, 70]))
    records = INDEXES[kind][1](dimension)
    rows = draw(st.lists(records, min_size=4, max_size=16))
    steps = []
    live = len(rows)
    for _ in range(draw(st.integers(0, 4))):
        if live and draw(st.booleans()):
            positions = draw(
                st.lists(st.integers(0, live - 1), min_size=1, max_size=min(3, live), unique=True)
            )
            steps.append(("delete", positions))
            live -= len(positions)
        else:
            inserted = draw(st.lists(records, min_size=1, max_size=4))
            steps.append(("insert", inserted))
            live += len(inserted)
    fresh = draw(st.lists(records, min_size=1, max_size=3))
    return rows, steps, fresh, draw(st.floats(0.0, 3.0))


def _apply(selector, steps):
    for kind, payload in steps:
        if kind == "insert":
            selector.insert_many(payload)
        else:
            selector.delete_many(payload)


def _batch(selector, fresh, extra):
    """Live rows and fresh records, each under several θ (so every record
    sits in the batch more than once, under different θ)."""
    sources = list(fresh)
    if len(selector):
        sources += list(selector.rows_at(np.arange(min(3, len(selector)))))
    records, thetas = [], []
    for record in sources:
        for theta in _thetas(selector, record, extra):
            records.append(record)
            thetas.append(theta)
    return records, thetas


@pytest.mark.parametrize("kind, sharded", CASES, ids=IDS)
def test_query_many_equals_query_under_updates_and_after_compaction(kind, sharded):
    @settings(max_examples=12, deadline=None)
    @given(scenarios(kind))
    def check(scenario):
        rows, steps, fresh, extra = scenario
        selector = _build(kind, sharded, rows)
        _apply(selector, steps)
        assert_query_many_equals_query(selector, *_batch(selector, fresh, extra))
        selector.compact()
        assert_query_many_equals_query(selector, *_batch(selector, fresh, extra))

    check()


def _fixed_rows(kind, count=12, seed=5):
    rng = np.random.default_rng(seed)
    if kind in HAMMING:
        return [row for row in rng.integers(0, 2, size=(count, 70)).astype(np.uint8)]
    if kind == "jaccard":
        return [frozenset(rng.choice(20, size=4, replace=False).tolist()) for _ in range(count)]
    if kind == "edit":
        return ["".join(rng.choice(list("abc"), size=6)) for _ in range(count)]
    return [row for row in rng.integers(-4, 5, size=(count, 3)) / 2.0]


@pytest.mark.parametrize("kind, sharded", CASES, ids=IDS)
def test_the_empty_batch_and_an_emptied_index(kind, sharded):
    rows = _fixed_rows(kind)
    selector = _build(kind, sharded, rows)
    assert selector.query_many([], []) == []
    selector.delete_many(range(len(rows)))
    assert len(selector) == 0
    assert_query_many_equals_query(selector, rows[:3] + rows[:1], [2.0, 0.0, -0.5, 5.0])
    assert all(answer.size == 0 for answer in selector.query_many(rows[:3], [9.0] * 3))
    selector.compact()
    assert_query_many_equals_query(selector, rows[:2], [2.0, 9.0])


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
@pytest.mark.parametrize("kind", HAMMING)
def test_a_hamming_record_that_is_not_binary_takes_the_query_loop(kind, sharded):
    rows = _fixed_rows(kind)
    selector = _build(kind, sharded, rows)
    odd = rows[1].copy()
    odd[[0, 5]] = 2
    assert_query_many_equals_query(selector, [odd], [4.0])
    assert_query_many_equals_query(selector, [rows[0], odd, rows[2]], [30.0, 33.0, 0.0])


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
@pytest.mark.parametrize("kind", HAMMING)
def test_a_batch_larger_than_one_chunk(kind, sharded, monkeypatch):
    rows = _fixed_rows(kind, count=40)
    selector = _build(kind, sharded, rows)
    selector.delete_many([3, 17, 18])
    # Three queries' scratch per chunk: a 20-query batch spans seven chunks.
    monkeypatch.setattr(PackedHammingSelector, "QUERY_MANY_BYTES", 3 * 8 * 2 * len(rows))
    records = [rows[i % len(rows)] for i in range(20)]
    thetas = [float(26 + i % 9) for i in range(20)]
    assert_query_many_equals_query(selector, records, thetas)
    assert sum(answer.size for answer in selector.query_many(records, thetas)) > 0


def test_the_packed_scan_answers_a_batch_in_chunks(monkeypatch):
    """The packed override is what answers a 0/1 batch (not the default loop),
    and it scans as many queries per chunk as the scratch bound admits."""
    rows = _fixed_rows("packed", count=40)
    selector = PackedHammingSelector(rows)
    monkeypatch.setattr(selector, "query", None)  # the loop would call it
    answers = selector.query_many(rows[:5], [30.0] * 5)
    assert all(index in answer for index, answer in enumerate(answers))
    monkeypatch.setattr(PackedHammingSelector, "QUERY_MANY_BYTES", 1)
    assert [a.tolist() for a in selector.query_many(rows[:5], [30.0] * 5)] == [
        a.tolist() for a in answers
    ]
