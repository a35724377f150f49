"""Array-native probes: edit, Jaccard and Euclidean answer exactly like a scan.

The three indexes store what their filters and verification read as arrays.
The contract pinned here is the one Berkholz et al. state for maintained
structures: after ANY sequence of inserts, deletes, compactions and snapshot
round trips, ``query`` returns the same list — order included — and
``cardinality_curve`` the same counts as a linear scan over the live records.
The generated sequences also run on both Hamming indexes, and after every step
``rows_at`` reads the live rows back from each index's one store, type and
dtype included.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import (
    EditDistance,
    EuclideanDistance,
    HammingDistance,
    JaccardDistance,
    batch_levenshtein,
    levenshtein,
)
from repro.selection import (
    BallIndexEuclideanSelector,
    CompactionPolicy,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
)
from repro.store import load_component, save_component

# Coordinates are multiples of 1/4 so every squared distance is exact: the
# comparison with the scan cannot hinge on a last-digit rounding difference.
vectors = st.lists(st.integers(-8, 8), min_size=3, max_size=3).map(
    lambda row: np.asarray(row, dtype=np.float64) / 4.0
)
strings = st.text(alphabet="abc\U0001F600", max_size=7)
token_sets = st.frozensets(st.integers(0, 9), max_size=5)
bit_rows = st.lists(st.integers(0, 1), min_size=12, max_size=12).map(
    lambda row: np.asarray(row, dtype=np.uint8)
)

#: distance name -> (record strategy, selector factory, distance, thresholds)
CASES = {
    "edit": (strings, lambda rows: QGramEditSelector(rows, q=2), EditDistance(), [0, 1, 2.5, 4, 50]),
    "jaccard": (
        token_sets,
        PrefixFilterJaccardSelector,
        JaccardDistance(),
        [0.0, 0.25, 0.5, 0.75, 1.0, 1.5],
    ),
    "euclidean": (
        vectors,
        lambda rows: BallIndexEuclideanSelector(rows, num_pivots=3),
        EuclideanDistance(),
        [0.0, 0.5, 1.25, 3.0, 100.0],
    ),
}


#: The generated update sequences also cover both Hamming indexes.
UPDATE_CASES = {
    **CASES,
    "hamming": (bit_rows, PackedHammingSelector, HammingDistance(), [0, 1, 2.5, 4, 12]),
    "pigeonhole": (
        bit_rows,
        lambda rows: PigeonholeHammingSelector(rows, part_size=4),
        HammingDistance(),
        [0, 1, 2.5, 4, 12],
    ),
}
#: What ``rows_at`` returns per distance: a list, or a 2-D array of this dtype.
ROW_DTYPES = {
    "edit": None, "jaccard": None, "euclidean": np.float64,
    "hamming": np.uint8, "pigeonhole": np.uint8,
}


def assert_rows_equal_mirror(name, selector, live):
    rows = selector.rows_at(np.arange(len(selector)))
    dtype = ROW_DTYPES[name]
    if dtype is None:
        assert type(rows) is list
        assert rows == live
    else:
        assert type(rows) is np.ndarray
        assert rows.dtype == dtype and rows.ndim == 2
        assert len(rows) == len(live)
        assert all(np.array_equal(row, record) for row, record in zip(rows, live))


def assert_equals_scan(selector, live, distance, probes, thresholds):
    scan = LinearScanSelector(live, distance)
    assert len(selector) == len(live)
    for probe in probes:
        for theta in thresholds:
            matches = selector.query(probe, theta)
            assert matches == scan.query(probe, theta)
            assert all(type(i) is int for i in matches)
        assert np.array_equal(
            selector.cardinality_curve(probe, thresholds),
            scan.cardinality_curve(probe, thresholds),
        )


def roundtrip(selector):
    with tempfile.TemporaryDirectory() as directory:
        save_component(selector, Path(directory) / "snapshot")
        return load_component(Path(directory) / "snapshot")


@pytest.mark.parametrize("name", sorted(UPDATE_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_update_sequence_equals_linear_scan(name, data):
    records, factory, distance, thresholds = UPDATE_CASES[name]
    live = data.draw(st.lists(records, min_size=1, max_size=12))
    selector = factory(live)
    # A low floor makes forced compaction (and the rebuild over an emptied
    # dataset) part of the generated sequences.
    selector.compaction_policy = CompactionPolicy(force_ratio=0.5, min_tombstones=3)
    live = list(live)
    for _ in range(data.draw(st.integers(1, 6))):
        step = data.draw(st.sampled_from(["insert", "delete", "compact", "snapshot"]))
        if step == "insert":
            batch = data.draw(st.lists(records, min_size=1, max_size=4))
            selector.insert_many(batch)
            live.extend(batch)
        elif step == "delete" and live:
            positions = data.draw(
                st.lists(st.integers(0, len(live) - 1), unique=True, max_size=len(live))
            )
            selector.delete_many(positions)
            live = [record for i, record in enumerate(live) if i not in set(positions)]
        elif step == "compact":
            selector.compact()
        elif step == "snapshot":
            selector = roundtrip(selector)
        # Probes from the data (exact hits, duplicates) and fresh draws
        # (perturbed: unseen grams, tokens and points).
        probes = live[:2] + [data.draw(records)]
        assert_equals_scan(selector, live, distance, probes, thresholds)
        assert_rows_equal_mirror(name, selector, live)


class TestEditEdges:
    def test_short_long_and_astral_strings(self):
        live = ["", "a", "ab", "abc", "ba", "\U0001F600b", "a\U0001F600b", "abcabc"]
        selector = QGramEditSelector(live, q=3)  # "", "a", "ab", "ba" are shorter than q
        probes = ["", "a", "abc", "\U0001F600", "zzzz", "abcabcabcabc"]
        assert_equals_scan(selector, live, EditDistance(), probes, [0, 1, 2, 6, 1000])

    def test_insert_longer_than_every_stored_string_widens_the_code_matrix(self):
        live = ["abc", "abd", "b"]
        selector = QGramEditSelector(live)
        assert selector._codes.view().shape == (3, 3)
        longer = ["abcabcabcabc", "ab"]
        selector.insert_many(longer)
        assert selector._codes.view().shape == (5, 12)
        assert_equals_scan(
            selector, live + longer, EditDistance(), ["abc", "abcabcabcab"], [0, 1, 3, 9]
        )

    def test_match_distances_are_the_probes_own(self):
        words = ["kitten", "sitting", "mitten", "kitchen", "bitten"]
        selector = QGramEditSelector(words)
        assert selector._match_distances("kitten", 2).tolist() == [0, 1, 2, 1]


class TestJaccardEdges:
    def test_empty_sets_unseen_tokens_and_wide_thresholds(self):
        live = [frozenset(), frozenset({1, 2}), frozenset({2, 3, 4}), frozenset(), frozenset({9})]
        selector = PrefixFilterJaccardSelector(live)
        probes = [frozenset(), frozenset({2}), frozenset({77, 78}), frozenset({1, 2, 77})]
        assert_equals_scan(selector, live, JaccardDistance(), probes, [0.0, 0.5, 0.99, 1.0, 2.0])
        assert selector.query(frozenset(), 0.5) == [0, 3]
        assert selector.query(frozenset({77}), 1.0) == [0, 1, 2, 3, 4]

    def test_string_tokens(self):
        live = [{"ann", "bob"}, {"bob", "cy"}, {"dee"}, set()]
        selector = PrefixFilterJaccardSelector(live)
        selector.insert_many([{"ann", "cy", "eve"}])
        live = [frozenset(record) for record in live] + [frozenset({"ann", "cy", "eve"})]
        probes = [{"ann"}, {"bob", "cy"}, {"zed"}, set()]
        assert_equals_scan(selector, live, JaccardDistance(), probes, [0.0, 0.4, 0.7, 1.0])


class TestEuclideanEdges:
    def test_query_that_prunes_every_ball(self):
        rng = np.random.default_rng(3)
        live = list(rng.normal(size=(60, 4)))
        selector = BallIndexEuclideanSelector(live, num_pivots=4)
        far = np.full(4, 50.0)
        assert selector.query(far, 0.5) == []
        assert selector.cardinality_curve(far, [0.1, 0.5]).tolist() == [0, 0]
        assert_equals_scan(selector, live, EuclideanDistance(), [far, live[0]], [0.0, 0.5, 2.0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_deleted_to_empty_then_reinserted(name):
    records, factory, distance, thresholds = CASES[name]
    rows = {
        "edit": ["ab", "abc", "", "abd"],
        "jaccard": [frozenset({1, 2}), frozenset(), frozenset({2, 3})],
        "euclidean": list(np.arange(12, dtype=np.float64).reshape(4, 3) / 4.0),
    }[name]
    for policy in (CompactionPolicy(), CompactionPolicy(force_ratio=0.5, min_tombstones=1)):
        selector = factory(rows)
        selector.compaction_policy = policy  # tombstoned-empty, then compacted-empty
        selector.delete_many(range(len(rows)))
        assert_equals_scan(selector, [], distance, rows[:1], thresholds)
        selector.insert_many(rows[1:])
        assert_equals_scan(selector, rows[1:], distance, rows, thresholds)


@settings(max_examples=60, deadline=None)
@given(
    st.text(alphabet="ab\U0001F600c", max_size=9),
    st.lists(st.text(alphabet="ab\U0001F600c", max_size=9), max_size=8),
    st.integers(0, 5),
)
def test_batch_levenshtein_equals_scalar(query, candidates, threshold):
    exact = [levenshtein(query, candidate) for candidate in candidates]
    assert batch_levenshtein(query, candidates).tolist() == exact
    pruned = batch_levenshtein(query, candidates, threshold).tolist()
    for distance, reported in zip(exact, pruned):
        assert reported == distance if distance <= threshold else reported > threshold


@pytest.mark.parametrize("name", sorted(CASES))
def test_eight_threads_probe_one_selector(
    name, string_dataset, set_dataset, vector_dataset, client_threads
):
    _, factory, _, thresholds = CASES[name]
    rows = {
        "edit": string_dataset.records,
        "jaccard": set_dataset.records,
        "euclidean": vector_dataset.records,
    }[name]
    selector = factory(rows)
    selector.delete_many(range(0, 40, 3))  # probes also read the tombstone mask
    probes = [(rows[i], theta) for i in range(50, 80) for theta in thresholds[1:4]]

    def run(_):
        return [selector.query(record, theta) for record, theta in probes]

    expected = run(None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = client_threads(run, range(8))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
