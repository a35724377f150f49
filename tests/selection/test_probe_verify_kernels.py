"""The array passes a conjunction runs: the Jaccard probe and the edit verify.

* ``PrefixFilterJaccardSelector`` counts overlaps with one ``bincount`` and
  keeps only rows with ``overlap >= s·|x|`` before the exact predicate: after
  any sequence of inserts, deletes and compactions it answers like a linear
  scan, at θ on an observed distance, a hair (5e-13) either side of it, at
  θ >= 1 and for empty sets.
* ``QGramEditSelector.distances_at`` runs the DP on the stored code rows: its
  values are the default's (``cross_distances`` over ``rows_at``) bit for
  bit, on tombstoned stores, in any id order, for no ids at all, and with
  several queries in one call (each pair against its own query's codes).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import EditDistance, JaccardDistance
from repro.selection import (
    CompactionPolicy,
    LinearScanSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
)

HAIR = 5e-13

token_sets = st.frozensets(st.integers(0, 11), max_size=6)
strings = st.text(alphabet="abc\U0001F600", max_size=9)


def update_steps(data, selector, live, records):
    """Apply one drawn insert, delete or compact to ``selector`` and ``live``."""
    step = data.draw(st.sampled_from(["insert", "delete", "compact"]))
    if step == "insert":
        batch = data.draw(st.lists(records, min_size=1, max_size=4))
        selector.insert_many(batch)
        live.extend(batch)
    elif step == "delete" and live:
        positions = data.draw(
            st.lists(st.integers(0, len(live) - 1), unique=True, max_size=len(live))
        )
        selector.delete_many(positions)
        live[:] = [record for i, record in enumerate(live) if i not in set(positions)]
    elif step == "compact":
        selector.compact()


# --------------------------------------------------------------------------- #
# Jaccard: one-pass overlaps, then the overlap and size bounds
# --------------------------------------------------------------------------- #
def thresholds_around(scan, probe):
    """θ on every observed distance and a hair either side, plus θ >= 1."""
    observed = np.unique(scan.distance.distances_to(probe, scan.dataset)) if len(scan) else []
    return [
        *(float(d) + shift for d in observed for shift in (-HAIR, 0.0, HAIR)),
        0.0, -HAIR, 1.0 - HAIR, 1.0, 1.5,
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jaccard_probe_equals_the_linear_scan_under_updates(data):
    live = data.draw(st.lists(token_sets, max_size=10))
    selector = PrefixFilterJaccardSelector(live)
    # A low floor makes forced compaction part of the generated sequences.
    selector.compaction_policy = CompactionPolicy(force_ratio=0.5, min_tombstones=3)
    live = list(live)
    for _ in range(data.draw(st.integers(1, 6))):
        update_steps(data, selector, live, token_sets)
        scan = LinearScanSelector(live, JaccardDistance())
        for probe in [*live[:2], data.draw(token_sets), frozenset()]:
            thresholds = thresholds_around(scan, probe)
            for theta in thresholds:
                assert selector.query(probe, theta) == scan.query(probe, theta)
            assert np.array_equal(
                selector.cardinality_curve(probe, thresholds),
                scan.cardinality_curve(probe, thresholds),
            )


def test_empty_sets_and_wide_thresholds():
    live = [frozenset(), frozenset({1}), frozenset(), frozenset({1, 2, 3})]
    selector = PrefixFilterJaccardSelector(live)
    selector.delete_many([0])
    live = live[1:]
    scan = LinearScanSelector(live, JaccardDistance())
    for probe in (frozenset(), frozenset({1}), frozenset({7})):
        for theta in (0.0, 0.5, 1.0 - HAIR, 1.0, 7.0, float("inf"), -1.0):
            assert selector.query(probe, theta) == scan.query(probe, theta)
    assert selector.query(frozenset(), 0.0) == [1]
    assert selector.query(frozenset({7}), 1.0) == [0, 1, 2]


# --------------------------------------------------------------------------- #
# Edit: the residual verify on the stored code rows
# --------------------------------------------------------------------------- #
def default_distances(selector, record, ids):
    """The default kernel: ``cross_distances`` over ``rows_at``."""
    return selector.distance.cross_distances([record], selector.rows_at(ids))[0]


def assert_bit_identical(selector, record, ids):
    own = selector.distances_at([record], ids)
    default = default_distances(selector, record, ids)
    assert own.dtype == default.dtype == np.float64
    assert own.shape == (len(ids),)
    assert own.tobytes() == default.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edit_distances_at_is_the_default_bit_for_bit(data):
    live = data.draw(st.lists(strings, min_size=1, max_size=10))
    selector = QGramEditSelector(live)
    # Never compacts by itself: tombstoned, non-compact views stay in play.
    selector.compaction_policy = CompactionPolicy(force_ratio=2.0, min_tombstones=1)
    live = list(live)
    for _ in range(data.draw(st.integers(1, 6))):
        update_steps(data, selector, live, strings)
        ids = data.draw(st.lists(st.integers(0, len(live) - 1), max_size=8)) if live else []
        for record in [*live[:1], data.draw(strings), ""]:
            assert_bit_identical(selector, record, ids)
            assert_bit_identical(selector, record, sorted(set(ids)))
            assert np.array_equal(
                selector.distances_at([record], ids),
                EditDistance().distances_to(record, [live[i] for i in ids]),
            )
        queries = [*live[:2], data.draw(strings), ""]
        owners = data.draw(st.lists(st.integers(0, len(queries) - 1), min_size=len(ids), max_size=len(ids)))
        paired = selector.distances_at(queries, ids, owners)
        assert paired.tobytes() == np.array(
            [default_distances(selector, queries[o], [i])[0] for o, i in zip(owners, ids)]
        ).tobytes()


def test_edit_verify_reads_no_row_back(monkeypatch):
    live = ["kitten", "sitting", "mitten", "", "\U0001F600bc", "kitchen", "abcabcabcabc"]
    selector = QGramEditSelector(live)
    selector.delete_many([1, 3])
    assert not selector._view.is_compact
    expected = {
        record: [default_distances(selector, record, ids) for ids in ([], [0], [4, 0, 2], [3, 3])]
        for record in ("kitten", "", "abc\U0001F600")
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the edit verify read rows back")

    monkeypatch.setattr(selector, "rows_at", refuse)
    monkeypatch.setattr(selector, "_gather", refuse)
    for record, values in expected.items():
        for ids, value in zip(([], [0], [4, 0, 2], [3, 3]), values):
            assert selector.distances_at([record], ids).tobytes() == value.tobytes()


def test_edit_distances_at_on_an_emptied_store():
    selector = QGramEditSelector(["ab", "abc"])
    selector.compaction_policy = CompactionPolicy(force_ratio=2.0, min_tombstones=1)
    selector.delete_many([0, 1])
    assert len(selector) == 0
    out = selector.distances_at(["abc"], [])
    assert out.dtype == np.float64 and out.shape == (0,)
    with pytest.raises(IndexError):
        selector.distances_at(["abc"], [0])
