"""GPH candidates from the packed words equal a per-part reference.

``PigeonholeHammingSelector.candidates`` finds, over the packed rows, the
rows where some part ``j`` has ``popcount((row ^ q) & mask_j) <= t_j``.  The
reference below compares the unpacked bits part by part.  Dimensions run
1–130 and part sizes 1–20, so parts straddle 64-bit words and the last part
is usually short; inserts, deletes and compactions interleave.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import HammingDistance
from repro.selection import CompactionPolicy, LinearScanSelector, PigeonholeHammingSelector


def reference_candidates(rows, query, parts, allocation):
    """Ascending positions of ``rows`` colliding with ``query`` in some part."""
    hit = np.zeros(len(rows), dtype=bool)
    for (start, stop), radius in zip(parts, allocation):
        hit |= np.count_nonzero(rows[:, start:stop] != query[start:stop], axis=1) <= radius
    return np.flatnonzero(hit)


@st.composite
def scenarios(draw):
    dimension = draw(st.integers(1, 130))
    part_size = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.lists(st.sampled_from(["insert", "delete", "compact", "probe"]), max_size=8))
    return dimension, part_size, seed, steps


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_candidates_equal_the_per_part_reference(scenario):
    dimension, part_size, seed, steps = scenario
    rng = np.random.default_rng(seed)

    def random_rows(count):
        # A few prototypes with sparse noise, so parts collide often.
        prototypes = rng.integers(0, 2, size=(3, dimension), dtype=np.uint8)
        rows = prototypes[rng.integers(0, 3, size=count)]
        return rows ^ (rng.random(rows.shape) < 0.1).astype(np.uint8)

    live = random_rows(int(rng.integers(1, 40)))
    selector = PigeonholeHammingSelector(list(live), part_size=part_size)
    selector.compaction_policy = CompactionPolicy(min_tombstones=10**9)  # compact only when told
    for step in steps + ["probe"]:
        if step == "insert":
            rows = random_rows(int(rng.integers(1, 6)))
            selector.insert_many(list(rows))
            live = np.concatenate([live, rows])
        elif step == "delete" and len(live) > 1:
            positions = rng.choice(len(live), size=int(rng.integers(1, len(live))), replace=False)
            selector.delete_many(positions)
            live = np.delete(live, positions, axis=0)
        elif step == "compact":
            selector.compact()
        for query in [live[0], random_rows(1)[0]]:
            allocation = rng.integers(0, part_size + 1, size=len(selector.parts))
            expected = reference_candidates(live, query, selector.parts, allocation)
            got = selector.candidates(query, allocation)
            assert np.array_equal(got, expected)
            assert np.all(np.diff(got) > 0)
            assert selector.candidate_count(query, allocation) == expected.size
            theta = int(sum(allocation))
            matches, count = selector.verified_candidates(query, theta, allocation)
            assert count == expected.size
            scan = set(LinearScanSelector(list(live), HammingDistance()).query(query, theta))
            assert matches == sorted(scan & set(expected.tolist()))


def test_parts_straddling_a_word_boundary():
    """130 bits in parts of 20: part 3 spans bits 60-80, across words 0 and 1."""
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2, size=(50, 130), dtype=np.uint8)
    selector = PigeonholeHammingSelector(list(rows), part_size=20)
    assert selector.parts[3] == (60, 80) and selector.parts[-1] == (120, 130)
    query = rows[7].copy()
    for start, _ in selector.parts:  # two flips per part; part 3's on either side of bit 64
        query[[start + 2, start + 5] if start != 60 else [62, 65]] ^= 1
    allocation = [1] * len(selector.parts)
    got = selector.candidates(query, allocation)
    assert np.array_equal(got, reference_candidates(rows, query, selector.parts, allocation))
    assert 7 not in got
    allocation[3] = 2
    got = selector.candidates(query, allocation)
    assert np.array_equal(got, reference_candidates(rows, query, selector.parts, allocation))
    assert 7 in got
