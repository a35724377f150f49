"""``JaccardDistance``'s set-intersection kernel is its scalar distance, bit for bit.

``distances_to`` takes each intersection size from a C-level set
intersection and divides the same integers ``jaccard_similarity`` divides;
``cross_distances`` is one ``distances_to`` row per query.  Records are
integer or string token collections, empty ones included, given as sets,
frozensets or lists with repeats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import JaccardDistance

tokens = st.one_of(st.integers(0, 12), st.sampled_from(["a", "b", "c", "ab", ""]))
records = st.one_of(
    st.frozensets(tokens, max_size=8),
    st.sets(tokens, max_size=8),
    st.lists(tokens, max_size=8),  # repeats count once
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=6), st.lists(records, max_size=12))
def test_kernel_rows_are_the_scalar_distance(queries, dataset):
    distance = JaccardDistance()
    matrix = distance.cross_distances(queries, dataset)
    assert matrix.shape == (len(queries), len(dataset))
    for query, row in zip(queries, matrix):
        vector = distance.distances_to(query, dataset)
        assert vector.dtype == np.float64
        assert vector.tobytes() == row.tobytes()
        scalars = np.array([distance.distance(query, record) for record in dataset])
        assert vector.tobytes() == scalars.tobytes()


def test_empty_sets_are_identical_and_disjoint_sets_are_one_apart():
    distance = JaccardDistance()
    out = distance.distances_to(frozenset(), [set(), [], {"a"}, ()])
    assert out.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert distance.distances_to({"x"}, []).shape == (0,)
    assert distance.cross_distances([], [{1}]).shape == (0, 1)
