"""One threshold rule: every engine selector decides ``d <= θ`` as the linear scan.

The paper's cardinality is ``|{o : f(q, o) <= θ}|``; training labels, the Exact
oracle and the engine's answers all rest on that one predicate, decided by
:func:`repro.distances.base.within` (and, for indexes that search an integer
radius, :func:`repro.distances.base.integer_radius`).  Thresholds here sit
where a second rule would disagree: exactly on an observed distance, a hair
(5e-13) either side of it, and below zero.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.simple import MeanEstimator
from repro.datasets import (
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.distances import get_distance, integer_radius
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.featurization.edit import EditFeatureExtractor
from repro.featurization.hamming import HammingFeatureExtractor
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

#: selector name → (distance name, rows, the engine's index)
CASES = {
    "packed_hamming": (
        "hamming",
        make_binary_dataset(
            num_records=60, dimension=32, num_clusters=3, flip_probability=0.3, seed=2
        ).records,
        PackedHammingSelector,
    ),
    "pigeonhole_hamming": (
        "hamming",
        make_binary_dataset(
            num_records=60, dimension=32, num_clusters=3, flip_probability=0.3, seed=2
        ).records,
        lambda rows: PigeonholeHammingSelector(rows, part_size=8),
    ),
    "qgram_edit": (
        "edit",
        make_string_dataset(num_records=60, num_clusters=3, base_length=6, seed=2).records,
        QGramEditSelector,
    ),
    "ball_euclidean": (
        "euclidean",
        make_vector_dataset(num_records=60, dimension=6, num_clusters=3, seed=2).records
        * 2e3,
        BallIndexEuclideanSelector,
    ),
    "prefix_jaccard": (
        "jaccard",
        make_set_dataset(
            num_records=60, num_clusters=3, universe_size=40, base_set_size=5, seed=2
        ).records,
        PrefixFilterJaccardSelector,
    ),
}

#: Where θ sits relative to the probe's distance to a row.
PLACEMENTS = ("on", "below", "above", "negative")


@lru_cache(maxsize=None)
def _selectors(name, sharded):
    distance_name, rows, build = CASES[name]
    selector = (
        ShardedSelector(rows, build, num_shards=4) if sharded else build(rows)
    )
    return selector, LinearScanSelector(rows, get_distance(distance_name))


def _theta(distances, pick, placement):
    if placement == "negative":
        return -0.5
    observed = float(distances[pick % len(distances)])
    return observed + {"on": 0.0, "below": -HAIR, "above": HAIR}[placement]


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "4-shard"])
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None)
@given(
    probe=st.integers(0, 59),
    pick=st.integers(0, 59),
    placement=st.sampled_from(PLACEMENTS),
)
# The two ways a second rule disagrees: a hair below an observed (integer)
# distance, where int(θ) truncates; and θ < 0, where int(-0.5) == 0.
@example(probe=0, pick=5, placement="below")
@example(probe=0, pick=5, placement="negative")
def test_selector_answers_like_the_linear_scan(name, sharded, probe, pick, placement):
    selector, scan = _selectors(name, sharded)
    record = scan.dataset[probe]
    distances = scan.distance.distances_to(record, scan.dataset)
    theta = _theta(distances, pick, placement)
    assert selector.query(record, theta) == scan.query(record, theta)
    assert selector.cardinality(record, theta) == scan.cardinality(record, theta)
    nearby = [distances[i % 60] + shift for i in (pick, pick + 7) for shift in (-HAIR, 0.0, HAIR)]
    curve = [theta, -0.5, *nearby]
    assert np.array_equal(
        selector.cardinality_curve(record, curve), scan.cardinality_curve(record, curve)
    )


# --------------------------------------------------------------------------- #
# The engine: the planner's GPH allocation, and the residual verify
# --------------------------------------------------------------------------- #
BITS = CASES["pigeonhole_hamming"][1]
#: Rows of norm ~1e4 a few units apart: a GEMM-identity distance cancels
#: ~1e8-sized terms here, so it misplaces rows lying exactly on θ.
VECTORS = 1e4 / np.sqrt(8) + np.random.default_rng(4).normal(size=(60, 8))


@lru_cache(maxsize=None)
def _engine():
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "hm", BITS, "hamming", MeanEstimator(32.0), theta_max=32,
        selector=PigeonholeHammingSelector(BITS, part_size=8),
    )
    engine.register_attribute("eu", VECTORS, "euclidean", MeanEstimator(1e3), theta_max=1e3)
    return engine


non_negative = {
    "probe": st.integers(0, 59),
    "pick": st.integers(0, 59),
    "placement": st.sampled_from(PLACEMENTS[:3]),
}


@settings(max_examples=25, deadline=None)
@given(**non_negative)
@example(probe=0, pick=5, placement="below")
def test_gph_plan_answers_like_the_linear_scan(probe, pick, placement):
    engine = _engine()
    scan = LinearScanSelector(BITS, get_distance("hamming"))
    record = BITS[probe]
    theta = max(0.0, _theta(scan.distance.distances_to(record, BITS), pick, placement))
    result = engine.execute(SimilarityPredicate("hm", record, theta))
    assert result.plan.allocation is not None
    assert result.record_ids == scan.query(record, theta)


@settings(max_examples=25, deadline=None)
@given(**non_negative)
@example(probe=0, pick=5, placement="on")
def test_euclidean_residual_answers_like_the_linear_scan(probe, pick, placement):
    engine = _engine()
    hamming = LinearScanSelector(BITS, get_distance("hamming"))
    euclidean = LinearScanSelector(VECTORS, get_distance("euclidean"))
    distances = euclidean.distance.distances_to(VECTORS[probe], VECTORS)
    theta = max(0.0, _theta(distances, pick, placement))
    query = ConjunctiveQuery(
        [
            SimilarityPredicate("hm", BITS[probe], 32.0),
            SimilarityPredicate("eu", VECTORS[probe], theta),
        ]
    )
    # Whatever the planner prices, "hm" drives here and "eu" is verified as
    # a residual: the plan is forced, so the Euclidean verify is what runs.
    plan = engine.explain(query)
    hm, eu = sorted([plan.driver, *plan.residuals], key=lambda p: p.attribute != "hm")
    result = engine.executor.execute(replace(plan, driver=hm, residuals=[eu], allocation=None))
    assert result.verification_examined > 0
    expected = sorted(
        set(hamming.query(BITS[probe], 32.0)) & set(euclidean.query(VECTORS[probe], theta))
    )
    assert result.record_ids == expected


@pytest.mark.parametrize(
    "extractor",
    [
        HammingFeatureExtractor(dimension=32, theta_max=12),
        EditFeatureExtractor(alphabet="abc", max_length=8, theta_max=12),
    ],
    ids=["hamming", "edit"],
)
@given(k=st.integers(0, 12), shift=st.sampled_from([-HAIR, 0.0, HAIR]))
def test_decoder_tau_is_the_radius_the_index_answers_with(extractor, k, shift):
    theta = min(max(k + shift, 0.0), extractor.theta_max)
    assert extractor.transform_threshold(theta) == integer_radius(theta)
