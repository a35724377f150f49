"""Rows on which an index or the executor disagrees with the linear scan, on one tree.

Usage: python docs/perf/pr-30/disagreements.py TREE   (TREE: a checkout of this repository)
"""
import os
import sys

tree = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(tree, "src")]

import numpy as np  # noqa: E402
from repro.datasets import make_binary_dataset, make_set_dataset, make_string_dataset  # noqa: E402
from repro.distances import get_distance  # noqa: E402
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine  # noqa: E402
from repro.baselines.simple import MeanEstimator  # noqa: E402
from repro.selection import (  # noqa: E402
    LinearScanSelector, PackedHammingSelector, PigeonholeHammingSelector,
    PrefixFilterJaccardSelector, QGramEditSelector,
)

HAIR = 5e-13
bits = make_binary_dataset(num_records=2000, dimension=64, num_clusters=4, flip_probability=0.2, seed=3).records
scan = LinearScanSelector(bits, get_distance("hamming"))
q = bits[0]
theta = 24 - HAIR
print("hamming  θ=24-5e-13  scan", scan.cardinality(q, theta),
      "packed", PackedHammingSelector(bits).cardinality(q, theta),
      "pigeonhole", len(PigeonholeHammingSelector(bits, part_size=16).query(q, theta)))
print("hamming  θ=-0.5      scan", scan.cardinality(q, -0.5),
      "packed", PackedHammingSelector(bits).cardinality(q, -0.5))

words = make_string_dataset(num_records=2000, num_clusters=4, base_length=6, seed=3).records
scan = LinearScanSelector(words, get_distance("edit"))
print("edit     θ=3-5e-13   scan", scan.cardinality(words[0], 3 - HAIR),
      "qgram", QGramEditSelector(words).cardinality(words[0], 3 - HAIR))

sets = make_set_dataset(num_records=2000, num_clusters=4, universe_size=60, base_set_size=6, seed=3).records
scan = LinearScanSelector(sets, get_distance("jaccard"))
print("jaccard  θ=1-5e-13   scan", scan.cardinality(sets[0], 1 - HAIR),
      "prefix", PrefixFilterJaccardSelector(sets).cardinality(sets[0], 1 - HAIR))

# Euclidean residual verify: θ on each row's exact distance, 24-d rows at scale 2e3.
rng = np.random.default_rng(0)
vectors = rng.normal(scale=2e3, size=(2000, 24))
engine = SimilarityQueryEngine()
engine.register_attribute("hm", bits, "hamming", MeanEstimator(64.0), theta_max=64)
engine.register_attribute("eu", vectors, "euclidean", MeanEstimator(1e6), theta_max=1e6)
euclid = get_distance("euclidean")
probe = vectors[0]
distances = euclid.distances_to(probe, vectors)
dropped = 0
for row in range(1, 2000):
    result = engine.execute(ConjunctiveQuery([
        SimilarityPredicate("hm", bits[row], 64.0),
        SimilarityPredicate("eu", probe, float(distances[row])),
    ]))
    dropped += row not in set(result.record_ids)
print("euclid residual: rows dropped with θ on their exact distance", dropped, "of 1999")
