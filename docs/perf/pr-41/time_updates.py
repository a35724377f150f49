"""Time 16-row inserts and deletes through ``engine.apply_update`` at 5k / 20k / 80k rows.

Usage (BLAS pinned by the script; a few minutes per tree)::

    python3 time_updates.py TREE

``TREE`` is a checkout of this repository; its ``src`` is imported, so the
same script measures a parent and a change.  Per distance (HM, EU, JC, ED)
and size ``n`` it draws ``n`` random rows (seed 3), registers them as one
unsharded attribute with the distance's default index on a fresh engine, and
attaches a routed §8 manager with ``error_tolerance=inf``: every update takes
the manager's path (index delta, delta relabel of 24 validation labels, one
validation measurement through the service) and none retrains.  The
estimator is a uniform sample of 200 rows, so serving costs the same at every
``n``.  Then 40 updates alternate a 16-row insert with a 16-row delete at
random positions, each timed once, and one JSON line is printed with

* ``insert_ms`` / ``delete_ms``: median wall ms of ``engine.apply_update``
  over the 20 inserts / 20 deletes;
* ``sha256``: a digest of the attribute's rows and the manager's validation
  labels after the updates, so two trees can be checked for the same state.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))

import numpy as np  # noqa: E402

from repro.baselines import UniformSamplingEstimator  # noqa: E402
from repro.core import IncrementalUpdateManager  # noqa: E402
from repro.datasets.updates import UpdateOperation  # noqa: E402
from repro.engine import SimilarityQueryEngine  # noqa: E402
from repro.selection import default_selector  # noqa: E402
from repro.workloads.builder import label_queries  # noqa: E402

#: name -> (distance, validation thresholds)
DISTANCES = {
    "hm": ("hamming", [4.0, 8.0, 12.0]),
    "eu": ("euclidean", [2.0, 4.0, 5.0]),
    "jc": ("jaccard", [0.4, 0.6, 0.8]),
    "ed": ("edit", [1.0, 3.0, 5.0]),
}


def draw(distance: str, rng: np.random.Generator, count: int):
    """``count`` random rows in the form a caller registers them."""
    if distance == "hamming":
        return rng.integers(0, 2, size=(count, 64), dtype=np.uint8)
    if distance == "euclidean":
        return rng.normal(size=(count, 16))
    if distance == "jaccard":
        sizes = rng.integers(5, 16, size=count)
        return [frozenset(rng.integers(0, 1000, size=size).tolist()) for size in sizes]
    lengths = rng.integers(8, 17, size=count)
    letters = np.array(list("abcdefgh"))
    return ["".join(letters[rng.integers(0, 8, size=length)]) for length in lengths]


def digest_rows(rows, digest) -> None:
    if isinstance(rows, np.ndarray):
        digest.update(np.ascontiguousarray(rows).tobytes())
    else:
        for row in rows:
            digest.update(repr(sorted(row) if isinstance(row, frozenset) else row).encode())


def measure(name: str, n: int) -> dict:
    distance, thresholds = DISTANCES[name]
    rng = np.random.default_rng(3)
    records = draw(distance, rng, n)
    engine = SimilarityQueryEngine()
    estimator = UniformSamplingEstimator(records, distance, sample_ratio=200 / n, seed=0)
    selector = default_selector(distance, records)
    engine.register_attribute(name, records, distance, estimator, selector=selector,
                              theta_max=thresholds[-1])
    probes = [records[int(i)] for i in rng.integers(0, n, size=8)]
    labels = label_queries(probes, thresholds, selector)
    manager = IncrementalUpdateManager(
        estimator, selector, labels, labels, error_tolerance=float("inf")
    )
    engine.attach_manager(name, manager)
    times = {"insert": [], "delete": []}
    for step in range(40):
        if step % 2 == 0:
            operation = UpdateOperation("insert", list(draw(distance, rng, 16)))
        else:
            positions = rng.choice(len(engine.catalog.get(name)), 16, replace=False)
            operation = UpdateOperation("delete", sorted(positions.tolist()))
        start = time.perf_counter()
        engine.apply_update(name, operation, step)
        times[operation.kind].append(time.perf_counter() - start)
    digest = hashlib.sha256()
    digest_rows(engine.catalog.get(name).records, digest)
    digest.update(repr([example.cardinality for example in manager.validation_examples]).encode())
    return {
        "attribute": name,
        "n": n,
        "insert_ms": round(1e3 * statistics.median(times["insert"]), 3),
        "delete_ms": round(1e3 * statistics.median(times["delete"]), 3),
        "sha256": digest.hexdigest()[:16],
    }


for attribute in DISTANCES:
    for size in (5_000, 20_000, 80_000):
        print(json.dumps(measure(attribute, size)), flush=True)
