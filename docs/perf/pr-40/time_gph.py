"""Time GPH candidate generation and GPH updates at 5k / 20k / 80k rows.

Usage (BLAS pinned by the script; about a minute per tree)::

    python3 time_gph.py TREE

``TREE`` is a checkout of this repository; its ``src`` is imported, so the
same script measures a parent and a change.  Per size ``n`` it draws ``n``
uniform random 64-bit rows (seed 3) and registers them as a GPH attribute
(``part_size=16``: four parts, four ``::partJ`` histograms) on a fresh
engine, then prints one JSON line with

* ``candidates_ms``: median wall ms of ``selector.candidates`` over 200 probes
  (rows with 3 bits flipped) under the uniform allocation of θ = 8
  (``[2, 2, 2, 2]``), each probe timed once after one warm-up pass;
* ``update_ms``: median wall ms of ``engine.apply_update`` over 40
  alternating 16-row inserts and deletes;
* ``mean_candidates`` and a SHA-256 of every candidate set and of the part
  curves served after the updates, so two trees can be checked for the same
  answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))

import numpy as np  # noqa: E402

from repro.baselines import HistogramHammingEstimator  # noqa: E402
from repro.datasets.updates import UpdateOperation  # noqa: E402
from repro.engine import SimilarityQueryEngine  # noqa: E402
from repro.selection import PigeonholeHammingSelector  # noqa: E402


def measure(n: int) -> dict:
    rng = np.random.default_rng(3)
    records = rng.integers(0, 2, size=(n, 64), dtype=np.uint8)
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "hm", records, "hamming", HistogramHammingEstimator(records[:1000]),
        selector=PigeonholeHammingSelector(records, part_size=16), theta_max=20,
    )
    binding = engine.catalog.get("hm")
    selector = binding.selector
    probes = records[rng.integers(0, n, size=200)].copy()
    for probe in probes:
        probe[rng.choice(64, size=3, replace=False)] ^= 1
    allocation = selector.uniform_allocation(8)
    digest = hashlib.sha256()
    sizes, times = [], []
    for probe in probes:
        selector.candidates(probe, allocation)
    for probe in probes:
        start = time.perf_counter()
        found = selector.candidates(probe, allocation)
        times.append(time.perf_counter() - start)
        digest.update(np.sort(np.asarray(found, dtype=np.int64)).tobytes())
        sizes.append(len(found))
    updates = []
    for step in range(40):
        if step % 2 == 0:
            rows = rng.integers(0, 2, size=(16, 64), dtype=np.uint8)
            operation = UpdateOperation("insert", list(rows))
        else:
            positions = rng.choice(len(binding), 16, replace=False)
            operation = UpdateOperation("delete", sorted(positions.tolist()))
        start = time.perf_counter()
        engine.apply_update("hm", operation, step)
        updates.append(time.perf_counter() - start)
    for endpoint, (lo, hi) in zip(binding.part_endpoints, selector.parts):
        curves = engine.service.estimate_curve_many(endpoint, list(probes[:32, lo:hi]))
        digest.update(np.ascontiguousarray(curves).tobytes())
    return {
        "n": n,
        "candidates_ms": round(1e3 * float(np.median(times)), 4),
        "update_ms": round(1e3 * float(np.median(updates)), 3),
        "mean_candidates": round(float(np.mean(sizes)), 2),
        "sha256": digest.hexdigest()[:16],
    }


for size in (5_000, 20_000, 80_000):
    print(json.dumps(measure(size)), flush=True)
