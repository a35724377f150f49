"""Measure the planner's cost constants: what one index probe and one residual
verify cost, per index class, in µs.

Usage (BLAS pinned by the script; under a minute)::

    python3 calibrate_costs.py TREE

``TREE`` is a checkout of this repository; its ``src`` is imported, and the
rows and probes are the end-to-end benchmark's relation
(``benchmarks.e2e.workloads.build_relation``) read from the same tree.

For each index class, over the first ``n`` rows of its column for ``n`` in
1,250 / 2,500 / 5,000 (1,250 is one of four shards at 5,000):

* **probe**: ``query(record, θ)`` for 48 near copies of random rows, θ drawn
  as the benchmark draws it, the three sizes interleaved per probe; each
  call timed 5 times and the fastest kept.
  Fitted by non-negative least squares as ``a + b·n + c·matches``, which is
  ``SimilaritySelector.PROBE_COST_US = (a, b, c)``.
* **verify**: ``distances_at(record, ids)`` over 1 / 4 / 16 / 64 / 256
  random ids at ``n`` = 5,000, fitted as ``fixed + per_row·rows``: the
  packed Hamming kernel (``PackedHammingSelector.VERIFY_COST_US``), and the
  default one (``rows_at`` + ``cross_distances``) on each distance's default
  index (``repro.selection.base.DEFAULT_VERIFY_COST_US``), which also prices
  a sharded attribute's verify.
* **GPH allocation**: ``GPHQueryProcessor.plan`` with every part curve
  fetched through the service from a cold cache, per part — the planner's
  ``GPH_PART_CURVE_COST_US``.

The whole measurement runs in 5 rounds and each constant is the median of
its 5 values.  Prints one table; the last line is the constants as JSON.  The constants in
``src/`` are this output rounded to two significant digits.
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402
from scipy.optimize import nnls  # noqa: E402

from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.baselines.db_specialized import HistogramHammingEstimator  # noqa: E402
from repro.engine import SimilarityQueryEngine  # noqa: E402
from repro.engine.planner import ServicePartCurves  # noqa: E402
from repro.optimizer import GPHQueryProcessor  # noqa: E402
from repro.selection import (  # noqa: E402
    BallIndexEuclideanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    PrefixFilterJaccardSelector,
    QGramEditSelector,
    SimilaritySelector,
    default_selector,
)

SIZES = (1250, 2500, 5000)
PROBES = 48
REPEATS = 5
#: Every constant is the median of this many independent rounds.
ROUNDS = 5
VERIFY_ROWS = (1, 4, 16, 64, 256)
#: index class -> (its column, how the benchmark's engine builds it)
INDEXES = {
    PackedHammingSelector: ("hm", PackedHammingSelector),
    PigeonholeHammingSelector: (
        "hm", lambda rows: PigeonholeHammingSelector(rows, part_size=wl.GPH_PART_SIZE)
    ),
    QGramEditSelector: ("ed", QGramEditSelector),
    PrefixFilterJaccardSelector: ("jc", PrefixFilterJaccardSelector),
    BallIndexEuclideanSelector: ("eu", BallIndexEuclideanSelector),
}


def timed(call) -> float:
    """Fastest of ``REPEATS`` calls, µs: the call's own cost, not a neighbour's."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return min(samples) * 1e6


def probes(name: str, records, rng: np.random.Generator):
    attribute = wl.ATTRIBUTE_BY_NAME[name]
    rows = rng.integers(len(records), size=PROBES)
    return [(wl.perturb(name, records[int(r)], rng), wl.draw_theta(attribute, rng)) for r in rows]


def fit(columns, times) -> list:
    coefficients, _ = nnls(np.asarray(columns, dtype=np.float64), np.asarray(times))
    return [float(c) for c in coefficients]


def probe_cost(build, records, queries) -> list:
    indexes = {n: build(records[:n]) for n in SIZES}
    columns, times = [], []
    for record, theta in queries:
        for n, index in indexes.items():  # sizes interleaved: drift hits all alike
            matches = len(index.query(record, theta))
            times.append(timed(lambda: index.query(record, theta)))
            columns.append([1.0, n, matches])
    return fit(columns, times)


def verify_cost(verify, index, queries, rng: np.random.Generator) -> list:
    """Fit ``verify(index, record, ids)`` as ``fixed + per_row·rows``."""
    columns, times = [], []
    for record, _ in queries:
        for rows in VERIFY_ROWS:
            ids = np.sort(rng.choice(len(index), size=rows, replace=False))
            times.append(timed(lambda: verify(index, record, ids)))
            columns.append([1.0, rows])
    return fit(columns, times)


def part_curve_cost(records, queries) -> float:
    """µs per part curve of one GPH allocation, every curve a cache miss."""
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "hm", records, "hamming", HistogramHammingEstimator(records),
        selector=PigeonholeHammingSelector(records, part_size=wl.GPH_PART_SIZE), theta_max=16,
    )
    binding = engine.catalog.get("hm")
    processor = GPHQueryProcessor(selector=binding.selector)
    curves = ServicePartCurves(engine.service, binding.part_endpoints)
    samples = []
    for record, theta in queries:
        fastest = float("inf")
        for _ in range(REPEATS):
            for endpoint in binding.part_endpoints:
                engine.service.invalidate(endpoint)
            start = time.perf_counter()
            processor.plan(record, int(theta), curves)
            fastest = min(fastest, time.perf_counter() - start)
        samples.append(fastest)
    return float(np.median(samples)) * 1e6 / len(binding.part_endpoints)


def calibrate(relation, rng: np.random.Generator) -> dict:
    """One round: every constant measured once."""
    constants = {}
    for cls, (name, build) in INDEXES.items():
        records = relation[name].records
        queries = probes(name, records, rng)
        constants[cls.__name__] = {"PROBE_COST_US": probe_cost(build, records, queries)}
        if cls is PackedHammingSelector:  # the one class with its own distances_at
            constants[cls.__name__]["VERIFY_COST_US"] = verify_cost(
                cls.distances_at, build(records), queries, rng
            )
    for name in ("hm", "ed", "jc", "eu"):
        records = relation[name].records
        distance = wl.ATTRIBUTE_BY_NAME[name].distance
        constants[distance] = verify_cost(
            SimilaritySelector.distances_at, default_selector(distance, records),
            probes(name, records, rng), rng,
        )
    records = relation["hm"].records
    constants["GPH_PART_CURVE_COST_US"] = part_curve_cost(records, probes("hm", records, rng))
    return constants


def median(values):
    """Element-wise median of equally shaped nested values."""
    if isinstance(values[0], dict):
        return {key: median([value[key] for value in values]) for key in values[0]}
    return np.median(np.asarray(values, dtype=np.float64), axis=0).tolist()


def main() -> None:
    relation = wl.build_relation(max(SIZES))
    rng = np.random.default_rng(44)
    constants = median([calibrate(relation, rng) for _ in range(ROUNDS)])
    print(f"{'index class':28s} {'probe a':>9s} {'b':>9s} {'c':>7s} {'verify fixed':>13s} {'per_row':>8s}")
    for cls in INDEXES:
        costs = constants[cls.__name__]
        a, b, c = costs["PROBE_COST_US"]
        verify = " ".join(f"{v:{w}}" for v, w in zip(costs.get("VERIFY_COST_US", ()), ("13.1f", "8.4f")))
        print(f"{cls.__name__:28s} {a:9.1f} {b:9.5f} {c:7.3f} {verify}")
    constants["DEFAULT_VERIFY_COST_US"] = {
        distance: constants.pop(distance) for distance in ("hamming", "edit", "jaccard", "euclidean")
    }
    for distance, (fixed, per_row) in constants["DEFAULT_VERIFY_COST_US"].items():
        print(f"{'default verify, ' + distance:57s} {fixed:13.1f} {per_row:8.4f}")
    print(f"GPH part curve, cold: {constants['GPH_PART_CURVE_COST_US']:.1f} us")
    print(json.dumps(constants))


if __name__ == "__main__":
    main()
