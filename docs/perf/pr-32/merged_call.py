"""Time one merged batch-1 curve request per attribute, to compare two trees.

Usage (BLAS pinned by the script, ~20 s, ~0.2 GB)::

    python3 docs/perf/pr-32/merged_call.py TREE

``TREE`` is a checkout of this repository; its ``src`` and ``benchmarks/e2e``
are imported.  On a FULL ``conj_sharded_unique`` fixture it calls each
attribute's ``MergedShardEstimator.estimate_curve_many`` on 300 single
records from ``RequestStream(11)`` and prints the mean wall time per call,
the part spent inside ``CardNetEstimator.estimate_curve_many`` (features and
model passes) and the rest (the merged estimator's own work).
"""

from __future__ import annotations

import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.core import estimator as core_estimator  # noqa: E402

CALLS = 300


def main() -> None:
    inside = [0.0]
    original = core_estimator.CardNetEstimator.estimate_curve_many

    def timed(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start

    core_estimator.CardNetEstimator.estimate_curve_many = timed
    fixture = fx.build("conj_sharded_unique", wl.FULL)
    try:
        stream = wl.RequestStream(11, "conj_sharded_unique", fixture.columns, unique=True)
        source = stream.estimates(stream.rng(0))
        requests = [next(source) for _ in range(8 * CALLS)]
        for attribute in wl.ATTRIBUTES:
            merged = fixture.engine.shard_group(attribute.name).merged
            grid = fixture.engine.shard_group(attribute.name).curve_thetas
            records = [record for name, record, _ in requests if name == attribute.name][:CALLS]
            merged.estimate_curve_many(records[:1], grid)
            inside[0] = 0.0
            start = time.perf_counter()
            for record in records:
                merged.estimate_curve_many([record], grid)
            total = (time.perf_counter() - start) / len(records) * 1e6
            model = inside[0] / len(records) * 1e6
            print(f"{attribute.name}: {total:.1f} us per call, {model:.1f} us in "
                  f"CardNetEstimator.estimate_curve_many, {total - model:.1f} us merged self")
    finally:
        fixture.close()


if __name__ == "__main__":
    main()
