"""Hash what the serving layer answers on the e2e fixtures, to compare two trees.

Usage (BLAS pinned by the script, ~1 min, ~0.3 GB)::

    python3 docs/perf/pr-31/served_curves.py TREE > served-TREE.txt

``TREE`` is a checkout of this repository; its ``src`` and ``benchmarks/e2e``
are imported, so the same script measures a parent and a change.  It prints
one line per check, and two trees that serve the same numbers print the same
file (compare with ``cmp``):

* ``curves W``: on the FULL fixture of each of the four e2e workloads W, 600
  ``RequestStream(11, W)`` estimate requests, each served as
  ``service.estimate_curve`` and ``service.estimate`` (first hash); then,
  from an empty cache, the same records in batches of 64 through
  ``service.estimate_curve_many`` of the attribute's endpoint and then of
  each of its shard endpoints (second hash).  That covers merged and shard
  endpoints of sharded attributes and the unsharded ``eu`` endpoint, which is
  served on an explicit grid.
* ``replay STEP``: on a FULL ``update_mix`` fixture, 60 logical updates of
  16 rows (``RequestStream(11).update``) through ``engine.apply_update``, each
  followed by 10 executed queries.  Per update the line hashes every
  manager's labels and CardNet parameters, each report's ``retrained`` flag,
  the ``record_ids`` of the 10 queries and the curve served for each of their
  predicates.
"""

from __future__ import annotations

import hashlib
import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402

SEED = 11
REQUESTS = 600
BATCH = 64
UPDATES = 60
QUERIES_PER_UPDATE = 10


def _feed(digest, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        else:
            digest.update(repr(value).encode())


def _shard_endpoints(fixture, attribute):
    if fixture.engine is None or not fixture.engine.catalog.get(attribute).sharded:
        return []
    return list(fixture.engine.catalog.get(attribute).shard_endpoints)


def served_curves(workload: str) -> str:
    fixture = fx.build(workload, wl.FULL)
    try:
        service = fixture.service
        stream = wl.RequestStream(SEED, workload, fixture.columns, unique=True)
        source = stream.estimates(stream.rng(0))
        requests = [next(source) for _ in range(REQUESTS)]
        single = hashlib.sha256()
        for endpoint, record, theta in requests:
            _feed(single, service.estimate_curve(endpoint, record))
            _feed(single, service.estimate(endpoint, record, theta))
        # A curve's last bits follow the shape of the batch that computed it,
        # so the batch phase starts cold and asks the merged endpoint first:
        # on both designs every shard curve then comes from the same batch.
        service.invalidate()
        batched, curves = hashlib.sha256(), 0
        for attribute in wl.ATTRIBUTES:
            records = [r for e, r, _ in requests if e == attribute.name]
            for start in range(0, len(records), BATCH):
                batch = records[start:start + BATCH]
                for endpoint in [attribute.name, *_shard_endpoints(fixture, attribute.name)]:
                    _feed(batched, service.estimate_curve_many(endpoint, batch))
                    curves += len(batch)
        return (
            f"curves {workload} requests={len(requests)} {single.hexdigest()[:16]} "
            f"batch_curves={curves} {batched.hexdigest()[:16]}"
        )
    finally:
        fixture.close()


def update_replay():
    fixture = fx.build("update_mix", wl.FULL)
    engine = fixture.engine
    try:
        stream = wl.RequestStream(SEED, "update_mix", fixture.columns, unique=True)
        rng = stream.rng(0)
        for step in range(UPDATES):
            digest = hashlib.sha256()
            operations = stream.update(rng, step, 16)
            for attribute in wl.ATTRIBUTES:
                report = engine.apply_update(attribute.name, operations[attribute.name], step)
                reports = getattr(report, "reports", {0: report} if report else {})
                _feed(digest, sorted((k, r.retrained) for k, r in reports.items()))
            for name in sorted(engine._links):
                for unit, manager in sorted(engine._links[name].managers.items()):
                    _feed(digest, name, unit)
                    _feed(digest, [e.cardinality for e in manager.train_examples])
                    _feed(digest, [e.cardinality for e in manager.validation_examples])
                    for parameter in manager.estimator.model.parameters():
                        _feed(digest, parameter.data)
            for _ in range(QUERIES_PER_UPDATE):
                query = stream.query(rng)
                _feed(digest, engine.execute(query).record_ids)
                for predicate in query.predicates:
                    _feed(digest, engine.service.estimate_curve(predicate.attribute, predicate.record))
            yield f"replay {step} {digest.hexdigest()}"
    finally:
        fixture.close()


def main() -> None:
    for workload in wl.WORKLOADS:
        print(served_curves(workload.name), flush=True)
    for line in update_replay():
        print(line, flush=True)


if __name__ == "__main__":
    main()
