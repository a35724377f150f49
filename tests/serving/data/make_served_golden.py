"""Print what the serving layer answers on the SMOKE e2e fixtures.

Usage (run from the repository root; the script pins BLAS to one thread)::

    python tests/serving/data/make_served_golden.py > tests/serving/data/served_golden.txt
    python tests/serving/data/make_served_golden.py --replay-only --restore-at 10
    python tests/serving/data/make_served_golden.py --full --tree TREE > served-TREE.txt

The first lines are ``#`` headers naming what the numbers depend on besides
the code: the NumPy version, the BLAS library (name, version and build
configuration), the BLAS kernel chosen at run time and the CPU model.  Then
one line per check:

* ``curves W``: on the SMOKE fixture of each of the four e2e workloads W, 200
  ``RequestStream(11, W)`` estimate requests, each served as
  ``service.estimate_curve`` and ``service.estimate`` (first hash); then,
  from an empty cache, the same records in batches of 64 through
  ``service.estimate_curve_many`` of the attribute's endpoint and of each of
  its shard endpoints (second hash).
* ``replay STEP``: on a SMOKE ``update_mix`` fixture, 20 logical updates of
  16 rows through ``engine.apply_update``, each followed by 10 executed
  queries.  Per update the line hashes every manager's labels and CardNet
  parameters, each report's ``retrained`` flag, the ``record_ids`` of the
  queries and the curve served for each of their predicates.

``--restore-at STEP`` saves the engine with ``engine.save`` before update
STEP and continues the replay on ``SimilarityQueryEngine.load`` of that
snapshot; a restore that loses state prints different lines from STEP on.
``--replay-only`` skips the ``curves`` lines.

``--full`` runs on the FULL fixtures with 600 requests and 60 updates (~1 min,
~0.3 GB), and ``--tree TREE`` imports ``src`` and ``benchmarks/e2e`` from
another checkout, so the same script compares what a parent and a change
serve: run it on both and ``cmp`` the outputs.

``tests/serving/test_served_golden.py`` runs this script and compares its
output with ``served_golden.txt``.  Regenerate the file only with this script,
and only when a change is meant to move served numbers.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[3]

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--restore-at", type=int, default=None, metavar="STEP")
parser.add_argument("--replay-only", action="store_true")
parser.add_argument("--full", action="store_true", help="FULL fixtures, 600 requests, 60 updates")
parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
ARGS = parser.parse_args()
sys.path[:0] = [str(ARGS.tree.resolve() / "src"), str(ARGS.tree.resolve())]

import numpy as np  # noqa: E402

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.engine import SimilarityQueryEngine  # noqa: E402

SEED = 11
SCALE, REQUESTS, UPDATES = (wl.FULL, 600, 60) if ARGS.full else (wl.SMOKE, 200, 20)
BATCH = 64
ROWS_PER_UPDATE = 16
QUERIES_PER_UPDATE = 10


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return models[0] if models else platform.processor() or platform.machine()


def blas_core() -> str:
    """The kernel OpenBLAS picked for this CPU at load time (a DYNAMIC_ARCH
    build's configuration names only the build target)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def header() -> list:
    """``# field value`` lines: what the served numbers depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(str(blas.get("openblas configuration", "")).split())
    return [
        f"# numpy {np.__version__}",
        f"# blas {blas.get('name')} {blas.get('version')} {config}".rstrip(),
        f"# blas-core {blas_core()}",
        f"# cpu {cpu_model()}",
    ]


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
    fixture = fx.build(workload, SCALE)
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
        # so the batch phase starts cold and asks the merged endpoint first.
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


def update_replay(restore_at=None):
    fixture = fx.build("update_mix", SCALE)
    engine = fixture.engine
    try:
        with tempfile.TemporaryDirectory() as scratch:
            stream = wl.RequestStream(SEED, "update_mix", fixture.columns, unique=True)
            rng = stream.rng(0)
            for step in range(UPDATES):
                if step == restore_at:
                    engine.save(Path(scratch) / "engine")
                    engine = SimilarityQueryEngine.load(Path(scratch) / "engine")
                digest = hashlib.sha256()
                operations = stream.update(rng, step, ROWS_PER_UPDATE)
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
                yield f"replay {step} {digest.hexdigest()[:16]}"
    finally:
        fixture.close()
        if engine is not fixture.engine:
            engine.runtime.shutdown()


def main() -> None:
    for line in header():
        print(line, flush=True)
    if not ARGS.replay_only:
        for workload in wl.WORKLOADS:
            print(served_curves(workload.name), flush=True)
    for line in update_replay(ARGS.restore_at):
        print(line, flush=True)


if __name__ == "__main__":
    main()
