"""Resident memory of a FULL ``conj_sharded_unique`` fixture, to compare two trees.

Usage (BLAS pinned by the script, ~15 s, ~0.2 GB)::

    python3 docs/perf/pr-32/rss_after_stacking.py TREE

``TREE`` is a checkout of this repository; its ``src`` and ``benchmarks/e2e``
are imported.  The script builds the fixture, executes 300 queries, and
prints ``VmRSS`` / ``VmHWM`` (MB) after the build, after the queries, and
after glibc's ``malloc_trim(0)``, which returns the free pages the allocator
keeps.  It also prints the bytes of every shard CardNet's parameters.
"""

from __future__ import annotations

import ctypes
import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402

QUERIES = 300


def memory() -> str:
    with open("/proc/self/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    rss, hwm = (int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "VmHWM"))
    return f"rss={rss:.1f} hwm={hwm:.1f}"


def main() -> None:
    fixture = fx.build("conj_sharded_unique", wl.FULL)
    print("built", memory())
    stream = wl.RequestStream(11, "conj_sharded_unique", fixture.columns, unique=True)
    rng = stream.rng(0)
    for _ in range(QUERIES):
        fixture.engine.execute(stream.query(rng))
    print(f"after {QUERIES} queries", memory())
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    print("after malloc_trim", memory())
    parameters = sum(
        parameter.data.nbytes
        for attribute in wl.ATTRIBUTES
        for estimator in fixture.engine.shard_group(attribute.name).estimators
        for parameter in estimator.model.parameters()
    )
    print(f"shard parameters {parameters / 2**20:.1f} MB")
    fixture.close()


if __name__ == "__main__":
    main()
