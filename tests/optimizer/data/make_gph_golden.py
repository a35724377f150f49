"""Write ``gph_golden.json``: what a GPH-planned Hamming attribute answers
before and after a stream of updates.

Usage::

    PYTHONPATH=src python tests/optimizer/data/make_gph_golden.py tests/optimizer/data/gph_golden.json

A seeded 2,000-row, 64-bit attribute is registered with a
``PigeonholeHammingSelector(part_size=16)`` (four parts, one ``::partJ``
histogram endpoint each).  For 100 probes at three thresholds the file
records the plan's ``allocation`` and
``repr(estimated_candidates)`` and the execution's ``driver_candidates`` and
matched ids; then 40 generated inserts and deletes (inserts flip a few bits
of existing rows, so they bring unseen part patterns) are applied through
``engine.apply_update`` and the same is recorded again.  Plans are executed
without feedback, so nothing but the data changes between the two phases.

``tests/optimizer/test_gph_golden.py`` recomputes :func:`golden` and compares
it with the file exactly.  Regenerate the file only with this script.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.baselines.db_specialized import HistogramHammingEstimator
from repro.datasets import make_binary_dataset
from repro.datasets.updates import UpdateOperation
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection import PigeonholeHammingSelector

NUM_RECORDS = 2000
DIMENSION = 64
PART_SIZE = 16
NUM_PROBES = 100
THETAS = (3, 6, 9)
NUM_UPDATES = 40
ROWS_PER_UPDATE = 16


def updates(records: np.ndarray, rng: np.random.Generator):
    """40 operations: inserts of perturbed rows, deletes of distinct positions."""
    size = len(records)
    for _ in range(NUM_UPDATES):
        if rng.random() < 0.5:
            rows = records[rng.integers(0, len(records), size=ROWS_PER_UPDATE)].copy()
            flips = rng.random(rows.shape) < 0.05
            yield UpdateOperation("insert", list(np.bitwise_xor(rows, flips.astype(np.uint8))))
            size += ROWS_PER_UPDATE
        else:
            positions = rng.choice(size, size=ROWS_PER_UPDATE, replace=False)
            yield UpdateOperation("delete", sorted(int(p) for p in positions))
            size -= ROWS_PER_UPDATE


def answers(engine: SimilarityQueryEngine, probes: np.ndarray) -> list:
    out = []
    for probe in probes:
        for theta in THETAS:
            plan = engine.explain(SimilarityPredicate("hm", probe, float(theta)))
            result = engine.executor.execute(plan)
            out.append({
                "theta": theta,
                "allocation": [int(t) for t in plan.allocation],
                "estimated_candidates": repr(plan.estimated_candidates),
                "driver_candidates": int(result.driver_candidates),
                "matches": [int(i) for i in result.record_ids],
            })
    return out


def golden() -> dict:
    dataset = make_binary_dataset(
        num_records=NUM_RECORDS, dimension=DIMENSION, num_clusters=8,
        flip_probability=0.08, theta_max=20, seed=40, name="HM-GPH-Golden",
    )
    records = dataset.records
    rng = np.random.default_rng(40)
    probes = records[rng.integers(0, NUM_RECORDS, size=NUM_PROBES)].copy()
    probes ^= (rng.random(probes.shape) < 0.03).astype(np.uint8)
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "hm", records, "hamming", HistogramHammingEstimator(records),
        selector=PigeonholeHammingSelector(records, part_size=PART_SIZE),
        theta_max=dataset.theta_max,
    )
    before = answers(engine, probes)
    for index, operation in enumerate(updates(records, rng)):
        engine.apply_update("hm", operation, index)
    return {
        "before": before,
        "rows_after": len(engine.catalog.get("hm")),
        "after": answers(engine, probes),
    }


def main(path: Path) -> None:
    data = golden()
    lines = [f'"rows_after": {data["rows_after"]}']
    for phase in ("before", "after"):
        rows = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in data[phase])
        lines.append(f'"{phase}": [\n{rows}\n]')
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
