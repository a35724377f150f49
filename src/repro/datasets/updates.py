"""Update streams (insertions / deletions) for the incremental-learning study.

Paper §9.8 evaluates a stream of 200 operations, each inserting or deleting a
handful of records.  :func:`generate_update_stream` produces such a stream for
any dataset; :func:`apply_operation` applies one operation and returns the new
record list, so estimators and label generators can be re-evaluated after each
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .synthetic import Dataset


@dataclass
class UpdateOperation:
    """A single batched update: either an insertion or a deletion of records."""

    kind: str  # "insert" or "delete"
    records: List  # records to insert (for inserts) or indexes to drop (for deletes)

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete"):
            raise ValueError(f"unknown update kind: {self.kind!r}")


def generate_update_stream(
    dataset: Dataset,
    num_operations: int = 20,
    records_per_operation: int = 5,
    insert_fraction: float = 0.5,
    seed: int = 0,
) -> List[UpdateOperation]:
    """Create a reproducible stream of insert/delete operations.

    Inserts re-use (copies of) existing records with a fresh noise draw where
    applicable — enough to shift cardinalities without changing the data type.
    Deletes refer to positional indexes valid at the time the operation is
    applied sequentially starting from the original dataset.
    """
    rng = np.random.default_rng(seed)
    operations: List[UpdateOperation] = []
    current_size = len(dataset)
    records = list(dataset.records)
    for _ in range(num_operations):
        do_insert = rng.random() < insert_fraction or current_size <= records_per_operation
        if do_insert:
            picks = rng.integers(0, len(records), size=records_per_operation)
            new_records = [records[int(p)] for p in picks]
            operations.append(UpdateOperation("insert", new_records))
            current_size += records_per_operation
        else:
            picks = sorted(
                {int(p) for p in rng.integers(0, current_size, size=records_per_operation)},
                reverse=True,
            )
            operations.append(UpdateOperation("delete", list(picks)))
            current_size -= len(picks)
    return operations


def apply_operation(records: Sequence, operation: UpdateOperation) -> List:
    """Apply one update operation to a record list, returning a new list.

    A delete removes the distinct listed positions that lie within
    ``[0, len(records))`` — repeats and out-of-range entries name nothing —
    which is what every lenient update path means by a delete list
    (:func:`repro.selection.delta.resolve_delete_positions`).
    """
    if operation.kind == "insert":
        return [*records, *operation.records]
    dropped = {int(i) for i in operation.records}
    return [record for index, record in enumerate(records) if index not in dropped]


def apply_stream(records: Sequence, operations: Sequence[UpdateOperation]) -> Tuple[List, List[int]]:
    """Apply a whole stream; returns (final records, size after each operation)."""
    current = list(records)
    sizes: List[int] = []
    for operation in operations:
        current = apply_operation(current, operation)
        sizes.append(len(current))
    return current, sizes
