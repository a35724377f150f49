"""Common interface implemented by every cardinality estimator in the library.

CardNet, CardNet-A, and all baselines (database, traditional-learning, and
deep-learning methods) expose the same operations so the benchmark harness,
the serving layer, and the query optimizers can treat them uniformly.  The
interface is **batch-first**: the primary operation is

* ``estimate_batch(records, thetas)`` — vectorized estimates for many
  (query record, threshold) pairs at once;

from which the remaining operations derive:

* ``estimate(record, theta)`` — thin scalar delegate (one-element batch);
* ``estimate_many(examples)`` — batch estimates for labelled examples
  (labels ignored), the entry point used by benchmarks;
* ``estimate_curve_many(records, thetas)`` — one monotone cardinality curve
  per record over a threshold grid, the operation the serving layer caches
  and the query optimizers consume;
* ``fit(train, validation)`` — learn from labelled query examples (no-op for
  estimators that only need the dataset, e.g. sampling or histograms).

Estimators override ``estimate_batch`` (and, when they can do better than the
default per-threshold sweep, ``estimate_curve_many``) with genuinely
vectorized kernels; none of them should loop over single-query ``estimate``
calls on the hot path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

from ..distances.base import THETA_SLACK
from ..workloads.examples import QueryExample


class CardinalityEstimator(ABC):
    """Uniform batch-first estimator interface."""

    #: Identifier shown in benchmark tables (e.g. ``"CardNet"``, ``"DB-US"``).
    name: str = "abstract"

    #: Whether the estimator guarantees monotone estimates in the threshold.
    monotonic: bool = False

    def fit(
        self,
        train: Sequence[QueryExample],
        validation: Sequence[QueryExample] = (),
    ) -> "CardinalityEstimator":
        """Train on labelled examples.  Default: nothing to learn."""
        return self

    # ------------------------------------------------------------------ #
    # Primary batch operations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Vector of estimates, one per ``(records[i], thetas[i])`` pair."""

    def estimate_curve_many(
        self,
        records: Sequence[Any],
        thetas: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """One cardinality curve per record: an ``(n, t)`` matrix where entry
        ``[i, j]`` is the estimate for ``(records[i], thetas[j])``.

        ``thetas`` defaults to :meth:`curve_thetas`.  For monotone estimators
        each row is non-decreasing, so a single cached curve answers *every*
        threshold for that record (the property the serving layer exploits).

        The default sweeps the grid with one :meth:`estimate_batch` call per
        threshold (vectorized over records); estimators with a cheaper
        whole-curve kernel override this.
        """
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        columns = [
            self.estimate_batch(records, np.full(len(records), theta, dtype=np.float64))
            for theta in thetas
        ]
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------ #
    # Derived operations
    # ------------------------------------------------------------------ #
    def estimate(self, record: Any, theta: float) -> float:
        """Estimated cardinality for one (query record, threshold) pair."""
        return float(self.estimate_batch([record], np.asarray([theta], dtype=np.float64))[0])

    def estimate_many(self, examples: Sequence[QueryExample]) -> np.ndarray:
        """Vector of estimates for a list of labelled examples (labels ignored)."""
        examples = list(examples)
        if not examples:
            return np.zeros(0)
        records = [example.record for example in examples]
        thetas = np.asarray([example.theta for example in examples], dtype=np.float64)
        return np.asarray(self.estimate_batch(records, thetas), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Curve support (used by the serving layer and the optimizers)
    # ------------------------------------------------------------------ #
    def curve_thetas(self) -> Optional[np.ndarray]:
        """Canonical threshold grid for curve-based serving, if the estimator
        has a natural one (e.g. CardNet's τ grid).  ``None`` means the caller
        must supply a grid."""
        return None

    def curve_indices(self, thetas: Sequence[float], grid: np.ndarray) -> np.ndarray:
        """Columns of a curve over ``grid`` answering each of ``thetas``.

        Default: the rightmost grid point ``<= theta`` (monotone snap-down),
        clipped into range — one vectorized searchsorted for the whole batch.
        Estimators whose estimates depend on the threshold only through a
        quantization (e.g. CardNet's θ → τ map) override this so curve
        answers match direct estimation exactly.
        """
        grid = np.asarray(grid, dtype=np.float64)
        indices = np.searchsorted(
            grid, np.asarray(thetas, dtype=np.float64) + THETA_SLACK, side="right"
        ) - 1
        return np.clip(indices, 0, len(grid) - 1).astype(np.int64)

    def curve_index(self, theta: float, thetas: np.ndarray) -> int:
        """Scalar form of :meth:`curve_indices` (a one-element batch)."""
        return int(self.curve_indices(np.asarray([theta]), thetas)[0])

    def _resolve_curve_thetas(self, thetas: Optional[Sequence[float]]) -> np.ndarray:
        if thetas is None:
            thetas = self.curve_thetas()
        if thetas is None:
            raise ValueError(
                f"{self.name}: no canonical curve grid; pass `thetas` explicitly"
            )
        return np.asarray(thetas, dtype=np.float64)

    def size_in_bytes(self) -> int:
        """Serialized model size; 0 for estimators with no persistent state."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ScalarEstimatorMixin:
    """Adapter for estimators whose kernel is inherently per-query.

    Subclasses implement :meth:`estimate_one`; the mixin provides an
    ``estimate_batch`` that loops it.  Exists so the few estimators without a
    vectorizable kernel (e.g. the exact-selection oracle) still satisfy the
    batch-first interface without pretending to be vectorized.
    """

    def estimate_one(self, record: Any, theta: float) -> float:
        raise NotImplementedError

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        return np.asarray(
            [self.estimate_one(record, float(theta)) for record, theta in zip(records, thetas)],
            dtype=np.float64,
        )
