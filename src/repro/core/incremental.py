"""Handling dataset updates with incremental learning (paper §8).

Workflow reproduced from the paper:

1. after a batch of updates, the *validation* labels are refreshed by running
   the exact selection algorithm on the updated dataset;
2. the model's validation error (MSLE) is monitored — if it did not increase,
   nothing else happens;
3. if it increased, the *training* labels are refreshed too and the model is
   trained further from its current parameters (never from scratch) on the
   full training data until the validation error is stable for three
   consecutive epochs.  Queries are kept fixed; only labels change.

When the estimator is served through an :class:`repro.serving.EstimationService`,
the manager is the component that keeps the serving layer honest: every
applied update invalidates the service's cached curves for this estimator
(the dataset changed, so every cached cardinality is stale), revalidation runs
*through* the service so monitoring sees exactly what clients see, and a
retrain invalidates again before fresh curves are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..datasets.updates import UpdateOperation
from ..selection import SimilaritySelector
from ..selection.delta import resolve_delete_positions
from ..workloads.builder import relabel, relabel_delta
from ..workloads.examples import QueryExample
from .estimator import CardNetEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..serving.service import EstimationService


@dataclass
class UpdateStepReport:
    """Outcome of processing one update operation (both MSLEs are NaN when
    the operation changed no row: nothing was measured)."""

    operation_index: int
    dataset_size: int
    validation_msle_before: float
    validation_msle_after: float
    retrained: bool
    epochs_run: int


@dataclass
class RevalidationReport:
    """Outcome of a drift-triggered revalidation (no dataset change applied)."""

    validation_msle_before: float
    validation_msle_after: float
    retrained: bool
    epochs_run: int


class IncrementalUpdateManager:
    """Applies update operations to the dataset and keeps a CardNet estimator fresh."""

    def __init__(
        self,
        estimator: CardNetEstimator,
        selector: SimilaritySelector,
        train_examples: Sequence[QueryExample],
        validation_examples: Sequence[QueryExample],
        error_tolerance: float = 1e-3,
        max_epochs_per_update: int = 10,
        service: Optional["EstimationService"] = None,
        service_endpoint: Optional[str] = None,
    ) -> None:
        self.estimator = estimator
        self.selector = selector
        self.train_examples: List[QueryExample] = list(train_examples)
        self.validation_examples: List[QueryExample] = list(validation_examples)
        self.error_tolerance = error_tolerance
        self.max_epochs_per_update = max_epochs_per_update
        if service is not None and service_endpoint is None:
            raise ValueError("service_endpoint is required when a service is attached")
        self.service = service
        self.service_endpoint = service_endpoint
        self._baseline_validation_error: Optional[float] = None
        # Δ rows applied since the training labels were last refreshed —
        # replayed as one delta relabel when a retrain actually happens, so
        # update steps that skip retraining never touch the training set.
        self._pending_train_inserted: List = []
        self._pending_train_removed: List = []

    @property
    def records(self) -> Sequence:
        """The rows labels are computed against, read back from the index's
        store (an O(n) copy).  The manager owns no rows and no index: an
        engine hands it the attribute's (or shard's) own index at attach."""
        return self.selector.dataset

    # ------------------------------------------------------------------ #
    # Serving integration
    # ------------------------------------------------------------------ #
    def _invalidate_serving_cache(self) -> None:
        if self.service is not None:
            self.service.invalidate(self.service_endpoint)

    def _validation_msle(self) -> float:
        """Validation MSLE, measured through the serving path when attached."""
        examples = self.validation_examples
        if not examples:
            return 0.0
        if self.service is None:
            return self.estimator.validation_msle(examples)
        from ..metrics import msle

        estimates = self.service.estimate_many(
            self.service_endpoint,
            [example.record for example in examples],
            [example.theta for example in examples],
        )
        actual = np.asarray([example.cardinality for example in examples], dtype=np.float64)
        return msle(actual, estimates)

    def ensure_baseline(self) -> float:
        """Measure and pin the model's healthy validation error if not yet set.

        Called when the manager is wired into a serving/feedback stack while
        the model is known-good: a later drift-triggered :meth:`revalidate`
        then has a reference to detect degradation against.  Without it, the
        first revalidation would adopt the (possibly already drifted) error as
        its baseline and never retrain.
        """
        if self._baseline_validation_error is None:
            self._baseline_validation_error = self._validation_msle()
        return self._baseline_validation_error

    def _retrain_if_degraded(
        self, refresh_training_labels, force: bool = False
    ) -> RevalidationReport:
        """Steps 2–3 of the §8 loop, shared by :meth:`process` and :meth:`revalidate`.

        Measures the validation error (labels already refreshed by the
        caller); if it degraded past tolerance, or ``force``, training labels
        are refreshed with ``refresh_training_labels()`` and the model trains
        further from its current parameters."""
        error_before = self._validation_msle()
        if self._baseline_validation_error is None:
            self._baseline_validation_error = error_before
        if not (force or error_before > self._baseline_validation_error + self.error_tolerance):
            self._baseline_validation_error = min(self._baseline_validation_error, error_before)
            return RevalidationReport(error_before, error_before, False, 0)
        self.train_examples = refresh_training_labels()
        self._pending_train_inserted = []
        self._pending_train_removed = []
        result = self.estimator.incremental_fit(
            self.train_examples,
            self.validation_examples,
            max_epochs=self.max_epochs_per_update,
        )
        # The model parameters moved: cached curves are stale again.
        self._invalidate_serving_cache()
        error_after = self._validation_msle()
        self._baseline_validation_error = error_after
        return RevalidationReport(error_before, error_after, True, result.epochs_run)

    def revalidate(self, force_retrain: bool = False) -> RevalidationReport:
        """Revalidate (and retrain if degraded) without applying an update.

        This is the entry point a serving-side feedback loop calls when
        observed cardinalities drift from the estimates (the engine's
        :class:`repro.engine.FeedbackMonitor`): validation labels are
        refreshed against the *current* dataset, the error is measured through
        the serving path, and — if it degraded past tolerance, or
        ``force_retrain`` — training labels are refreshed and the model is
        trained further from its current parameters, exactly as in
        :meth:`process` steps 1–2.  Labels are refreshed in full: updates may
        have reached the adopted index without passing through this manager.
        """
        self.validation_examples = relabel(self.validation_examples, self.selector)
        return self._retrain_if_degraded(
            lambda: relabel(self.train_examples, self.selector), force=force_retrain
        )

    def _apply_operation_delta(self, operation: UpdateOperation) -> tuple:
        """Apply one operation to the selector *in place* as an O(Δ) delta.

        Returns ``(inserted, removed)`` — the record objects the operation
        added and dropped — so label maintenance can relabel against only
        those rows.  Delete positions follow the stream's lenient
        :func:`~repro.datasets.updates.apply_operation` semantics
        (out-of-range skipped, duplicates collapsed)."""
        if operation.kind == "insert":
            inserted = list(operation.records)
            if inserted:
                self.selector.insert_many(inserted)
            return inserted, []
        positions = resolve_delete_positions(len(self.selector), operation.records)
        if positions.size == 0:
            return [], []
        removed = list(self.selector.rows_at(positions))
        self.selector.delete_many(positions)
        return [], removed

    def _relabel_training_from_pending(self) -> List[QueryExample]:
        """Training labels after every delta parked since the last refresh.

        Correcting by every pending delta stays exact (deltas are additive
        and cancel when a row was inserted then removed); once the
        accumulated Δ rivals the dataset itself, one full relabel through the
        index is cheaper than a distance pass over every Δ row."""
        pending = len(self._pending_train_inserted) + len(self._pending_train_removed)
        if pending >= max(1, len(self.selector)):
            return relabel(self.train_examples, self.selector)
        return relabel_delta(
            self.train_examples,
            self.selector,
            self._pending_train_inserted,
            self._pending_train_removed,
        )

    def process(self, operation: UpdateOperation, operation_index: int = 0) -> UpdateStepReport:
        """Apply one update operation and retrain incrementally if needed.

        The selector absorbs the operation as an in-place O(Δ) delta (append
        segments + tombstones — no index rebuild), validation labels are
        corrected by one distance pass between the query records and only the
        Δ rows (:func:`~repro.workloads.builder.relabel_delta`), and training
        labels are only touched when a retrain actually triggers — replaying
        every delta accumulated since the last refresh in one pass.  An
        operation that changes no row changes nothing: no cached curve is
        invalidated and no error is measured (the report's MSLEs are NaN).
        """
        inserted, removed = self._apply_operation_delta(operation)
        if not (inserted or removed):
            unmeasured = float("nan")
            return UpdateStepReport(
                operation_index, len(self.selector), unmeasured, unmeasured, False, 0
            )
        self._pending_train_inserted.extend(inserted)
        self._pending_train_removed.extend(removed)
        # The dataset changed, so every cached curve for this estimator is stale.
        self._invalidate_serving_cache()
        self.validation_examples = relabel_delta(
            self.validation_examples, self.selector, inserted, removed
        )
        outcome = self._retrain_if_degraded(self._relabel_training_from_pending)
        return UpdateStepReport(operation_index, len(self.selector), **vars(outcome))
