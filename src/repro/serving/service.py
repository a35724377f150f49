"""The estimation service: micro-batching + curve cache in front of estimators.

Request flow for ``estimate_many`` (the primary path):

1. the request batch is grouped per registered estimator;
2. each record's cache key is computed and the curve cache consulted;
3. the records that miss are deduplicated and sent to the estimator as ONE
   ``estimate_curve_many`` call (the micro-batch) over the endpoint's
   canonical threshold grid;
4. the returned monotone curves are cached, and every request — hit or miss —
   is answered by indexing its record's curve at the requested threshold.

Because curves are monotone in the threshold, a cached curve answers every
future threshold for that record for free; the cache key is the featurized
record, so repeated records across thresholds and across time all hit.

**Concurrency.**  The service is safe to drive from many caller threads at
once (the library starts none of its own); every shard's fan-out step and
every caller of the engine hit one service.  A single
re-entrant lock protects the cache, the registry, and every resolution step
(re-entrant, so an estimator that calls back into the service while a
request holds the lock cannot deadlock it); no request is ever lost, dropped,
or resolved twice, and telemetry counters (each metric lock-protected) sum
exactly to the work requested.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import span
from .cache import CurveCache
from .registry import EstimatorRegistry, RegisteredEstimator
from .telemetry import ServingTelemetry


class EstimationService:
    """Serves cardinality estimates for every registered estimator."""

    def __init__(
        self,
        registry: Optional[EstimatorRegistry] = None,
        cache_capacity: int = 1024,
    ) -> None:
        self.registry = registry if registry is not None else EstimatorRegistry()
        self.cache = CurveCache(capacity=cache_capacity)
        self.telemetry = ServingTelemetry()
        #: Re-entrant: an estimator called while the lock is held may call
        #: back into the service without deadlocking it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Registration convenience
    # ------------------------------------------------------------------ #
    def register(self, name: str, estimator, **options) -> RegisteredEstimator:
        """Register an estimator (see :meth:`EstimatorRegistry.register`)."""
        with self._lock:
            entry = self.registry.register(name, estimator, **options)
            # Defensive: if the name was ever served before (e.g. unregistered
            # directly on the registry), make sure no stale curves survive.
            self.cache.invalidate(name)
            return entry

    def register_all(
        self, endpoints: Sequence[Tuple[str, Any, Dict[str, Any]]]
    ) -> List[str]:
        """Register ``(name, estimator, options)`` endpoints all-or-nothing:
        when one is refused (a taken name, a bad grid) the ones already up
        come down again before the refusal propagates.  Returns the names."""
        registered: List[str] = []
        try:
            for name, estimator, options in endpoints:
                self.register(name, estimator, **options)
                registered.append(name)
        except BaseException:
            for name in registered:
                self.unregister(name)
            raise
        return registered

    def unregister(self, name: str) -> None:
        """Remove an endpoint AND its cached curves.

        Always prefer this over ``registry.unregister`` when the registry is
        attached to a service — the cache is keyed by endpoint name, so a
        bare registry removal would let a later re-registration under the
        same name serve the old estimator's curves.
        """
        with self._lock:
            self.registry.unregister(name)
            self.cache.invalidate(name)

    # ------------------------------------------------------------------ #
    # Synchronous estimation
    # ------------------------------------------------------------------ #
    def estimate_many(
        self, name: str, records: Sequence[Any], thetas: Sequence[float]
    ) -> np.ndarray:
        """Batched estimates for one estimator, answered from cached curves.

        The endpoint is resolved *before* the empty-batch short-circuit: an
        unknown endpoint raises even when there is no work to do, instead of
        silently succeeding on empty input.
        """
        def answer(entry: RegisteredEstimator, records: List[Any]) -> np.ndarray:
            requested = np.asarray(thetas, dtype=np.float64)
            if len(requested) != len(records):
                raise ValueError("records and thetas must have the same length")
            if np.isnan(requested).any():
                raise ValueError("thresholds must not be NaN")
            if not records:
                return np.zeros(0)
            curves = self._curves_for(entry, records)
            columns = entry.curve_indices(requested)  # one vectorized map per batch
            return np.asarray(
                [curve[column] for curve, column in zip(curves, columns)],
                dtype=np.float64,
            )

        return self._request(name, records, answer)

    def estimate(self, name: str, record: Any, theta: float) -> float:
        """Single-query estimate (a one-element batch through the curve path)."""
        return float(self.estimate_many(name, [record], [theta])[0])

    def estimate_curve(self, name: str, record: Any) -> np.ndarray:
        """The full cached curve for one record (a copy; grid = entry's thetas)."""
        return self._request(
            name, [record], lambda entry, records: self._curves_for(entry, records)[0].copy()
        )

    def estimate_curve_many(self, name: str, records: Sequence[Any]) -> np.ndarray:
        """One cached curve per record, stacked into a fresh ``(n, t)`` matrix.

        The batched analogue of :meth:`estimate_curve` — misses are computed
        in one micro-batch, hits come straight from the cache.
        """
        def answer(entry: RegisteredEstimator, records: List[Any]) -> np.ndarray:
            if not records:
                return np.zeros((0, len(entry.curve_thetas)))
            return np.stack(self._curves_for(entry, records))  # a copy: cached rows stay frozen

        return self._request(name, records, answer)

    def _request(self, name: str, records: Sequence[Any], answer: Callable[..., Any]) -> Any:
        """The one prologue of every public estimate call: the request is
        timed, traced as ``service.estimate``, resolved and answered
        (``answer(entry, records)``) under the service lock, and its latency
        recorded — zero-work requests included, so per-request accounting
        stays consistent across batch sizes."""
        start = time.perf_counter()
        with span("service.estimate", endpoint=name) as request_span:
            with self._lock:
                entry = self.registry.get(name)
                records = list(records)
                request_span.set(batch=len(records))
                result = answer(entry, records)
                self.telemetry.record_latency(name, time.perf_counter() - start)
                return result

    # ------------------------------------------------------------------ #
    # Cache maintenance
    # ------------------------------------------------------------------ #
    def invalidate(self, name: Optional[str] = None) -> int:
        """Drop cached curves after a dataset update or retrain."""
        with self._lock:
            if name is not None:
                self.registry.get(name)
            return self.cache.invalidate(name)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "cache": self.cache.stats(),
                "endpoints": self.telemetry.snapshot(),
                "registered": self.registry.names(),
            }

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store)
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        """The lock is live state and is rebuilt on restore."""
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _curves_for(
        self, entry: RegisteredEstimator, records: Sequence[Any]
    ) -> List[np.ndarray]:
        """Curves aligned with ``records``, computing misses in one micro-batch.

        Callers hold ``self._lock`` — lookup, model call, and cache fill are
        one atomic step, so two threads missing on the same record never
        race a half-filled cache.  Holding the lock ACROSS the model call is
        deliberate: estimators are outside the thread-safety contract
        (sampling baselines hold RNGs, deep baselines still infer through
        the autograd graph; CardNet's own inference is graph-free but reads
        weights a concurrent retrain may be stepping), so cold-path
        inference serializes.  Concurrency wins come from everything outside
        this step — warm cache hits queue only briefly, and the engine's
        verification/fan-out work never touches the service at all.
        """
        keys = [entry.key_for(record) for record in records]
        curves: List[Optional[np.ndarray]] = []
        missing: Dict[bytes, List[int]] = {}
        hits = 0
        for index, key in enumerate(keys):
            curve = self.cache.get(entry.name, key)
            curves.append(curve)
            if curve is None:
                missing.setdefault(key, []).append(index)
            else:
                hits += 1
        self.telemetry.record_requests(
            entry.name, len(records), hits, len(records) - hits
        )
        if missing:
            # The micro-batch: every distinct uncached record in one model call.
            representative_ids = [positions[0] for positions in missing.values()]
            batch_records = [records[i] for i in representative_ids]
            self.telemetry.record_batch(entry.name, len(batch_records))
            grid = None if entry.canonical else entry.curve_thetas
            with span(
                "service.micro_batch", endpoint=entry.name, batch=len(batch_records)
            ):
                fresh = entry.estimator.estimate_curve_many(batch_records, grid)
            for key, curve in zip(missing.keys(), np.asarray(fresh)):
                # Copy each row out of the batch matrix: caching a row VIEW
                # would pin the whole micro-batch's memory for as long as any
                # one of its curves stays cached.
                curve = np.array(curve)
                self.cache.put(entry.name, key, curve)
                for position in missing[key]:
                    curves[position] = curve
        return curves  # type: ignore[return-value]
