"""Concurrent-correctness guarantees of the estimation service.

The stress test hammers ONE service from N threads with a mix of every
client-facing operation (``estimate_many`` / ``estimate`` /
``estimate_curve_many``) and then asserts the invariants shard fan-out relies
on: answers identical to a single-threaded reference, cached curves still
frozen, and telemetry counts that sum exactly to the work requested.

Also pins that a failing endpoint raises to its caller and wedges nothing.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np
import pytest

from repro.baselines.db_specialized import HistogramHammingEstimator
from repro.datasets import make_binary_dataset
from repro.runtime import WorkerPool
from repro.serving import EstimationService

THETA_MAX = 12


@pytest.fixture(scope="module")
def stress_dataset():
    return make_binary_dataset(
        num_records=160, dimension=24, num_clusters=4, flip_probability=0.1,
        theta_max=THETA_MAX, seed=5, name="HM-Stress",
    )


def _service(dataset):
    service = EstimationService()
    grid = np.arange(THETA_MAX + 1, dtype=np.float64)
    for name, seed in (("a", 0), ("b", 1)):
        # Distinct estimators per endpoint (different group sizes) so a
        # request routed to the wrong endpoint would return a wrong value.
        service.register(
            name,
            HistogramHammingEstimator(dataset.records, group_size=6 + 2 * seed),
            curve_thetas=grid,
            distance_name="hamming",
        )
    return service


class TestStress:
    NUM_THREADS = 8
    ROUNDS = 12
    BATCH = 5

    def test_hammered_service_keeps_every_invariant(self, stress_dataset):
        service = _service(stress_dataset)
        records = stress_dataset.records
        rng = np.random.default_rng(11)
        # Per-thread deterministic workload: (record indices, thetas) rounds.
        workloads = [
            [
                (
                    rng.integers(0, len(records), size=self.BATCH),
                    rng.integers(0, THETA_MAX + 1, size=self.BATCH).astype(float),
                )
                for _ in range(self.ROUNDS)
            ]
            for _ in range(self.NUM_THREADS)
        ]

        # Single-threaded reference answers, from an identical fresh service.
        reference = _service(stress_dataset)
        expected = [
            [
                reference.estimate_many(
                    "a" if (t + r) % 2 == 0 else "b",
                    [records[i] for i in picks],
                    thetas,
                )
                for r, (picks, thetas) in enumerate(rounds)
            ]
            for t, rounds in enumerate(workloads)
        ]

        errors = []
        barrier = threading.Barrier(self.NUM_THREADS)
        # Exact request accounting per endpoint, to compare with telemetry.
        counts = {"a": 0, "b": 0}
        counts_lock = threading.Lock()

        def hammer(thread_id):
            try:
                barrier.wait()
                for round_id, (picks, thetas) in enumerate(workloads[thread_id]):
                    name = "a" if (thread_id + round_id) % 2 == 0 else "b"
                    batch_records = [records[i] for i in picks]
                    answers = service.estimate_many(name, batch_records, thetas)
                    np.testing.assert_array_equal(
                        answers, expected[thread_id][round_id]
                    )
                    with counts_lock:
                        counts[name] += len(batch_records)
                    # Single-query path: a one-element batch per round.
                    single = service.estimate(name, batch_records[0], float(thetas[0]))
                    assert single == expected[thread_id][round_id][0]
                    with counts_lock:
                        counts[name] += 1
                    # Curve path: whole curves for a couple of records.
                    curves = service.estimate_curve_many(name, batch_records[:2])
                    assert curves.shape == (2, THETA_MAX + 1)
                    with counts_lock:
                        counts[name] += 2
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            # repro: ignore[RPR001] - stress harness: raw threads hammer the service under test
            threading.Thread(target=hammer, args=(t,), daemon=True)
            for t in range(self.NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        # 1. Every answer matched the single-threaded reference (asserted in
        #    the threads above).
        # 2. Cached curves stay frozen under concurrency.
        assert len(service.cache) > 0
        for curve in service.cache._entries.values():
            assert not curve.flags.writeable

        # 3. Telemetry sums exactly to the requested work, per endpoint and
        #    in total — no increment was lost to a race.
        for name in ("a", "b"):
            stats = service.telemetry.endpoint(name)
            assert stats.requests == counts[name]
            assert stats.cache_hits + stats.cache_misses == stats.requests
        total = service.telemetry.total
        assert total.requests == counts["a"] + counts["b"]


class _ExplodingEstimator:
    """Minimal estimator whose micro-batches always fail."""

    monotonic = True

    def estimate_curve_many(
        self, records: Sequence, thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        raise RuntimeError("estimator exploded")

    def curve_thetas(self) -> Optional[np.ndarray]:
        return None


class TestFailingEndpoint:
    def test_failing_micro_batch_raises_to_its_caller_and_wedges_nothing(
        self, stress_dataset
    ):
        service = _service(stress_dataset)
        service.register(
            "broken",
            _ExplodingEstimator(),
            curve_thetas=np.arange(THETA_MAX + 1, dtype=np.float64),
        )
        records = stress_dataset.records
        with pytest.raises(RuntimeError, match="exploded"):
            service.estimate_many("broken", records[:3], [2.0] * 3)
        assert len(service.cache) == 0  # nothing half-cached
        # The lock was released on the way out: another thread still serves,
        # on the healthy endpoints and on the failing one alike.
        def serve():
            healthy = service.estimate("a", records[0], 3.0)
            with pytest.raises(RuntimeError, match="exploded"):
                service.estimate("broken", records[0], 2.0)
            return healthy

        pool = WorkerPool("other-client", num_workers=1)
        try:
            answer = pool.submit(serve).result(timeout=30)
        finally:
            pool.shutdown(wait=False)  # a wedged lock must fail the test, not hang it
        assert answer == service.estimate("a", records[0], 3.0)
