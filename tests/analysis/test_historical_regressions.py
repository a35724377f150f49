"""The linter catches the repo's actual past bugs, deliberately reverted.

Every rule claims to encode a contract that was violated at least once; this
file is the receipt.  Each fixture reconstructs the shape of the original
defect as it shipped — if a refactor ever makes a rule blind to its
motivating bug, these fail before the bug does.
"""

import textwrap

from repro.analysis import analyze_source


def codes(source, path):
    active, _ = analyze_source(textwrap.dedent(source), path)
    return [finding.code for finding in active]


def test_pr3_mutable_cached_curve_fires_rpr007():
    # PR 3's poisoned-curve bug, reverted: CurveCache.put stored the caller's
    # array unfrozen, so mutating a served curve corrupted every future hit.
    source = """
        class CurveCache:
            def put(self, estimator_name, record_key, curve):
                key = (estimator_name, record_key)
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = curve
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
    """
    assert codes(source, "src/repro/serving/cache.py") == ["RPR007"]


def test_pr5_adhoc_threadpoolexecutor_fires_rpr001():
    # PR 5 removed ShardedSelector's private ThreadPoolExecutor; this is the
    # fan-out shape before it, a private pool per selector.
    source = """
        from concurrent.futures import ThreadPoolExecutor

        class ShardedSelector:
            def _fan_out(self, tasks):
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(max_workers=len(self._shards))
                return [self._pool.submit(task) for task in tasks]
    """
    assert codes(source, "src/repro/sharding/selector.py") == ["RPR001"]


def test_worker_thread_inside_runtime_fires_rpr001():
    # repro/runtime/ used to be exempt: its worker pool spawned the threads a
    # rebalance's driver and builds ran on, though no workload reached them.
    # The exemption went with the pool; the worker-spawn shape now fires
    # there like anywhere else.
    source = """
        import threading

        class Pool:
            def _spawn_locked(self, count):
                for _ in range(count):
                    thread = threading.Thread(target=self._worker_loop, daemon=True)
                    self._threads.append(thread)
                    thread.start()
    """
    assert codes(source, "src/repro/runtime/pool.py") == ["RPR001"]


def test_pr3_swallowed_validation_error_fires_rpr005():
    # PR 3 found drift detection dead for a release: a swallowed validation
    # problem (min_observations silently clamped) meant drift could never
    # fire.  The silent-handler shape is the linted proxy for that class.
    source = """
        class FeedbackMonitor:
            def record(self, estimated, actual):
                try:
                    self._validate(estimated, actual)
                except ValueError:
                    pass
    """
    assert codes(source, "src/repro/engine/feedback.py") == ["RPR005"]


def test_pr5_pre_threadsafety_service_fires_rpr006():
    # Before PR 5, EstimationService mutated its pending-batch state with no
    # lock anywhere.  The post-PR-5 contract: state guarded once is guarded
    # everywhere — one leftover unlocked write is the regression shape.
    source = """
        import threading

        class EstimationService:
            def __init__(self):
                self._lock = threading.RLock()
                self._pending = {}

            def submit(self, name, record):
                with self._lock:
                    self._pending.setdefault(name, []).append(record)
                    self._pending = dict(self._pending)

            def flush(self, name):
                self._pending[name] = []
    """
    assert codes(source, "src/repro/serving/service.py") == ["RPR006"]
