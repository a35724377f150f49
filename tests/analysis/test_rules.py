"""Fixture-based good/bad snippets for every RPR rule.

Each rule has at least one firing fixture (the contract violated) and one
passing fixture (the contract honored), presented at the tree location the
rule scopes to — ``path`` drives the ``src/`` strictness exactly as on
disk.
"""

import textwrap

from tools.analysis import analyze_source

SRC = "src/repro/example/module.py"


def codes(source, path=SRC):
    active, _ = analyze_source(textwrap.dedent(source), path)
    return [finding.code for finding in active]


# --------------------------------------------------------------------- #
# RPR001 — the library constructs no thread
# --------------------------------------------------------------------- #
class TestAdHocThreads:
    def test_fires_on_threadpoolexecutor(self):
        source = """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(str, tasks))
        """
        assert codes(source) == ["RPR001"]

    def test_fires_on_threading_thread_and_module_alias(self):
        source = """
            import threading
            import multiprocessing

            def spawn():
                threading.Thread(target=print).start()
                multiprocessing.Process(target=print).start()
        """
        assert codes(source) == ["RPR001", "RPR001"]

    def test_suppression_silences_with_reason(self):
        source = """
            import threading

            def stress():
                # repro: ignore[RPR001] - stress harness
                return threading.Thread(target=print)
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR002 — snapshot hooks in matched pairs
# --------------------------------------------------------------------- #
class TestSnapshotHookPairs:
    def test_fires_on_restore_without_state(self):
        source = """
            class HalfHooked:
                def __snapshot_restore__(self, state):
                    self.__dict__.update(state)
        """
        assert codes(source) == ["RPR002"]

    def test_fires_on_state_without_restore(self):
        source = """
            class HalfHooked:
                def __snapshot_state__(self):
                    return dict(self.__dict__)
        """
        assert codes(source) == ["RPR002"]

    def test_passes_with_both_or_neither(self):
        source = """
            class FullyHooked:
                def __snapshot_state__(self):
                    return dict(self.__dict__)

                def __snapshot_restore__(self, state):
                    self.__dict__.update(state)

            class Unhooked:
                pass
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR004 — monotonic clocks for durations
# --------------------------------------------------------------------- #
class TestMonotonicTime:
    def test_fires_on_time_time(self):
        source = """
            import time

            def measure(fn):
                start = time.time()
                fn()
                return time.time() - start
        """
        assert codes(source) == ["RPR004", "RPR004"]

    def test_passes_on_perf_counter_and_monotonic(self):
        source = """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                deadline = time.monotonic() + 5
                return time.perf_counter() - start, deadline
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR005 — no silent exception swallowing
# --------------------------------------------------------------------- #
class TestSilentException:
    def test_fires_on_bare_pass(self):
        source = """
            def risky(fn):
                try:
                    fn()
                except Exception:
                    pass
        """
        assert codes(source) == ["RPR005"]

    def test_fires_on_ellipsis_body(self):
        source = """
            def risky(fn):
                try:
                    fn()
                except OSError:
                    ...
        """
        assert codes(source) == ["RPR005"]

    def test_passes_when_counted_or_reraised(self):
        source = """
            def risky(fn, counter):
                try:
                    fn()
                except OSError:
                    counter.inc()
                except Exception:
                    raise
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR006 — lock discipline
# --------------------------------------------------------------------- #
class TestLockDiscipline:
    def test_fires_on_unlocked_write_to_guarded_attr(self):
        source = """
            import threading

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def safe_inc(self):
                    with self._lock:
                        self._count += 1

                def racy_reset(self):
                    self._count = 0
        """
        assert codes(source) == ["RPR006"]

    def test_fires_on_unlocked_subscript_write(self):
        source = """
            import threading

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def safe_put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def racy_put(self, key, value):
                    self._items[key] = value
        """
        assert codes(source) == ["RPR006"]

    def test_passes_when_all_writes_locked_or_exempt(self):
        source = """
            import threading

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # construction: not shared yet

                def inc(self):
                    with self._lock:
                        self._count += 1

                def _bump_locked(self):
                    self._count += 1  # caller holds the lock (suffix)

                def __snapshot_state__(self):
                    return dict(self.__dict__)

                def __snapshot_restore__(self, state):
                    self._count = state["count"]  # restore is single-threaded
        """
        assert codes(source) == []

    def test_lockless_class_is_exempt(self):
        source = """
            class Plain:
                def set(self, value):
                    self._value = value
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR007 — frozen cache arrays
# --------------------------------------------------------------------- #
class TestFrozenCacheArrays:
    def test_fires_on_unfrozen_store(self):
        source = """
            class CurveCache:
                def put(self, key, curve):
                    self._entries[key] = curve
        """
        assert codes(source) == ["RPR007"]

    def test_passes_when_frozen_first(self):
        source = """
            import numpy as np

            class CurveCache:
                def put(self, key, curve):
                    curve = np.asarray(curve)
                    if curve.base is not None:
                        curve = curve.copy()
                    curve.setflags(write=False)
                    self._entries[key] = curve
        """
        assert codes(source) == []

    def test_non_cache_classes_and_literals_exempt(self):
        source = """
            class Registry:
                def put(self, key, value):
                    self._entries[key] = value

            class StatsCache:
                def put(self, key):
                    self._entries[key] = {"hits": 0}
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR008 — seeded RNG only, in src/
# --------------------------------------------------------------------- #
class TestSeededRandom:
    def test_fires_on_global_numpy_rng(self):
        source = """
            import numpy as np

            def jitter(values):
                np.random.shuffle(values)
                return values + np.random.normal(size=len(values))
        """
        assert codes(source) == ["RPR008", "RPR008"]

    def test_fires_on_global_stdlib_rng(self):
        source = """
            import random

            def pick(items):
                return random.choice(items)
        """
        assert codes(source) == ["RPR008"]

    def test_passes_on_seeded_instances(self):
        source = """
            import random
            import numpy as np

            def pick(items, seed):
                rng = np.random.default_rng(seed)
                stdlib_rng = random.Random(seed)
                return rng.choice(items), stdlib_rng.choice(items)
        """
        assert codes(source) == []

    def test_tests_and_benchmarks_are_exempt(self):
        source = """
            import numpy as np

            def test_fuzz():
                np.random.shuffle([1, 2, 3])
        """
        assert codes(source, path="tests/test_fuzz.py") == []


# --------------------------------------------------------------------- #
# RPR009 — metric naming conventions
# --------------------------------------------------------------------- #
class TestMetricNaming:
    def test_fires_on_counter_without_total_suffix(self):
        source = """
            def record(registry):
                registry.counter("repro_requests").inc()
        """
        assert codes(source) == ["RPR009"]

    def test_fires_on_invalid_identifier(self):
        source = """
            def record(registry):
                registry.histogram("queueDepth").observe(3)
                registry.histogram("repro-latency").observe(0.1)
        """
        assert codes(source) == ["RPR009", "RPR009"]

    def test_fires_on_direct_construction(self):
        source = """
            from repro.obs.metrics import Counter

            def build():
                return Counter("repro_requests", {})
        """
        assert codes(source) == ["RPR009"]

    def test_passes_on_conventional_names(self):
        source = """
            def record(registry):
                registry.counter("repro_requests_total", {"endpoint": "e"}).inc()
                registry.histogram("repro_cache_size").observe(0)
                registry.histogram("repro_request_latency_seconds").observe(0.1)
        """
        assert codes(source) == []

    def test_ignores_lookalikes_and_dynamic_names(self):
        source = """
            import numpy as np
            from collections import Counter

            def unrelated(values, name, registry):
                counts, edges = np.histogram(values, bins=4)
                tally = Counter(values)
                registry.counter(name).inc()  # dynamic: not checkable
                return counts, edges, tally
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR010 — no index rebuilds on the update path
# --------------------------------------------------------------------- #
class TestUpdatePathRebuild:
    def test_fires_on_rebuild_in_an_update_method(self):
        source = """
            class Binding:
                def apply_update(self, records):
                    self.selector = self.selector.rebuild(records)
        """
        assert codes(source) == ["RPR010"]

    def test_fires_on_selector_factory_call(self):
        source = """
            class Shards:
                def apply_routed(self, routing, records):
                    return self.selector_factory(records)
        """
        assert codes(source) == ["RPR010"]

    def test_fires_on_bare_selector_factory_name(self):
        source = """
            def handle_update(selector_factory, records):
                return selector_factory(records)
        """
        assert codes(source) == ["RPR010"]

    def test_compaction_and_rebalance_sites_are_exempt(self):
        source = """
            class Shards:
                def _compact_shard(self, shard_id, records):
                    return self.selector_factory(records)

                def _rebuild_shard(self, records):
                    return self.selector_factory(records)

                def __init__(self, records):
                    self.shard = self.selector_factory(records)
        """
        assert codes(source) == []
        # A rebalance builds its shards in repro/sharding/rebalance.py only; a
        # method named after it elsewhere is no exemption.
        rebalance_site = """
            class Shards:
                def commit_rebalance(self, records):
                    return self.selector.rebuild(records)
        """
        assert codes(rebalance_site) == ["RPR010"]
        assert codes(rebalance_site, path="src/repro/sharding/rebalance.py") == []

    def test_allowlisted_modules_are_exempt(self):
        source = """
            def refresh(selector, records):
                return selector.rebuild(records)
        """
        assert codes(source, path="src/repro/sharding/rebalance.py") == []
        assert codes(source, path="src/repro/selection/delta.py") == []
        assert codes(source) == ["RPR010"]

    def test_tests_and_benchmarks_are_exempt(self):
        source = """
            def probe(selector, records):
                return selector.rebuild(records)
        """
        assert codes(source, path="tests/test_thing.py") == []
        assert codes(source, path="benchmarks/bench_thing.py") == []

    def test_unrelated_rebuild_names_do_not_fire(self):
        source = """
            def apply_update(selector, records):
                rebuild_in_place(selector, records)
                cache = cached_rebuild(records)
                return cache
        """
        assert codes(source) == []

    def test_suppression_is_honored(self):
        source = """
            class Binding:
                def replace_all(self, records):
                    self.selector = self.selector.rebuild(records)  # repro: ignore[RPR010] - wholesale replacement
        """
        assert codes(source) == []


# --------------------------------------------------------------------- #
# RPR011 — d <= θ is decided in repro/distances/base.py only
# --------------------------------------------------------------------- #
class TestOneThresholdRule:
    COPIES = """
        int(threshold)
        int(driver.theta)
        thresholds.astype(np.int64)[:, None]
        np.asarray(thetas, dtype=np.float64).astype(np.int64)
        np.floor(thetas + 1e-12).astype(np.int64)
    """

    def test_fires_on_every_copy_of_the_rule(self):
        active, _ = analyze_source(textwrap.dedent(self.COPIES), SRC)
        # The last line copies the rule twice: the slack and the truncation.
        assert [(finding.code, finding.line) for finding in active] == [
            ("RPR011", 2), ("RPR011", 3), ("RPR011", 4), ("RPR011", 5), ("RPR011", 6),
            ("RPR011", 6),
        ]

    def test_fires_on_astype_int_and_a_bare_slack(self):
        source = """
            def radius(thresholds, d, theta):
                return thresholds.astype(int), d <= theta + 1e-12
        """
        assert codes(source) == ["RPR011", "RPR011"]

    def test_grid_bounds_and_other_ints_pass(self):
        source = """
            def grid(theta_max, count, thresholds):
                return int(theta_max), int(count), thresholds.astype(np.float64)
        """
        assert codes(source) == []

    def test_tests_and_the_rule_module_are_exempt(self):
        assert codes(self.COPIES, path="tests/selection/test_thing.py") == []
        assert codes(self.COPIES, path="src/repro/distances/base.py") == []


# --------------------------------------------------------------------- #
# RPR900 — unused suppressions are themselves findings
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_unused_suppression_fires(self):
        source = """
            def clean():
                return 1  # repro: ignore[RPR004] - nothing here needs it
        """
        assert codes(source) == ["RPR900"]

    def test_standalone_comment_covers_next_code_line(self):
        source = """
            import time

            def measure():
                # repro: ignore[RPR004] - wall-clock timestamp for a label
                return time.time()
        """
        assert codes(source) == []

    def test_suppressed_findings_are_reported_separately(self):
        source = """
            import time

            def measure():
                return time.time()  # repro: ignore[RPR004] - wall-clock label
        """
        active, suppressed = analyze_source(textwrap.dedent(source), SRC)
        assert active == []
        assert [finding.code for finding in suppressed] == ["RPR004"]

    def test_multi_code_suppression_tracks_each_code(self):
        source = """
            import time

            def measure():
                return time.time()  # repro: ignore[RPR004, RPR008] - only 004 fires
        """
        assert codes(source) == ["RPR900"]
