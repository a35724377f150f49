"""The one-ledger contract of ``ServingTelemetry``, against an independent tally.

For any sequence of recorded events the flat view (``snapshot()``, ``total``),
the Prometheus text and the registry say the same thing as a tally the test
keeps on the side with the flat-counter arithmetic the telemetry used to do
itself — and still do after a snapshot round trip and after another
registry's state is merged in (what a process-backend child ships back).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import mean_q_error
from repro.obs import DEFAULT_LATENCY_BUCKETS, bucket_quantile
from repro.serving.telemetry import ServingTelemetry, q_error

ENDPOINTS = ["hm", "ed", "hm::part0", "vec#shard1"]
POOLS = ["shards", "engine-execute"]

endpoint = st.sampled_from(ENDPOINTS)
seconds = st.floats(0.0, 20.0, allow_nan=False)
count = st.integers(0, 40)
cardinality = st.floats(0.0, 1e6, allow_nan=False)

events = st.lists(
    st.one_of(
        st.tuples(st.just("requests"), endpoint, count, count),
        st.tuples(st.just("batch"), endpoint, st.integers(1, 2000)),
        st.tuples(st.just("latency"), endpoint, seconds),
        st.tuples(st.just("pool_task"), st.sampled_from(POOLS), seconds),
        st.tuples(st.just("observation"), endpoint, cardinality, cardinality),
        st.tuples(st.just("drift"), endpoint),
    ),
    max_size=60,
)


class Tally:
    """Flat per-entry sums, kept the way the telemetry kept them before the
    registry became the only ledger."""

    def __init__(self) -> None:
        self.entries: dict = {}

    def _entry(self, name: str) -> dict:
        return self.entries.setdefault(name, {
            "requests": 0, "cache_hits": 0, "cache_misses": 0, "batches": 0,
            "batched_records": 0, "max_batch_size": 0, "latencies": [],
            "q_errors": [], "drift_events": 0,
        })

    def apply(self, telemetry: ServingTelemetry, event: tuple) -> None:
        """Record ``event`` in the telemetry and in the tally."""
        kind, name, *values = event
        if kind == "requests":
            hits, misses = values
            telemetry.record_requests(name, hits + misses, hits, misses)
            entry = self._entry(name)
            entry["requests"] += hits + misses
            entry["cache_hits"] += hits
            entry["cache_misses"] += misses
        elif kind == "batch":
            telemetry.record_batch(name, values[0])
            entry = self._entry(name)
            entry["batches"] += 1
            entry["batched_records"] += values[0]
            entry["max_batch_size"] = max(entry["max_batch_size"], values[0])
        elif kind == "latency":
            telemetry.record_latency(name, values[0])
            self._entry(name)["latencies"].append(values[0])
        elif kind == "pool_task":
            telemetry.record_pool_task(name, values[0])
            entry = self._entry(f"pool:{name}")
            entry["requests"] += 1
            entry["latencies"].append(values[0])
        elif kind == "observation":
            error = telemetry.record_observation(name, *values)
            assert error == q_error(*values)
            self._entry(name)["q_errors"].append(error)
        else:
            telemetry.record_drift(name)
            self._entry(name)["drift_events"] += 1

    def add(self, name: str, theirs: dict) -> None:
        """Fold another entry's sums into entry ``name``."""
        mine = self._entry(name)
        for key, value in theirs.items():
            if key == "max_batch_size":
                mine[key] = max(mine[key], value)
            else:
                mine[key] = mine[key] + value  # ints add, lists concatenate

    def merge(self, other: "Tally") -> None:
        for name, theirs in other.entries.items():
            self.add(name, theirs)

    def total(self) -> dict:
        """Sum over the client endpoints: pool entries stay out."""
        total = Tally()
        for name, entry in self.entries.items():
            if not name.startswith("pool:"):
                total.add("total", entry)
        return total._entry("total")

    def snapshot(self) -> dict:
        report = {"total": _report(self.total(), percentiles=True)}
        for name, entry in self.entries.items():
            report[name] = _report(entry, percentiles=not name.startswith("pool:"))
        return report


def _report(entry: dict, percentiles: bool) -> dict:
    lookups = entry["cache_hits"] + entry["cache_misses"]
    latency = sum(entry["latencies"])
    report = {
        "requests": entry["requests"],
        "cache_hits": entry["cache_hits"],
        "cache_misses": entry["cache_misses"],
        "hit_rate": entry["cache_hits"] / lookups if lookups else 0.0,
        "batches": entry["batches"],
        "mean_batch_size": (
            entry["batched_records"] / entry["batches"] if entry["batches"] else 0.0
        ),
        "max_batch_size": entry["max_batch_size"],
        "latency_seconds": latency,
        "mean_latency_seconds": latency / entry["requests"] if entry["requests"] else 0.0,
        "max_latency_seconds": max(entry["latencies"], default=0.0),
        "observations": len(entry["q_errors"]),
        "mean_q_error": (
            sum(entry["q_errors"]) / len(entry["q_errors"]) if entry["q_errors"] else 0.0
        ),
        "max_q_error": max(entry["q_errors"], default=0.0),
        "drift_events": entry["drift_events"],
    }
    if percentiles and entry["latencies"]:
        counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        for value in entry["latencies"]:
            counts[bisect_left(DEFAULT_LATENCY_BUCKETS, value)] += 1
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            report[f"latency_{key}"] = bucket_quantile(
                DEFAULT_LATENCY_BUCKETS, counts, q, overflow=max(entry["latencies"])
            )
    return report


INT_KEYS = (
    "requests", "cache_hits", "cache_misses", "batches", "max_batch_size",
    "observations", "drift_events",
)

SAMPLE = re.compile(r'^(\w+)\{(?:endpoint|pool)="([^"]+)"\} (\S+)$', re.MULTILINE)


def assert_agrees(telemetry: ServingTelemetry, tally: Tally) -> None:
    snapshot = telemetry.snapshot()
    expected = tally.snapshot()
    assert set(snapshot) == set(expected)
    for name, entry in expected.items():
        assert set(snapshot[name]) == set(entry), name
        for key, value in entry.items():
            if key in INT_KEYS:
                assert type(snapshot[name][key]) is int, (name, key)
                assert snapshot[name][key] == value, (name, key)
            else:
                assert snapshot[name][key] == pytest.approx(value, rel=1e-12, abs=1e-12), (
                    name, key,
                )
    assert telemetry.total.snapshot() == snapshot["total"]
    for name in expected:
        assert telemetry.endpoint(name).snapshot() == snapshot[name]

    # Every count in the Prometheus text is the flat view's count.
    text = telemetry.to_prometheus()
    samples = defaultdict(float)  # a series that never recorded is absent: zero
    for metric, label, value in SAMPLE.findall(text):
        samples[metric, label] = float(value)
    assert {label for _, label in samples} <= {name.removeprefix("pool:") for name in tally.entries}
    for name, entry in tally.entries.items():
        if name.startswith("pool:"):
            pool = name.removeprefix("pool:")
            assert samples["repro_pool_tasks_total", pool] == snapshot[name]["requests"]
            assert samples["repro_pool_task_seconds_count", pool] == snapshot[name]["requests"]
            continue
        view = snapshot[name]
        assert samples["repro_requests_total", name] == view["requests"]
        assert samples["repro_cache_hits_total", name] == view["cache_hits"]
        assert samples["repro_cache_misses_total", name] == view["cache_misses"]
        assert samples["repro_micro_batch_records_count", name] == view["batches"]
        assert samples["repro_request_latency_seconds_count", name] == len(entry["latencies"])
        assert samples["repro_q_error_count", name] == view["observations"]
        assert samples["repro_drift_events_total", name] == view["drift_events"]


@settings(max_examples=60, deadline=None)
@given(events)
def test_snapshot_equals_an_independent_tally(sequence):
    telemetry, tally = ServingTelemetry(), Tally()
    for event in sequence:
        tally.apply(telemetry, event)
    assert_agrees(telemetry, tally)
    # total is the sum over client endpoints: pool entries stay out of it.
    client = [entry for name, entry in tally.entries.items() if not name.startswith("pool:")]
    assert telemetry.total.requests == sum(entry["requests"] for entry in client)
    assert telemetry.total.observations == sum(len(entry["q_errors"]) for entry in client)


@settings(max_examples=40, deadline=None)
@given(events, events)
def test_still_equal_after_a_snapshot_round_trip(before, after):
    telemetry, tally = ServingTelemetry(), Tally()
    for event in before:
        tally.apply(telemetry, event)
    restored = ServingTelemetry.__new__(ServingTelemetry)
    restored.__snapshot_restore__(telemetry.__snapshot_state__())
    assert restored.snapshot() == telemetry.snapshot()
    assert restored.to_prometheus() == telemetry.to_prometheus()
    for event in after:  # ... and it keeps counting where it left off
        tally.apply(restored, event)
    assert_agrees(restored, tally)


@settings(max_examples=40, deadline=None)
@given(events, events, events)
def test_still_equal_after_merging_a_second_registry(mine, theirs, after):
    telemetry, tally = ServingTelemetry(), Tally()
    for event in mine:
        tally.apply(telemetry, event)
    child, child_tally = ServingTelemetry(), Tally()
    for event in theirs:
        child_tally.apply(child, event)
    telemetry.metrics.merge_state(child.metrics.export_state())
    tally.merge(child_tally)
    assert_agrees(telemetry, tally)
    for event in after:  # merged-in entries resolve to the merged metrics
        tally.apply(telemetry, event)
    assert_agrees(telemetry, tally)


def test_online_mean_q_error_adds_the_same_terms_in_the_same_order():
    """The view's mean is the histogram's running sum over its count: bit for
    bit the sequential sum of the per-pair q-errors, and the offline metric."""
    rng = np.random.default_rng(5)
    actual = rng.integers(0, 5000, size=257).astype(float)
    estimated = actual * rng.lognormal(0.0, 0.8, size=257)
    telemetry = ServingTelemetry()
    running = 0.0
    for est, act in zip(estimated, actual):
        running += telemetry.record_observation("hm", est, act)
    online = telemetry.endpoint("hm").mean_q_error
    assert online == running / len(actual)
    assert online == pytest.approx(mean_q_error(actual, estimated), rel=1e-12)
