#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --seed S [--workload NAME] [--smoke]
    python3 benchmarks/e2e/run.py compare A.json B.json

Without ``--workload`` every workload runs, each in a fresh process, and
every metric is printed by name with its unit.  The driver's form,
``--workload W --seed S --seconds T --trace 0|1``, runs one workload in this
process and prints one JSON object as its last line.  See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The load generator's own BLAS calls stay on one thread (the box has two
#: cores and the engine's pools are the program, not the generator).  Must be
#: set before numpy is imported.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no program to measure, {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import argparse  # noqa: E402
import bisect  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import oracle, spec, tracing  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402
from benchmarks.e2e.layers import layer_metrics  # noqa: E402

OUT = HERE / "out"
#: Share of a repeat's time budget spent issuing operations one at a time;
#: the rest goes to the batch API.
LATENCY_SHARE = 0.6
WARMUP_SHARE = 0.5
DEFAULT_SECONDS = 14.0
SMOKE_SECONDS = 1.0
#: Pooled latency samples below which no p99 is reported (ten samples beyond it).
P99_FLOOR = 1000


# --------------------------------------------------------------------------- #
# The machine's own speed
# --------------------------------------------------------------------------- #
class Reference:
    """A fixed loop of random memory reads, timed between operations.

    On the sandbox this benchmark is judged on, the speed of a fixed piece of
    work wanders with what the host's other tenants do: 3-second medians of
    one engine query spread by 31 % (quartiles) and 83 % (range) over six
    processes, and whole-process medians by 38 % — with identical inputs.  No
    bound a metric may have survives that.  The wander is mostly contention
    for cache and memory, so a loop of random reads over a 16 MB table feels
    it the way the program's operations do (slope 0.94 for an estimate, 1.13
    for a query, on 3-second medians; a matmul or interpreter loop tracks them
    far worse).  Every timed operation is therefore reported **at reference
    speed**: ``time x NOMINAL / local``, where ``local`` is the median of the
    loop's times within ``WINDOW_SECONDS`` of the operation and ``NOMINAL`` its
    time on an undisturbed sandbox core.  That brought the same spreads down
    to 6 % and 4 %.  A run on an undisturbed machine of that speed is reported
    as measured; the environment block carries what converts back.
    """

    NOMINAL_SECONDS = 1.0e-3
    WINDOW_SECONDS = 0.4

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 21)
        self._picks = rng.integers(0, 1 << 21, size=6000)
        self.starts: List[float] = []
        self.samples: List[float] = []

    def __call__(self) -> None:
        table, picks = self._table, self._picks
        start = time.perf_counter()
        for _ in range(40):
            total = table[picks].sum()
        elapsed = time.perf_counter() - start
        del total
        self.starts.append(start)
        self.samples.append(elapsed)

    def burst(self) -> None:
        """Four samples at once: for the few sampling points a set-up has."""
        for _ in range(4):
            self()

    def scale(self, start: float, end: float) -> float:
        """What a time measured in ``[start, end]`` is multiplied by: NOMINAL
        over the loop's median time around that interval."""
        low = bisect.bisect_left(self.starts, start - self.WINDOW_SECONDS)
        high = bisect.bisect_left(self.starts, end + self.WINDOW_SECONDS)
        return self.NOMINAL_SECONDS / statistics.median(self.samples[low:high])


#: Time inside the program after which the reference loop runs again.
CHUNK_SECONDS = 0.03


# --------------------------------------------------------------------------- #
# One repeat
# --------------------------------------------------------------------------- #
@dataclass
class Settled:
    """A repeat's measurements at reference speed (seconds)."""

    latencies: List[float] = field(default_factory=list)
    #: The same latencies by request kind ("conj", or the attribute of a
    #: single selection or estimate).
    by_kind: Dict[str, List[float]] = field(default_factory=dict)
    update_latencies: List[float] = field(default_factory=list)
    bulk_ops: int = 0
    bulk_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies) + len(self.update_latencies) + self.bulk_ops

    @property
    def busy_seconds(self) -> float:
        return sum(self.latencies) + sum(self.update_latencies) + self.bulk_seconds


@dataclass
class Repeat:
    """What one repeat measured, as measured.  Times are seconds spent inside
    the program; drawing the next input is not timed."""

    #: (kind, seconds, cpu seconds, operations, chunk) per timed call.
    calls: List[Tuple[str, float, float, int, int]] = field(default_factory=list)
    #: (start, end) of each chunk of calls; the reference loop runs between chunks.
    chunks: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    reads: int = 0
    #: QueryResult fields summed over the latency phase.
    candidates: int = 0
    verified: int = 0
    results: int = 0

    @property
    def ops(self) -> int:
        return sum(call[3] for call in self.calls)

    def add(self, kind: str, seconds: float, cpu: float, operations: int = 1) -> None:
        self.calls.append((kind, seconds, cpu, operations, len(self.chunks)))
        self.reads += kind not in ("update", "bulk")

    def settle(self, reference: Optional[Reference]) -> Settled:
        """At reference speed; as measured when ``reference`` is None."""
        scales = [reference.scale(*chunk) if reference else 1.0 for chunk in self.chunks]
        settled = Settled()
        for kind, seconds, cpu, operations, chunk in self.calls:
            seconds *= scales[chunk]
            settled.cpu_seconds += cpu * scales[chunk]
            if kind == "update":
                settled.update_latencies.append(seconds)
            elif kind == "bulk":
                settled.bulk_seconds += seconds
                settled.bulk_ops += operations
            else:
                settled.latencies.append(seconds)
                settled.by_kind.setdefault(kind, []).append(seconds)
        return settled


class Driver:
    """Closed loop, one client, one request in flight."""

    def __init__(
        self, workload: wl.WorkloadSpec, fixture: fx.Fixture, scale: wl.Scale, seed: int,
        reference: Reference,
    ) -> None:
        self.workload = workload
        self.fixture = fixture
        self.scale = scale
        self.reference = reference
        self.stream = wl.RequestStream(
            seed, workload.name, fixture.columns,
            unique=workload.name != "conj_repeat",
            hot_rows=scale.hot_rows if workload.name == "conj_repeat" else 0,
        )
        self._step = 0  # update steps, counted across repeats so parity alternates
        self._chunk_start = 0.0
        self._busy = 0.0  # program time in the current chunk

    # -- timing ---------------------------------------------------------- #
    def _timed(self, sample: Repeat, kind: str, operations: int, *calls: tuple) -> Any:
        """Time ``calls`` (each ``(function, *args)``) as ONE operation."""
        result = None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            for function, *args in calls:
                result = function(*args)
        except Exception:  # the benchmark must keep running and report it
            result = None
            sample.failures.append(traceback.format_exc(limit=6))
        elapsed = time.perf_counter() - start
        sample.add(kind, elapsed, time.process_time() - cpu, operations)
        self._busy += elapsed
        if self._busy >= CHUNK_SECONDS:
            self._close_chunk(sample)
        return result

    def _close_chunk(self, sample: Repeat) -> None:
        sample.chunks.append((self._chunk_start, time.perf_counter()))
        self.reference()
        self._chunk_start, self._busy = time.perf_counter(), 0.0

    def _read(self, sample: Repeat, request) -> None:
        if self.workload.latency_op == "estimate":
            self._timed(sample, request[0], 1, (self.fixture.service.estimate, *request))
            return
        kind = "conj" if len(request.predicates) > 1 else request.predicates[0].attribute
        result = self._timed(sample, kind, 1, (self.fixture.engine.execute, request))
        if result is not None:
            sample.candidates += result.driver_candidates
            sample.verified += result.verification_examined
            sample.results += len(result.record_ids)

    def _estimate_batches(self, rng) -> Iterator[Tuple[str, list, list]]:
        source = self.stream.estimates(rng)
        size = self.scale.estimate_batch
        while True:
            grouped: Dict[str, Tuple[list, list]] = {a.name: ([], []) for a in wl.ATTRIBUTES}
            for _ in range(size * len(wl.ATTRIBUTES)):
                endpoint, record, theta = next(source)
                grouped[endpoint][0].append(record)
                grouped[endpoint][1].append(theta)
            for endpoint, (records, thetas) in grouped.items():
                yield endpoint, records, thetas

    # -- the repeat ------------------------------------------------------ #
    def repeat(
        self, label, budget: float, floor: int, recorder: Optional[tracing.Recorder] = None
    ) -> Repeat:
        """Issue operations for ``budget`` seconds, and at least ``floor``
        latency-phase operations however slow the program is."""
        sample = Repeat()
        rng = self.stream.rng(label)

        def set_phase(phase: str) -> None:
            if recorder is not None:
                recorder.phase = phase

        self.reference()
        started = self._chunk_start = time.perf_counter()
        self._busy = 0.0

        if self.workload.name == "update_mix":
            engine = self.fixture.engine
            while time.perf_counter() - started < budget or sample.reads < floor:
                operations = self.stream.update(rng, self._step, self.scale.update_rows)
                set_phase("update")
                # One logical update: the same Δ on all four attributes.
                self._timed(sample, "update", 1, *(
                    (engine.apply_update, a.name, operations[a.name], self._step)
                    for a in wl.ATTRIBUTES
                ))
                self._step += 1
                set_phase("latency")
                for _ in range(self.scale.queries_per_update):
                    self._read(sample, self.stream.query(rng))
                set_phase("other")
            self._close_chunk(sample)
            return sample

        estimates = self.workload.latency_op == "estimate"
        source = self.stream.estimates(rng) if estimates else self.stream.queries(rng)
        latency_budget = budget * LATENCY_SHARE
        set_phase("latency")
        while time.perf_counter() - started < latency_budget or sample.reads < floor:
            self._read(sample, next(source))

        set_phase("bulk")
        batches = 0
        bulk_started = time.perf_counter()
        bulk_budget = budget - latency_budget
        estimate_batches = self._estimate_batches(rng) if estimates else None
        while time.perf_counter() - bulk_started < bulk_budget or batches < 3:
            if estimates:
                endpoint, records, thetas = next(estimate_batches)
                self._timed(sample, "bulk", len(records), (
                    self.fixture.service.estimate_many, endpoint, records, thetas
                ))
            else:
                batch = [next(source) for _ in range(self.scale.bulk_batch)]
                self._timed(sample, "bulk", len(batch), (self.fixture.engine.execute_many, batch))
            batches += 1
        set_phase("other")
        self._close_chunk(sample)
        return sample

    def throughput(self, settled: Settled) -> float:
        if self.workload.bulk:
            return settled.bulk_ops / settled.bulk_seconds
        return settled.ops / settled.busy_seconds


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
def summary(values: List[float], samples: Optional[int] = None) -> Dict[str, float]:
    """Median and quartiles of per-repeat values; ``n`` is the number of
    underlying samples when that differs from the number of repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": samples if samples is not None else len(values),
    }


def environment(seed: int, scale: wl.Scale, seconds: float) -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_pins": BLAS_PINS,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "scale": dataclasses.asdict(scale),
    }


# --------------------------------------------------------------------------- #
# One workload, this process
# --------------------------------------------------------------------------- #
def _counters(fixture: fx.Fixture) -> Dict[str, float]:
    cache = fixture.service.stats()["cache"]
    counters = {f"cache.{key}": cache[key] for key in ("hits", "misses", "evictions", "invalidations")}
    pools = fixture.engine.runtime.stats().values() if fixture.engine is not None else ()
    counters["runtime.submitted"] = sum(pool["submitted"] for pool in pools)
    counters["runtime.failed"] = sum(pool["failed"] for pool in pools)
    counters["runtime.max_queue_seen"] = max((pool["max_queue_seen"] for pool in pools), default=0)
    counters["drift_events"] = len(fixture.engine.feedback.events) if fixture.engine is not None else 0
    return counters


def _store_metrics(driver: Driver, checks: List[Tuple[int, List[str]]], sample_queries) -> Dict[str, float]:
    """One save → load; the loaded engine must pass the oracle sample."""
    target = OUT / f"{driver.workload.name}.snapshot"
    shutil.rmtree(target, ignore_errors=True)
    try:
        started = time.perf_counter()
        info = driver.fixture.engine.save(target)
        saved = time.perf_counter() - started
        started = time.perf_counter()
        loaded = type(driver.fixture.engine).load(target)
        loaded_in = time.perf_counter() - started
        try:
            checks.append(oracle.check_queries(loaded, sample_queries, driver.fixture.columns))
        finally:
            loaded.runtime.shutdown()
    finally:
        shutil.rmtree(target, ignore_errors=True)
    return {
        "store.save_s": saved,
        "store.load_s": loaded_in,
        "store.snapshot_mb": info.total_bytes / 1e6,
    }


def set_up(
    name: str, scale: wl.Scale, reference: Reference
) -> Tuple[fx.Fixture, List[Tuple[float, float]]]:
    """``scale.setups`` set-ups from scratch; returns the last one and every
    set-up's (start, end)."""
    intervals: List[Tuple[float, float]] = []
    fixture: Optional[fx.Fixture] = None
    for _ in range(scale.setups):
        if fixture is not None:
            fixture.close()
            fixture = None
        reference.burst()
        start = time.perf_counter()
        # The reference loop also runs after each attribute is built; its
        # share of the set-up (< 1 %) is part of what is timed.
        fixture = fx.build(name, scale, tick=reference.burst)
        intervals.append((start, time.perf_counter()))
        reference.burst()
    return fixture, intervals


class Latency:
    """The run's read latencies (seconds, reference speed) and what reduces
    them to ``latency_p50_ms``."""

    def __init__(self, repeats: List[Settled], latency_op: str) -> None:
        self.pooled = [value for repeat in repeats for value in repeat.latencies]
        by_kind = {
            kind: [v for repeat in repeats for v in repeat.by_kind.get(kind, ())]
            for kind in wl.mix_shares(latency_op)
        }
        # A kind the whole run never drew (5 % shares, toy sizes) has no median.
        shares = {k: share for k, share in wl.mix_shares(latency_op).items() if by_kind[k]}
        self.shares = {k: share / sum(shares.values()) for k, share in shares.items()}
        self.kind_medians = {kind: statistics.median(by_kind[kind]) for kind in self.shares}

    def typical(self, repeat: Settled) -> float:
        """The median per request kind, averaged with the mix's fixed shares.
        A plain median over the mix sits where two kinds' distributions meet
        (estimates: four endpoints of 25 % each, the median is the gap between
        the second and the third) and jumps between them from run to run.  A
        kind a short repeat drew fewer than 3 times takes the run's median."""
        total = 0.0
        for kind, share in self.shares.items():
            samples = repeat.by_kind.get(kind, ())
            total += share * (
                statistics.median(samples) if len(samples) >= 3 else self.kind_medians[kind]
            )
        return total


def traced_metrics(
    driver: Driver, traced_raw: Repeat, traced: Settled, spans: List[tracing.Span],
    before: Dict[str, float], after: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of the traced repeat: span times plus the counts the
    program's public stats moved by while it ran."""
    reads, updates = len(traced.latencies), len(traced.update_latencies)
    moved = {key: after[key] - before[key] for key in before}
    lookups = moved["cache.hits"] + moved["cache.misses"]
    return {
        **layer_metrics(spans, reads, updates),
        "serving.cache_hit_rate": moved["cache.hits"] / lookups if lookups else 0.0,
        "serving.cache_evictions": moved["cache.evictions"],
        "serving.cache_invalidations": moved["cache.invalidations"],
        "runtime.tasks_per_op": moved["runtime.submitted"] / traced.ops,
        "runtime.max_queue_seen": after["runtime.max_queue_seen"],
        "runtime.failed_tasks": after["runtime.failed"],
        "engine.drift_events": after["drift_events"],
        "engine.rows_examined_per_result": (
            (traced_raw.candidates + traced_raw.verified) / max(traced_raw.results, 1)
        ),
        "selection.candidates_per_op": traced_raw.candidates / max(reads, 1),
        "distances.rows_verified_per_op": traced_raw.verified / max(reads, 1),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: wl.Scale) -> Dict[str, Any]:
    workload = wl.WORKLOAD_BY_NAME[name]
    env = environment(seed, scale, seconds)
    OUT.mkdir(exist_ok=True)
    reference = Reference()
    fixture, setups = set_up(name, scale, reference)
    try:
        # ---- measure ------------------------------------------------------ #
        driver = Driver(workload, fixture, scale, seed, reference)
        budget = seconds / scale.repeats
        floor = scale.min_latency_ops
        warmup = driver.repeat("warmup", budget * WARMUP_SHARE, floor // 2)
        measured = [driver.repeat(index, budget, floor) for index in range(scale.repeats)]
        samples = [warmup, *measured]
        if trace:
            before = _counters(fixture)
            with tracing.traced() as recorder:
                samples.append(driver.repeat("traced", budget, floor, recorder))
            spans = recorder.finish()
            after = _counters(fixture)
        failures = [failure for sample in samples for failure in sample.failures]
        attempted = sum(sample.ops for sample in samples)

        # ---- every time at reference speed -------------------------------- #
        repeats = [sample.settle(reference) for sample in measured]
        latency = Latency(repeats, workload.latency_op)
        p50s = [latency.typical(repeat) * 1e3 for repeat in repeats]
        end_to_end = {
            "setup_s": summary([
                (end - start) * reference.scale(start, end) for start, end in setups
            ]),
            "throughput_ops_s": summary([driver.throughput(s) for s in repeats]),
            "latency_p50_ms": summary(p50s, len(latency.pooled)),
            "latency_p90_ms": summary(
                [float(np.percentile(latency.pooled, 90)) * 1e3], len(latency.pooled)
            ),
            "cpu_ms_per_op": summary([s.cpu_seconds / s.ops * 1e3 for s in repeats]),
        }
        per_layer: Dict[str, float] = {}
        if trace:
            traced = samples[-1].settle(reference)
            per_layer = {metric.name: 0.0 for metric in spec.PER_LAYER}
            per_layer.update(traced_metrics(driver, samples[-1], traced, spans, before, after))
            per_layer["trace.overhead_share"] = (
                latency.typical(traced) * 1e3 / statistics.median(p50s) - 1.0
            )
            if len(latency.pooled) >= P99_FLOOR:
                per_layer["run.latency_p99_ms"] = float(np.percentile(latency.pooled, 99)) * 1e3
                per_layer["run.latency_p99_samples"] = len(latency.pooled)
            updates = [value for s in repeats for value in s.update_latencies]
            if updates:
                per_layer["engine.update_p50_ms"] = statistics.median(updates) * 1e3
                per_layer["engine.update_mean_ms"] = statistics.fmean(updates) * 1e3
            (OUT / f"{name}.trace.json").write_text(json.dumps(
                {"workload": name, "seed": seed, **recorder.to_json()}
            ))

        # ---- correctness, outside every timed phase ----------------------- #
        checks: List[Tuple[int, List[str]]] = []
        check_rng = driver.stream.rng("oracle")
        if fixture.engine is not None:
            sample_queries = [driver.stream.query(check_rng) for _ in range(scale.oracle_queries)]
            checks.append(oracle.check_queries(fixture.engine, sample_queries, fixture.columns))
            checks.append(oracle.check_alignment(fixture.engine, fixture.columns))
            if trace:
                per_layer["selection.tombstone_share_end"] = oracle.tombstone_share(fixture.engine)
                per_layer["engine.driver_optimal_share"] = oracle.driver_optimal_share(
                    fixture, sample_queries
                )
                if name == "conj_repeat":
                    per_layer.update(_store_metrics(driver, checks, sample_queries))
        estimate_source = driver.stream.estimates(check_rng)
        requests = [next(estimate_source) for _ in range(scale.qerror_probes * len(wl.ATTRIBUTES))]
        checked, curve_failures, q_error = oracle.check_estimates(fixture, requests)
        checks.append((checked, curve_failures))
        if trace:
            per_layer["core.q_error_mean"] = q_error
    finally:
        fixture.close()

    for checked, found in checks:
        attempted += checked
        failures += found
    end_to_end["peak_rss_mb"] = summary(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    as_measured = [sample.settle(None) for sample in measured]
    env.update({
        "loadavg_end": os.getloadavg(),
        "as_measured": {
            "setup_s": statistics.median(end - start for start, end in setups),
            "latency_p50_ms": statistics.median(latency.typical(s) for s in as_measured) * 1e3,
            "throughput_ops_s": statistics.median(driver.throughput(s) for s in as_measured),
        },
        "reference_loop": {
            "nominal_ms": Reference.NOMINAL_SECONDS * 1e3,
            "samples": len(reference.samples),
            "quartiles_ms": [q * 1e3 for q in statistics.quantiles(reference.samples, n=4)],
        },
        "ops": {
            "latency_per_repeat": [len(s.latencies) for s in repeats],
            "bulk_per_repeat": [s.bulk_ops for s in repeats],
            "updates_per_repeat": [len(s.update_latencies) for s in repeats],
        },
    })
    return {
        "workload": name,
        "why": workload.why,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "environment": env,
    }


def driver_line(result: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit} for m in spec.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in spec.END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# --------------------------------------------------------------------------- #
# Every workload, one fresh process each
# --------------------------------------------------------------------------- #
def run_all(names: List[str], seed: int, smoke: bool) -> int:
    results = {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--trace", "1"]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result_path = OUT / f"{name}.result.json"
        if done.returncode not in (0, 1) or not result_path.exists():
            print(f"{name}: run failed with exit code {done.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(result_path.read_text())
        print_result(results[name])
    combined = OUT / f"results-seed{seed}{'-smoke' if smoke else ''}.json"
    combined.write_text(json.dumps({"seed": seed, "smoke": smoke, "workloads": results}, indent=1))
    print(f"\nwrote {combined.relative_to(ROOT)}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def print_result(result: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']} — {result['why']}")
    print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
          f" failed_share={result['failed'] / result['attempted']:.6f}")
    for failure in result["failures"]:
        print("   FAILURE: " + failure.strip().splitlines()[-1])
    loop = result["environment"]["reference_loop"]
    raw = result["environment"]["as_measured"]
    print(f"   times are at reference speed (loop = {loop['nominal_ms']:.2f} ms); this run's loop took"
          f" {loop['quartiles_ms'][1]:.2f} ms (median of {loop['samples']}), so as measured:"
          f" setup_s {raw['setup_s']:.3f}, latency_p50_ms {raw['latency_p50_ms']:.3f},"
          f" throughput_ops_s {raw['throughput_ops_s']:.1f}")
    print(f"   {'end-to-end metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'unit':>6s} {'n':>7s}")
    for metric in spec.END_TO_END:
        row = result["end_to_end"][metric.name]
        print(f"   {metric.name:34s} {row['value']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f}"
              f" {metric.unit:>6s} {row['n']:7d}")
    if result["per_layer"]:
        print(f"   {'per-layer metric (traced repeat)':46s} {'value':>12s} {'unit':>6s}")
        for metric in spec.PER_LAYER:
            print(f"   {metric.name:46s} {result['per_layer'][metric.name]:12.4f} {metric.unit:>6s}")


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    """One row per (end-to-end metric, workload).  ``unresolved`` when either
    side's own spread (inter-quartile range over its median) exceeds the
    bound: the runs cannot tell a change of that size from noise."""
    sides = [json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b)]
    print(f"{'workload':22s} {'metric':18s} {'A median':>11s} {'A iqr':>9s} {'B median':>11s}"
          f" {'B iqr':>9s} {'change':>8s} {'bound':>6s}  verdict")
    worse = 0
    for name in (w.name for w in wl.WORKLOADS):
        if name not in sides[0] or name not in sides[1]:
            continue
        for metric in spec.END_TO_END:
            a, b = (side[name]["end_to_end"][metric.name] for side in sides)
            change = b["value"] / a["value"] - 1.0
            spread = max((row["q3"] - row["q1"]) / row["value"] for row in (a, b))
            regression = change if metric.better == "lower" else -change
            if spread > metric.bound:
                verdict = "unresolved"
            elif regression > metric.bound:
                verdict = "worse"
                worse += 1
            elif regression < -metric.bound:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{name:22s} {metric.name:18s} {a['value']:11.4f} {a['q3'] - a['q1']:9.4f}"
                  f" {b['value']:11.4f} {b['q3'] - b['q1']:9.4f} {change:+8.1%} {metric.bound:6.0%}  {verdict}")
    return 1 if worse else 0


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--workload", choices=[w.name for w in wl.WORKLOADS])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; schema check only")
    parser.add_argument("--seconds", type=float, help="(driver) measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="(driver) 1 = per-layer metrics")
    args = parser.parse_args(argv)

    if args.trace is None:  # a person: every metric of the chosen workloads
        names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]
        return run_all(names, args.seed, args.smoke)
    if args.workload is None:
        parser.error("--trace needs --workload")
    scale = wl.SMOKE if args.smoke else wl.FULL
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    )
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale)
    (OUT / f"{args.workload}.result.json").write_text(json.dumps(result, indent=1))
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print(driver_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
