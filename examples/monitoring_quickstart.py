"""Continuous-monitoring quickstart: time series, SLOs, alerts, health.

Builds a small engine, then drives its :class:`MonitoringHub` with a
*deterministic* clock — ``engine.monitor(start=False)`` answers an idle hub
whose ``tick(now)`` does exactly what the background scraper loop does, one
scrape at an instant of your choosing.  That makes the walkthrough (and the
repo's tests) reproducible to the tick:

1. time series — the scraper samples every counter/gauge/histogram bucket
   into ring-buffer series; windowed rate() and p95 are derived from deltas;
2. SLOs — a latency objective evaluated as fast+slow burn rates with
   error-budget accounting;
3. alerts — a burn-rate rule stepping pending → firing → resolved as the
   workload degrades and recovers;
4. ``engine.health_report()`` — the whole engine as one text/JSON report.

In production you call ``engine.monitor()`` (no ``start=False``) and the
same loop runs on the runtime's ``monitor`` pool at ``interval`` seconds;
``benchmarks/bench_monitoring_overhead.py`` times a live hub against a 3%
overhead bar.  Every metric name used here is listed in
``docs/metrics_catalog.md``.

Run with:  python examples/monitoring_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import AlertRule, SLObjective, metric_key


def main() -> None:
    print("Building a one-attribute engine ...")
    rng = np.random.default_rng(7)
    vectors = [row for row in rng.normal(size=(800, 12))]

    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "vec",
        vectors,
        "euclidean",
        UniformSamplingEstimator(vectors, "euclidean", sample_ratio=0.2, seed=0),
        theta_max=6.0,
    )
    queries = [
        ConjunctiveQuery([SimilarityPredicate("vec", vectors[i], 3.5)])
        for i in range(8)
    ]

    # Idle hub, driven by hand: tick(now) == one scrape + SLO + alert pass.
    hub = engine.monitor(start=False)
    hub.add_objective(
        SLObjective.latency(
            "vec",
            threshold=0.05,       # a request over 50ms is a "bad event"
            objective=0.9,        # 90% must be under it -> 10% error budget
            fast_window=60.0,
            slow_window=300.0,
        )
    )
    hub.add_rule(
        AlertRule(
            name="vec-latency-burn",
            kind="burn_rate",
            slo="latency-vec",
            for_seconds=120.0,    # dwell two minutes in pending before firing
        )
    )

    print("\n=== Phase 1: healthy traffic (ticks at t=0..300s) ===")
    for now in range(0, 301, 60):
        for query in queries:
            engine.execute(query)
        hub.tick(float(now))

    latency_series = metric_key("repro_request_latency_seconds", {"endpoint": "vec"})
    series = hub.store.get(latency_series)
    print(f"  scraped series: {len(hub.store)} (showing {latency_series})")
    print(f"  request rate over 5m: {series.rate(300.0, now=300.0):.2f}/s")
    p95 = series.windowed_quantile(0.95, 300.0, now=300.0)
    print(f"  windowed p95 over 5m: {p95 * 1e3:.2f}ms")
    for status in hub.last_slo_statuses:
        print(
            f"  SLO {status.name}: slow burn={status.slow_burn:.2f}, "
            f"budget remaining={status.budget_remaining:.0%}"
        )

    print("\n=== Phase 2: inject bad latency, watch the alert arm ===")
    telemetry = engine.service.telemetry
    for now in range(360, 601, 60):
        telemetry.record_requests("vec", count=20, hits=0, misses=20)
        for _ in range(20):
            telemetry.record_latency("vec", 0.2)
        hub.tick(float(now))
        status = hub.last_alert_statuses[0]
        slo = hub.last_slo_statuses[0]
        burn = f"{slo.slow_burn:.1f}" if slo.slow_burn is not None else "n/a"
        print(f"  t={now:>3}s  slow burn={burn:>4}  alert={status.state}")

    print("\n=== Phase 3: recover, watch it resolve ===")
    for now in range(660, 1101, 60):
        for query in queries:
            engine.execute(query)
        hub.tick(float(now))
    status = hub.last_alert_statuses[0]
    print(f"  t=1100s alert={status.state} after {status.transitions} transitions")

    print("\n=== Health report ===")
    report = engine.health_report(now=1100.0)
    print(report.describe())
    print(f"(machine-readable: health_report().to_json() -> "
          f"{len(report.to_json())} bytes)")

    engine.runtime.shutdown()
    print("\nThe same hub runs continuously via engine.monitor(interval=1.0);")
    print("series history survives engine.save()/load().")


if __name__ == "__main__":
    main()
