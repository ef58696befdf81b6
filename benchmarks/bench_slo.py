"""SLO — burn-rate alerting on the overload trace, plus the wall-clock
cost of one telemetry scrape + SLO evaluation against a live registry."""

from conftest import attach_summary, record_result
from repro.bench.experiments import slo_bench
from repro.obs import (
    BurnRateRule,
    MetricsRegistry,
    SeriesSelection,
    SloEngine,
    SloPolicy,
    TimeSeriesRecorder,
)


def test_slo_alerting(benchmark):
    result = slo_bench.run(json_path="BENCH_slo.json")
    record_result(result)
    attach_summary(benchmark, result)
    benchmark.pedantic(
        slo_bench.run,
        kwargs=dict(quick=True, json_path="BENCH_slo.json"),
        rounds=1, iterations=1,
    )
    # the acceptance bar: on the unprotected overload replay the burn-rate
    # alert must reach CRITICAL before goodput collapses ...
    assert result.summary["critical_fired"] is True
    assert result.summary["critical_before_collapse"] is True
    assert result.summary["alert_lead_us"] > 0
    # ... the admission-controlled config never pages ...
    assert result.summary["protected_never_critical"] is True
    # ... and the telemetry itself costs <5% of a fused cluster sweep
    assert result.summary["overhead_within_budget"] is True
    assert result.summary["telemetry_overhead_pct"] < 5.0


def test_scrape_evaluate_kernel(benchmark):
    """Wall-clock of one recorder scrape + two-policy SLO evaluation."""
    registry = MetricsRegistry()
    latency = registry.histogram(
        "bench_slo_latency_us", "synthetic latency", labelnames=()
    )
    total = registry.counter("bench_slo_requests_total", "synthetic totals")
    errors = registry.counter("bench_slo_errors_total", "synthetic errors")
    recorder = TimeSeriesRecorder(registry, interval_us=1_000.0, retention=512)
    engine = SloEngine(
        [
            SloPolicy(
                name="bench-latency", kind="latency", objective=0.9,
                metric="bench_slo_latency_us", threshold_us=5_000.0,
                critical=BurnRateRule(4_000.0, 16_000.0, 3.0),
                warning=BurnRateRule(8_000.0, 32_000.0, 1.0),
            ),
            SloPolicy(
                name="bench-availability", kind="availability", objective=0.99,
                error_series=(SeriesSelection("bench_slo_errors_total"),),
                total_series=(SeriesSelection("bench_slo_requests_total"),),
                critical=BurnRateRule(4_000.0, 16_000.0, 10.0),
                warning=BurnRateRule(8_000.0, 32_000.0, 2.0),
            ),
        ],
        registry,
    )
    engine.attach(recorder)
    state = {"i": 0}

    def scrape():
        state["i"] += 1
        latency.observe(100.0 * (state["i"] % 40))
        total.inc()
        if state["i"] % 50 == 0:
            errors.inc()
        recorder.advance_by(1_000.0)

    benchmark(scrape)
    assert len(recorder) > 1
    assert engine.state_of("bench-latency") in ("ok", "warning", "critical")
