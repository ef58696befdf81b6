"""SLO — burn-rate alert lead time on the overload trace.

The overload bench proved *that* an unprotected serving config
collapses; this experiment proves the new SLO layer *sees it coming*.
The same open-loop Poisson overload trace (4× calibrated capacity)
runs through two configurations with a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` and an
:class:`~repro.obs.slo.SloEngine` attached to the engine's handle:

* **unprotected** — unbounded queue, no deadlines: the queue grows
  without bound and end-to-end latency climbs past the SLO.  The
  multi-window burn-rate alert must escalate to **CRITICAL strictly
  before goodput collapses** (trailing-window good-completion rate
  falling below 25 % of capacity and staying there) — the lead time an
  autoscaler would have to add capacity.
* **protected** — bounded queue + per-request deadline (PR 5's
  defence): goodput holds near capacity and the alert must **never
  pass WARNING**.

Both the alert's error definition and the goodput timeline use the
*same* bucket-quantised SLO threshold (the smallest histogram bound at
or above ``_SLO_GROUPS`` fused-group times), so "alert error" and
"goodput miss" are the identical predicate — no definitional gap for
the lead time to hide in.

The third section prices the telemetry: the fused cluster sweep is
wall-clock timed with the recorder + engine attached vs not, and the
overhead must stay under the observability layer's 5 % budget while
simulated time stays bit-identical.

Results land in ``BENCH_slo.json`` (deterministic: seeded workload,
simulated clock, alert timeline a pure function of the trace).
"""

from __future__ import annotations

import math
import time

import numpy as np

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...distributed import DistributedSearchSystem
from ...obs import DEFAULT_US_BUCKETS
from ...obs.slo import (
    CRITICAL,
    OK,
    WARNING,
    BurnRateRule,
    SeriesSelection,
    SloEngine,
    SloPolicy,
)
from ...obs.timeseries import TimeSeriesRecorder
from ...serving import (
    BatchPolicy,
    FusedEngineExecutor,
    build_trace,
    poisson_arrivals,
    simulate_serving,
)
from ..tables import ExperimentResult
from .fault_tolerance import _make_descriptors, _make_workload, _noisy
from .overload_bench import _calibrate

__all__ = ["run"]

#: SLO as a multiple of one fused-group execution, *before* snapping up
#: to the latency histogram's bucket resolution (the snapped bound is
#: what both the alert and the goodput timeline evaluate against).
_SLO_GROUPS = 3.0

#: admission-queue bound for the protected configuration, in groups —
#: one group keeps worst-case latency ~2 group times, comfortably
#: inside the snapped SLO, so the protected run burns no budget.
_QUEUE_GROUPS = 1

#: offered load for the replay (the overload bench's worst multiplier).
_OVERLOAD_X = 4.0

#: goodput has collapsed when the trailing-window good rate falls below
#: this fraction of calibrated capacity (and stays there), after having
#: first reached _ARMED_FRAC — the startup ramp is not a collapse.
#: (the armed bar sits below half capacity because the trailing window
#: is longer than the healthy phase of the overload trace: the peak
#: *windowed* good rate never reaches the instantaneous one)
_COLLAPSE_FRAC = 0.25
_ARMED_FRAC = 0.35

_LATENCY_METRIC = "repro_serving_latency_us"


def _policies(name: str, slo_us: float, group_us: float) -> list[SloPolicy]:
    """The bench's burn-rate policy: objective 90 % of completions
    within the (bucket-snapped) SLO; critical = 3× burn over a
    2-group/6-group window pair, warning = 1× over 4/12 groups."""
    return [
        SloPolicy(
            name=name,
            kind="latency",
            objective=0.9,
            metric=_LATENCY_METRIC,
            threshold_us=slo_us,
            critical=BurnRateRule(2 * group_us, 6 * group_us, 3.0),
            warning=BurnRateRule(4 * group_us, 12 * group_us, 1.0),
            clear_hold_us=4 * group_us,
        )
    ]


def _latency_points(
    recorder: TimeSeriesRecorder, eff_slo_us: float
) -> list[tuple[float, int, int]]:
    """``(t_us, cumulative_good, cumulative_total)`` per sample, where
    good = completions with latency at or below the snapped SLO bound
    (cumulative across the process — callers difference samples)."""
    bounds = recorder.histogram_bounds(_LATENCY_METRIC)
    points: list[tuple[float, int, int]] = []
    for sample in recorder.samples:
        series = sample.data.get(_LATENCY_METRIC)
        if not series or () not in series:
            points.append((sample.t_us, 0, 0))
            continue
        counts, _, count = series[()]
        good = sum(n for b, n in zip(bounds, counts) if b <= eff_slo_us)
        points.append((sample.t_us, good, count))
    return points


def _goodput_rates(
    points: list[tuple[float, int, int]], window_us: float
) -> list[tuple[float, float | None]]:
    """Trailing-window good-completion rate (per second) at each sample
    (``None`` until a full window of history exists)."""
    rates: list[tuple[float, float | None]] = []
    for k, (t, good, _) in enumerate(points):
        j = None
        for i in range(k - 1, -1, -1):
            if points[i][0] <= t - window_us:
                j = i
                break
        if j is None:
            rates.append((t, None))
            continue
        span_us = t - points[j][0]
        rate = (good - points[j][1]) / (span_us / 1e6) if span_us > 0 else None
        rates.append((t, rate))
    return rates


def _collapse_us(
    rates: list[tuple[float, float | None]], capacity_rps: float
) -> float | None:
    """Earliest sample time where the good rate drops below
    ``_COLLAPSE_FRAC`` of capacity and never recovers (armed only after
    the rate first reaches ``_ARMED_FRAC`` — startup is not collapse)."""
    armed = False
    collapse: float | None = None
    for t, rate in rates:
        if rate is None:
            continue
        if not armed:
            armed = rate >= _ARMED_FRAC * capacity_rps
            continue
        if rate < _COLLAPSE_FRAC * capacity_rps:
            if collapse is None:
                collapse = t
        else:
            collapse = None
    return collapse


#: fused sweeps per timed block in the overhead measurement — block
#: timing averages per-sweep scheduler jitter out of each measurement.
_OVERHEAD_BLOCK = 5


def _time_cluster_sweeps(
    system, queries, repeats: int, recorder: TimeSeriesRecorder
) -> tuple[float, float, float, float]:
    """``(min_off_s, min_on_s, sim_off_us, sim_on_us)`` — minimum
    per-sweep wall-clock for the fused cluster sweep in each mode.

    The two modes are *interleaved* (one uninstrumented block, one with
    the recorder attached to the system, repeated) so both minima sample the same
    scheduler/frequency environment — timing them in separate phases
    lets slow host drift masquerade as telemetry cost — and each
    measurement times a block of ``_OVERHEAD_BLOCK`` sweeps to average
    per-sweep jitter below the effect being measured."""
    best_off = best_on = float("inf")
    sim_off = sim_on = 0.0
    for _ in range(repeats):
        system.obs.recorder = None
        start = time.perf_counter()
        for _ in range(_OVERHEAD_BLOCK):
            group = system.search_group(queries)
        best_off = min(best_off, (time.perf_counter() - start) / _OVERHEAD_BLOCK)
        sim_off = group.elapsed_us

        system.obs.recorder = recorder
        start = time.perf_counter()
        for _ in range(_OVERHEAD_BLOCK):
            group = system.search_group(queries)
        best_on = min(best_on, (time.perf_counter() - start) / _OVERHEAD_BLOCK)
        sim_on = group.elapsed_us
    system.obs.recorder = None
    return best_off, best_on, sim_off, sim_on


def _time_scrapes(
    recorder: TimeSeriesRecorder, blocks: int = 7, per_block: int = 64
) -> float:
    """Minimum per-scrape wall-clock seconds for one scrape + SLO
    evaluation against the full live registry.

    This is the direct measurement behind the overhead budget: the
    telemetry cost is a few percent of a sweep, so differencing two
    nearly-equal sweep timings amplifies host jitter ~30-60x, while a
    tight loop over the scrape path itself measures the same cost with
    no differencing at all.  Each ``advance_by(interval)`` crosses
    exactly one scrape boundary, so the loop body is one sample plus
    one engine evaluation."""
    interval = recorder.interval_us
    best = float("inf")
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(per_block):
            recorder.advance_by(interval)
        best = min(best, (time.perf_counter() - start) / per_block)
    return best


def run(
    quick: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    n_refs = 16
    max_batch = 8
    n_queries = 96 if quick else 240
    overhead_repeats = 7 if quick else 12

    refs, queries = _make_workload(n_refs, n_queries, seed, config)
    engine = TextureSearchEngine(config)
    for ref_id, desc in refs.items():
        engine.add_reference(ref_id, desc)
    executor = FusedEngineExecutor(engine)

    group_us = _calibrate(executor, queries, max_batch)
    capacity_rps = max_batch / group_us * 1e6
    interval_us = group_us / 2.0
    # snap the SLO up to the latency histogram's bucket resolution so
    # the alert predicate and the goodput predicate are identical
    bounds = DEFAULT_US_BUCKETS  # the serving latency histogram's
    slo_us = TimeSeriesRecorder.effective_threshold_us(
        bounds, _SLO_GROUPS * group_us
    )
    if not math.isfinite(slo_us):
        raise RuntimeError(
            f"SLO {_SLO_GROUPS}x group ({group_us:.0f}us) is past the last "
            f"latency bucket {bounds[-1]}"
        )
    critical_slow_us = 6 * group_us

    rate = capacity_rps * _OVERLOAD_X
    arrivals = poisson_arrivals(n_queries, rate, seed=seed + int(_OVERLOAD_X * 10))
    configs = (
        ("unprotected", BatchPolicy(max_batch=max_batch, max_wait_us=0.0), None),
        (
            "protected",
            BatchPolicy(
                max_batch=max_batch,
                max_wait_us=0.0,
                max_queue_depth=_QUEUE_GROUPS * max_batch,
                shed="reject-new",
            ),
            slo_us,
        ),
    )

    result = ExperimentResult(
        "SLO: burn-rate alert lead time on the overload trace",
        ["config", "worst state", "warning ms", "critical ms",
         "collapse ms", "lead ms", "good rps", "transitions"],
    )
    cells: list[dict] = []
    outcomes: dict[str, dict] = {}
    for label, policy, deadline_us in configs:
        registry = engine.obs.registry
        recorder = TimeSeriesRecorder(registry, interval_us=interval_us, retention=1024)
        slo_engine = SloEngine(_policies(f"latency-{label}", slo_us, group_us), registry)
        slo_engine.attach(recorder)
        engine.obs.recorder, engine.obs.slo = recorder, slo_engine
        trace = build_trace(arrivals, queries, deadline_us=deadline_us)
        report = simulate_serving(executor, trace, policy)
        recorder.flush()

        policy_name = f"latency-{label}"
        points = _latency_points(recorder, slo_us)
        rates = _goodput_rates(points, critical_slow_us)
        collapse = _collapse_us(rates, capacity_rps)
        first_warning = slo_engine.log.first_at(policy_name, WARNING)
        first_critical = slo_engine.log.first_at(policy_name, CRITICAL)
        worst = slo_engine.log.worst_state(policy_name)
        n_good = sum(1 for r in report.records if r.latency_us <= slo_us)
        span_s = report.makespan_us / 1e6
        goodput = n_good / span_s if span_s > 0 else 0.0
        lead_us = (
            collapse - first_critical.t_us
            if collapse is not None and first_critical is not None
            else None
        )
        outcomes[label] = {
            "worst_state": worst,
            "first_warning_us": first_warning.t_us if first_warning else None,
            "first_critical_us": first_critical.t_us if first_critical else None,
            "collapse_us": collapse,
            "lead_us": lead_us,
            "goodput_rps": goodput,
        }
        result.rows.append([
            label,
            worst,
            round(first_warning.t_us / 1e3, 2) if first_warning else "-",
            round(first_critical.t_us / 1e3, 2) if first_critical else "-",
            round(collapse / 1e3, 2) if collapse is not None else "-",
            round(lead_us / 1e3, 2) if lead_us is not None else "-",
            int(goodput),
            len(slo_engine.log),
        ])
        cells.append({
            "config": label,
            "goodput_rps": round(goodput, 3),
            "n_good": n_good,
            "n_rejected": report.n_rejected,
            "makespan_us": report.makespan_us,
            "alerts": slo_engine.log.to_dicts(),
            "goodput_rate_curve": [
                {"t_us": t, "good_rps": None if r is None else round(r, 3)}
                for t, r in rates
            ],
            "n_samples": len(recorder),
        })

    # ---- telemetry overhead on the fused cluster sweep ------------------
    rng = np.random.default_rng(seed + 1)
    system = DistributedSearchSystem(2, config)
    for i in range(n_refs):
        system.add(f"c{i}", _make_descriptors(rng, count=config.n, d=config.d))
    cluster_queries = [
        _noisy(rng, _make_descriptors(rng, count=config.n, d=config.d))
        for _ in range(max_batch)
    ]
    warm = system.search_group(cluster_queries)

    # one scrape per sweep: the realistic cadence (the serving-phase
    # recorder samples at half a group time because its windows are
    # group-sized; here the sweep itself is the unit of work)
    recorder = TimeSeriesRecorder(
        system.obs.registry, interval_us=max(warm.elapsed_us, 1.0), retention=1024
    )
    slo_engine = SloEngine(
        [
            SloPolicy(
                name="sweep-latency", kind="latency", objective=0.9,
                metric="repro_engine_sweep_us",
                threshold_us=float(
                    system.obs.registry.get("repro_engine_sweep_us").buckets[-1]
                ),
                critical=BurnRateRule(2 * warm.elapsed_us, 6 * warm.elapsed_us, 3.0),
                warning=BurnRateRule(4 * warm.elapsed_us, 12 * warm.elapsed_us, 1.0),
            ),
            SloPolicy(
                name="search-availability", kind="availability", objective=0.99,
                error_series=(
                    SeriesSelection("repro_cluster_partial_results_total"),
                ),
                total_series=(SeriesSelection("repro_cluster_searches_total"),),
                critical=BurnRateRule(2 * warm.elapsed_us, 6 * warm.elapsed_us, 10.0),
                warning=BurnRateRule(4 * warm.elapsed_us, 12 * warm.elapsed_us, 2.0),
            ),
        ],
        system.obs.registry,
    )
    slo_engine.attach(recorder)
    system.obs.slo = slo_engine
    t_off, t_on, sim_off, sim_on = _time_cluster_sweeps(
        system, cluster_queries, overhead_repeats, recorder
    )
    scrape_s = _time_scrapes(recorder)
    if not math.isclose(sim_on, sim_off, rel_tol=1e-9):
        raise RuntimeError(
            f"telemetry changed simulated time: {sim_off} vs {sim_on}"
        )
    # recorder interval == one sweep's elapsed time, so the steady-state
    # cadence is one scrape per sweep; the differential A/B number is
    # kept in the JSON as a cross-check but is too noise-amplified to
    # gate the budget on (it differences two nearly-equal timings)
    overhead_pct = scrape_s / t_off * 100.0
    differential_pct = (t_on / t_off - 1.0) * 100.0

    unprot = outcomes["unprotected"]
    prot = outcomes["protected"]
    critical_fired = unprot["first_critical_us"] is not None
    critical_before_collapse = (
        critical_fired
        and unprot["collapse_us"] is not None
        and unprot["first_critical_us"] < unprot["collapse_us"]
    )
    protected_quiet = prot["worst_state"] in (OK, WARNING)
    result.summary = {
        "capacity_rps": round(capacity_rps, 1),
        "slo_us": round(slo_us, 1),
        "slo_groups_requested": _SLO_GROUPS,
        "critical_fired": critical_fired,
        "critical_before_collapse": critical_before_collapse,
        "alert_lead_us": (
            round(unprot["lead_us"], 1) if unprot["lead_us"] is not None else None
        ),
        "collapse_us": (
            round(unprot["collapse_us"], 1)
            if unprot["collapse_us"] is not None else None
        ),
        "protected_worst_state": prot["worst_state"],
        "protected_never_critical": protected_quiet,
        "telemetry_overhead_pct": round(overhead_pct, 2),
        "overhead_within_budget": overhead_pct < 5.0,
    }
    result.notes.append(
        f"SLO snapped to {slo_us:.0f}us (requested {_SLO_GROUPS:g}x group = "
        f"{_SLO_GROUPS * group_us:.0f}us); alert errors and goodput misses "
        "are the same bucket-quantised predicate"
    )
    result.notes.append(
        f"collapse = trailing {critical_slow_us / group_us:g}-group good rate "
        f"< {_COLLAPSE_FRAC:.0%} of capacity, sustained; "
        "overhead = direct scrape+evaluate timing / sweep wall-clock "
        f"(one scrape per sweep; A/B differential {differential_pct:+.2f}% "
        "kept as a cross-check)"
    )

    result.payload = {
        "experiment": "slo",
        "seed": seed,
        "quick": quick,
        "workload": {
            "n_refs": n_refs,
            "n_queries": n_queries,
            "max_batch": max_batch,
            "queue_depth": _QUEUE_GROUPS * max_batch,
            "overload_multiplier": _OVERLOAD_X,
            "interval_us": round(interval_us, 3),
            "engine": {"m": config.m, "n": config.n,
                       "batch_size": config.batch_size, "d": config.d},
        },
        "configs": cells,
        "overhead": {
            "sweep_ms_off": round(t_off * 1e3, 3),
            "sweep_ms_on": round(t_on * 1e3, 3),
            "scrape_us": round(scrape_s * 1e6, 3),
            "differential_pct": round(differential_pct, 2),
            "repeats": overhead_repeats,
        },
        "summary": result.summary,
    }
    return result
