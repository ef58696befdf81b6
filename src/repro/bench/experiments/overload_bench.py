"""Overload — goodput vs offered load, protected vs unprotected.

The serving bench measures the happy path; this experiment measures
the *sad* one.  Open-loop Poisson traffic is offered at multiples of
the engine's calibrated capacity, and two serving configurations run
the identical trace:

* **unprotected** — unbounded admission queue, no deadlines: the
  textbook metastable collapse.  Past saturation the queue grows with
  every arrival, p99 latency grows with the trace length, and goodput
  (requests answered within the SLO) falls toward zero even though
  the device never idles.
* **protected** — bounded queue (``max_queue_depth``) shedding
  ``reject-new`` with a ``retry_after_us`` hint, plus a per-request
  deadline at the SLO: excess load is refused in O(1) instead of
  queued, and goodput *plateaus* near capacity no matter how hard the
  trace pushes.

The acceptance bar encoded in the summary: at the highest offered
multiplier the protected goodput stays within 10 % of its peak across
all multipliers, while the unprotected p99 keeps growing with offered
load.  Results land in ``BENCH_overload.json`` (deterministic: seeded
workload, simulated clock, no timestamps).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...serving import (
    BatchPolicy,
    FusedEngineExecutor,
    build_trace,
    poisson_arrivals,
    simulate_serving,
)
from ..tables import ExperimentResult
from .fault_tolerance import _make_workload

__all__ = ["run"]

#: SLO (and deadline) as a multiple of one full fused-group execution.
_SLO_GROUPS = 4.0

#: admission-queue bound for the protected configuration, in groups.
_QUEUE_GROUPS = 2


def _calibrate(executor, queries, max_batch: int) -> float:
    """One full fused group's execution time (µs) — the capacity unit."""
    _, elapsed_us = executor.execute(queries[:max_batch])
    return float(elapsed_us)


def run(
    quick: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    n_refs = 16
    max_batch = 8
    n_queries = 48 if quick else 160
    multipliers = (0.5, 1.0, 4.0) if quick else (0.5, 1.0, 2.0, 4.0)

    refs, queries = _make_workload(n_refs, n_queries, seed, config)
    engine = TextureSearchEngine(config)
    for ref_id, desc in refs.items():
        engine.add_reference(ref_id, desc)
    executor = FusedEngineExecutor(engine)

    # Capacity: one fused group of max_batch requests per group_us.
    group_us = _calibrate(executor, queries, max_batch)
    capacity_rps = max_batch / group_us * 1e6
    slo_us = _SLO_GROUPS * group_us

    unprotected = BatchPolicy(max_batch=max_batch, max_wait_us=0.0)
    protected = BatchPolicy(
        max_batch=max_batch,
        max_wait_us=0.0,
        max_queue_depth=_QUEUE_GROUPS * max_batch,
        shed="reject-new",
    )

    result = ExperimentResult(
        "Overload: goodput vs offered load (protected vs unprotected)",
        ["config", "offered x", "offered rps", "good rps", "shed %",
         "p99 ms", "n_good", "n_shed"],
    )
    cells: list[dict] = []
    goodput_protected: dict[float, float] = {}
    p99_unprotected: dict[float, float] = {}
    for multiplier in multipliers:
        rate = capacity_rps * multiplier
        arrivals = poisson_arrivals(n_queries, rate, seed=seed + int(multiplier * 10))
        for label, policy, deadline_us in (
            ("unprotected", unprotected, None),
            ("protected", protected, slo_us),
        ):
            trace = build_trace(arrivals, queries, deadline_us=deadline_us)
            report = simulate_serving(executor, trace, policy)
            # goodput counts SLO-meeting completions even when the run
            # carried no explicit deadline (the unprotected baseline)
            n_good = sum(
                1 for r in report.records
                if r.latency_us <= slo_us
            )
            span_s = report.makespan_us / 1e6
            goodput = n_good / span_s if span_s > 0 else 0.0
            p99 = report.latency_percentiles()["p99"]
            if label == "protected":
                goodput_protected[multiplier] = goodput
            else:
                p99_unprotected[multiplier] = p99
            result.rows.append([
                label,
                multiplier,
                int(rate),
                int(goodput),
                round(report.shed_rate * 100, 1),
                round(p99 / 1e3, 2),
                n_good,
                report.n_rejected,
            ])
            cells.append({
                "config": label,
                "offered_multiplier": multiplier,
                "offered_rps": round(rate, 3),
                "goodput_rps": round(goodput, 3),
                "n_good": n_good,
                "slo_us": round(slo_us, 3),
                **report.to_dict(),
            })

    peak = max(goodput_protected.values())
    worst_multiplier = max(goodput_protected)
    at_overload = goodput_protected[worst_multiplier]
    plateau_ratio = at_overload / peak if peak > 0 else 0.0
    p99_growth = (
        p99_unprotected[max(p99_unprotected)] / p99_unprotected[min(p99_unprotected)]
        if p99_unprotected.get(min(p99_unprotected)) else 0.0
    )
    result.summary = {
        "capacity_rps": round(capacity_rps, 1),
        "slo_us": round(slo_us, 1),
        "protected_peak_goodput_rps": round(peak, 1),
        "protected_goodput_at_max_load_rps": round(at_overload, 1),
        "goodput_plateau_ratio": round(plateau_ratio, 3),
        "goodput_plateaus": plateau_ratio >= 0.9,
        "unprotected_p99_growth_x": round(p99_growth, 2),
    }
    result.notes.append(
        f"capacity calibrated at {capacity_rps:.0f} rps "
        f"(one {max_batch}-query fused group per {group_us:.0f}us); "
        f"SLO/deadline = {_SLO_GROUPS:g} group times"
    )
    result.notes.append(
        "protected = bounded queue (reject-new) + per-request deadline; "
        "goodput = SLO-meeting completions per second of makespan"
    )

    result.payload = {
        "experiment": "overload",
        "seed": seed,
        "quick": quick,
        "workload": {
            "n_refs": n_refs,
            "n_queries": n_queries,
            "max_batch": max_batch,
            "queue_depth": _QUEUE_GROUPS * max_batch,
            "multipliers": list(multipliers),
            "engine": {"m": config.m, "n": config.n,
                       "batch_size": config.batch_size, "d": config.d},
        },
        "grid": cells,
        "summary": result.summary,
    }
    return result
