"""Serving — dynamic batching throughput/latency sweep.

The paper reports per-query latency only; any production deployment of
its Fig. 6 architecture faces concurrent queries, and the win of the
fused multi-query sweep (one H2D staging + one wide GEMM per reference
batch for the whole group) only materialises if a serving layer
actually forms groups.  This experiment drives the
:mod:`repro.serving` event loop over burst arrival traces at offered
concurrency 1–8 and sweeps the batching policy (``max_batch`` ×
``max_wait_us``), reporting per cell:

* **img/s** — query-reference pairs compared per second of makespan;
* **p50/p95/p99 ms** — end-to-end request latency percentiles
  (queue wait + execution), nearest-rank;
* **mean group / occupancy** — how full the fused GEMMs ran.

``max_batch=1`` rows use the per-query serial executor — the paper's
implicit baseline — so the fused speedup is read directly off the
table.  Two extra rows push groups through the sharded cluster and the
full REST/load-balancer tier (``POST /search/batch``).  Results are
also written to ``BENCH_serving.json`` (deterministic: no timestamps,
seeded workload).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...distributed.cluster import DistributedSearchSystem
from ...distributed.loadbalancer import WebTier
from ...serving import (
    BatchPolicy,
    ClusterGroupExecutor,
    FusedEngineExecutor,
    SerialEngineExecutor,
    WebTierBatchExecutor,
    build_trace,
    burst_arrivals,
    simulate_serving,
)
from ..tables import ExperimentResult
from .fault_tolerance import _make_workload

__all__ = ["run"]

#: inter-burst gap; short enough that the device (not the arrival
#: process) is the bottleneck at concurrency >= 2, so throughput
#: differences between policies are visible in the makespan.
_INTERVAL_US = 2_000.0


def _row(tier: str, concurrency: int, policy: BatchPolicy, report) -> list:
    pct = report.latency_percentiles()
    return [
        tier,
        concurrency,
        policy.max_batch,
        int(policy.max_wait_us),
        int(report.throughput_images_per_s),
        round(pct["p50"] / 1e3, 2),
        round(pct["p95"] / 1e3, 2),
        round(pct["p99"] / 1e3, 2),
        round(report.mean_group_size, 2),
        round(report.fused_occupancy, 2),
    ]


def run(
    quick: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    n_refs = 16
    n_bursts = 3 if quick else 6
    concurrencies = (1, 4) if quick else (1, 2, 4, 8)
    policies = (
        [(1, 0.0), (4, 2_000.0)]
        if quick
        else [(1, 0.0), (4, 2_000.0), (8, 2_000.0), (8, 8_000.0)]
    )

    max_queries = max(concurrencies) * n_bursts
    refs, queries = _make_workload(n_refs, max_queries, seed, config)

    engine = TextureSearchEngine(config)
    for ref_id, desc in refs.items():
        engine.add_reference(ref_id, desc)
    fused = FusedEngineExecutor(engine)
    serial = SerialEngineExecutor(engine)

    result = ExperimentResult(
        "Serving: dynamic batching throughput/latency sweep",
        ["tier", "conc", "max_batch", "wait_us", "img/s",
         "p50 ms", "p95 ms", "p99 ms", "grp", "occ"],
    )
    cells: list[dict] = []
    baseline_by_conc: dict[int, float] = {}
    best_fused_by_conc: dict[int, float] = {}
    for concurrency in concurrencies:
        arrivals = burst_arrivals(n_bursts, concurrency, _INTERVAL_US)
        trace = build_trace(arrivals, queries[: len(arrivals)])
        for max_batch, max_wait_us in policies:
            policy = BatchPolicy(max_batch=max_batch, max_wait_us=max_wait_us)
            executor = serial if max_batch == 1 else fused
            report = simulate_serving(executor, trace, policy)
            result.rows.append(_row("engine", concurrency, policy, report))
            cells.append(
                {"tier": "engine", "executor": executor.name,
                 "concurrency": concurrency, **report.to_dict()}
            )
            images_per_s = report.throughput_images_per_s
            if max_batch == 1:
                baseline_by_conc[concurrency] = images_per_s
            else:
                best_fused_by_conc[concurrency] = max(
                    best_fused_by_conc.get(concurrency, 0.0), images_per_s
                )

    # The same policy through the distributed tier: whole groups per
    # shard RPC, then through the REST front door (/search/batch).
    cluster_conc = 4
    cluster_policy = BatchPolicy(max_batch=4, max_wait_us=2_000.0)
    system = DistributedSearchSystem(4, config)
    for ref_id, desc in refs.items():
        system.add(ref_id, desc)
    tier = WebTier(system, n_workers=1)
    arrivals = burst_arrivals(n_bursts, cluster_conc, _INTERVAL_US)
    trace = build_trace(arrivals, queries[: len(arrivals)])
    for tier_name, executor in (
        ("cluster", ClusterGroupExecutor(system)),
        ("webtier", WebTierBatchExecutor(tier)),
    ):
        report = simulate_serving(executor, trace, cluster_policy)
        result.rows.append(_row(tier_name, cluster_conc, cluster_policy, report))
        cells.append(
            {"tier": tier_name, "executor": executor.name,
             "concurrency": cluster_conc, **report.to_dict()}
        )

    speedup_conc = 4 if 4 in baseline_by_conc else max(baseline_by_conc)
    fused_speedup = (
        best_fused_by_conc[speedup_conc] / baseline_by_conc[speedup_conc]
        if baseline_by_conc.get(speedup_conc) else 0.0
    )
    result.summary = {
        "fused_speedup_at_conc4": round(fused_speedup, 2),
        "baseline_images_per_s": int(baseline_by_conc[speedup_conc]),
        "best_fused_images_per_s": int(best_fused_by_conc[speedup_conc]),
    }
    result.notes.append(
        "max_batch=1 rows run the per-query serial executor (the baseline); "
        "fused rows share one cache sweep per group"
    )
    result.notes.append(
        f"bursts of <conc> queries every {int(_INTERVAL_US)}us; "
        "latency = queue wait + execution (nearest-rank percentiles)"
    )

    result.payload = {
        "experiment": "serving",
        "seed": seed,
        "quick": quick,
        "workload": {
            "n_refs": n_refs,
            "n_bursts": n_bursts,
            "interval_us": _INTERVAL_US,
            "engine": {"m": config.m, "n": config.n,
                       "batch_size": config.batch_size, "d": config.d},
        },
        "grid": cells,
        "summary": result.summary,
    }
    return result
