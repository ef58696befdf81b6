"""Elastic — static vs autoscaled fleets on diurnal and flash-crowd traffic.

The paper sizes its fleet once (14 containers) and benchmarks it at
full load; a production service sees diurnal traffic, so a statically
peak-sized fleet idles through every trough.  This experiment runs the
same seeded diurnal trace through three fleets of the replica-group
cluster:

* **static-lean** — one replica per shard (the trough-sized fleet):
  cheapest, but the peak overruns it and goodput collapses into
  deadline misses and shedding.
* **static-peak** — ``_R_MAX`` replicas per shard (the peak-sized
  fleet): goodput holds, but every replica is billed for the whole
  trace.
* **elastic** — starts lean with an :class:`~repro.distributed.
  autoscaler.Autoscaler` target-tracking the per-replica serving queue
  depth: replicas warm up from the KV store on the rising edge and
  drain away after the peak.  The claim under test: goodput within
  5 % of the peak-sized fleet at measurably fewer node-seconds.

The flash-crowd section replays a rectangular burst (the worst case
for a reactive controller) with a burn-rate :class:`~repro.obs.slo.
SloEngine` wired into the autoscaler as an alert sink, so a CRITICAL
page can bypass the scale-out cooldown.  The replica-kill section
crashes one replica of an R=2 shard under load and requires **zero
partial results** — the sibling absorbs every slice.  Everything runs
on the simulated clock with seeded workloads; the elastic run and the
replica-kill run are both executed twice and their payloads must be
byte-identical.

Results land in ``BENCH_elastic.json``.
"""

from __future__ import annotations

import json

import numpy as np

from ...core.config import EngineConfig
from ...distributed import DistributedSearchSystem, FaultInjector
from ...gpusim.device import GIB, DeviceSpec
from ...distributed.autoscaler import Autoscaler, AutoscalerPolicy
from ...distributed.replica import WARMUP_BASE_US, WARMUP_US_PER_REF
from ...obs import DEFAULT_US_BUCKETS
from ...obs.slo import SloEngine
from ...obs.timeseries import TimeSeriesRecorder
from ...serving import (
    BatchPolicy,
    ClusterGroupExecutor,
    build_trace,
    diurnal_arrivals,
    flash_crowd_arrivals,
    simulate_serving,
)
from ..tables import ExperimentResult
from .fault_tolerance import _make_workload
from .slo_bench import _policies

__all__ = ["run"]

#: shards in every fleet (replication varies, sharding does not).
_N_SHARDS = 2
#: references enrolled per shard.
_REFS_PER_SHARD = 8
#: serving group size (also the capacity unit, as in the other benches).
_MAX_BATCH = 16

#: the elastic fleet runs on a compute-starved edge tier rather than
#: the paper's P100s: on a P100 this bench's tiny shards finish so fast
#: that group time is all fixed overhead (web tier + H2D staging) and
#: an extra replica adds no capacity.  Starving FP32 throughput makes
#: the per-query GEMM dominate, so splitting a group's queries across
#: replicas genuinely multiplies capacity — the regime where
#: elasticity is worth measuring.  Wall-clock cost is unchanged: the
#: NumPy work is identical, only the simulated time scales.
_EDGE_DEVICE = DeviceSpec(
    name="Edge (sim)",
    sm_count=8,
    fp32_tflops=0.005,
    fp16_tflops=0.01,
    tensor_tflops=0.0,
    mem_bandwidth_gbs=160.0,
    mem_bytes=16 * GIB,
)
#: peak replication tier: what static-peak runs at and the elastic
#: fleet may scale to.
_R_MAX = 3
#: admission-queue bound, in groups (overload pressure becomes shedding
#: rather than an unbounded backlog, like a real front door).
_QUEUE_GROUPS = 4
#: per-request latency budget as a multiple of the lean group time.
_DEADLINE_GROUPS = 3.0


def _build_system(
    config: EngineConfig,
    refs: dict[str, np.ndarray],
    replication: int,
    fault_injector: FaultInjector | None = None,
) -> DistributedSearchSystem:
    system = DistributedSearchSystem(
        _N_SHARDS,
        config,
        replication_factor=replication,
        device_spec=_EDGE_DEVICE,
        fault_injector=fault_injector,
    )
    for ref_id in sorted(refs):
        system.add(ref_id, refs[ref_id])
    return system


def _calibrate(config: EngineConfig, refs, pool, replication: int) -> float:
    """One warmed fused-group time (µs) on a ``replication``-tier fleet
    — the capacity unit all rates and windows are expressed in."""
    system = _build_system(config, refs, replication)
    executor = ClusterGroupExecutor(system)
    executor.execute(pool[:_MAX_BATCH])  # first sweep pays H2D staging
    _, elapsed_us = executor.execute(pool[:_MAX_BATCH])
    return float(elapsed_us)


def _scaler_policy(group_us: float) -> AutoscalerPolicy:
    """Target tracking tuned to the calibrated group time: the high
    band only trips on real backlog (the bounded queue pinned well
    above one group), the low band only on a near-idle queue, and the
    scale-out cooldown covers one replica warm-up so the controller
    sees the effect of its last action before acting again."""
    warmup_us = WARMUP_BASE_US + WARMUP_US_PER_REF * _REFS_PER_SHARD
    return AutoscalerPolicy(
        target_queue_depth=4.0,
        band=0.5,
        window_us=4.0 * group_us,
        max_replicas_per_shard=_R_MAX,
        cooldown_out_us=warmup_us + 2.0 * group_us,
        cooldown_in_us=10.0 * group_us,
        critical_boost_cooldown_us=warmup_us + 2.0 * group_us,
    )


def _run_fleet(
    config: EngineConfig,
    refs: dict[str, np.ndarray],
    pool: list[np.ndarray],
    arrivals: list[float],
    *,
    replication: int,
    elastic: bool,
    group_us: float,
    deadline_us: float,
    with_slo: bool = False,
) -> dict:
    """One serving replay on a fresh fleet; returns a JSON-ready,
    fully run-local payload (the fleet's counters are its own, so two
    identical runs produce byte-identical payloads)."""
    system = _build_system(config, refs, replication)
    recorder = TimeSeriesRecorder(
        system.obs.registry, interval_us=group_us / 2.0, retention=8192
    )
    system.obs.recorder = recorder
    slo_engine = None
    scaler = None
    if with_slo:
        # the pager watches a latency objective *tighter* than the
        # shed deadline: the bounded admission queue caps waiting
        # below the deadline, so a deadline-level threshold would
        # never burn — the page must fire while the backlog builds,
        # before shedding starts
        bounds = DEFAULT_US_BUCKETS  # the serving latency histogram's
        slo_us = TimeSeriesRecorder.effective_threshold_us(bounds, 1.25 * group_us)
        if slo_us == float("inf"):
            slo_us = float(bounds[-1])
        slo_engine = SloEngine(_policies("latency-elastic", slo_us, group_us), system.obs.registry)
        slo_engine.attach(recorder)
        system.obs.slo = slo_engine
    if elastic:
        scaler = Autoscaler(system, _scaler_policy(group_us))
        scaler.attach(recorder)
        if slo_engine is not None:
            scaler.subscribe(slo_engine)
    queries = [pool[i % len(pool)] for i in range(len(arrivals))]
    trace = build_trace(arrivals, queries, deadline_us=deadline_us)
    policy = BatchPolicy(
        max_batch=_MAX_BATCH,
        max_wait_us=0.0,
        max_queue_depth=_QUEUE_GROUPS * _MAX_BATCH,
    )
    report = simulate_serving(ClusterGroupExecutor(system), trace, policy)
    recorder.flush()
    node_seconds = system.node_seconds()
    replication_final = {
        shard_id: len(group.nodes)
        for shard_id, group in sorted(system.groups.items())
    }

    n_offered = len(arrivals)
    n_good = sum(
        1 for r in report.records
        if r.deadline_us is None or r.completed_us <= r.deadline_us
    )
    pct = report.latency_percentiles((50, 95, 99))
    first_critical = None
    if slo_engine is not None:
        from ...obs.slo import CRITICAL

        event = slo_engine.log.first_at("latency-elastic", CRITICAL)
        first_critical = event.t_us if event is not None else None
    return {
        "replication_initial": replication,
        "replication_final": replication_final,
        "elastic": elastic,
        "n_offered": n_offered,
        "n_completed": report.n_requests,
        "n_good": n_good,
        "n_shed": report.n_rejected,
        "goodput_fraction": round(n_good / n_offered, 6) if n_offered else 1.0,
        "p50_us": round(pct["p50"], 3),
        "p95_us": round(pct["p95"], 3),
        "p99_us": round(pct["p99"], 3),
        "makespan_us": round(report.makespan_us, 3),
        "node_seconds": round(node_seconds, 6),
        "scaling_events": [e.to_dict() for e in scaler.events] if scaler else [],
        "first_critical_us": first_critical,
    }


def _run_replica_kill(
    config: EngineConfig,
    refs: dict[str, np.ndarray],
    pool: list[np.ndarray],
    seed: int,
    n_groups: int,
) -> dict:
    """Kill one replica of an R=2 shard mid-stream: every group before,
    during, and after the crash must come back non-partial (the sibling
    absorbs the dead reader's slices), and repair must detach the dead
    replica without touching placement."""
    injector = FaultInjector(seed=seed)
    system = _build_system(config, refs, replication=2, fault_injector=injector)
    shard_id = sorted(system.groups)[0]
    victim = next(
        node for node in system.groups[shard_id].nodes
        if node.node_id != shard_id
    )
    executor = ClusterGroupExecutor(system)
    partials = 0
    for k in range(n_groups):
        if k == n_groups // 3:
            injector.crash(victim.node_id)
        payloads, _ = executor.execute(pool[:_MAX_BATCH])
        partials += sum(1 for r in payloads if r.partial)
    replica_retries = system.obs.registry.value("repro_cluster_replica_retries_total")
    return {
        "shard": shard_id,
        "victim": victim.node_id,
        "n_groups": n_groups,
        "partial_results": partials,
        "replica_retries": replica_retries,
        "victim_detached": system._group_of_node(victim.node_id) is None,
        "replicas_after": {
            sid: len(group.nodes) for sid, group in sorted(system.groups.items())
        },
    }


def run(
    quick: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    refs, pool = _make_workload(_N_SHARDS * _REFS_PER_SHARD, 2 * _MAX_BATCH, seed, config)

    lean_us = _calibrate(config, refs, pool, replication=1)
    peak_us = _calibrate(config, refs, pool, replication=_R_MAX)
    capacity_lean_rps = _MAX_BATCH / lean_us * 1e6
    capacity_peak_rps = _MAX_BATCH / peak_us * 1e6
    deadline_us = _DEADLINE_GROUPS * lean_us

    # diurnal trace: trough at ~half the lean fleet's capacity, peak at
    # 80 % of the peak fleet's — well over the lean fleet, inside the
    # peak fleet, so only elasticity separates the cheap configurations
    period_us = (36.0 if quick else 60.0) * lean_us
    trough_rps = 0.55 * capacity_lean_rps
    peak_rps = 0.8 * capacity_peak_rps
    diurnal = diurnal_arrivals(
        duration_us=period_us,
        trough_rate_per_s=trough_rps,
        peak_rate_per_s=peak_rps,
        period_us=period_us,
        seed=seed + 1,
    )

    fleets = {
        "static-lean": dict(replication=1, elastic=False),
        "static-peak": dict(replication=_R_MAX, elastic=False),
        "elastic": dict(replication=1, elastic=True),
    }
    diurnal_out: dict[str, dict] = {}
    for label, kwargs in fleets.items():
        diurnal_out[label] = _run_fleet(
            config, refs, pool, diurnal,
            group_us=lean_us, deadline_us=deadline_us, **kwargs,
        )

    # determinism: the elastic replay is a pure function of the seed
    rerun = _run_fleet(
        config, refs, pool, diurnal,
        replication=1, elastic=True,
        group_us=lean_us, deadline_us=deadline_us,
    )
    deterministic = json.dumps(rerun, sort_keys=True) == json.dumps(
        diurnal_out["elastic"], sort_keys=True
    )

    # flash crowd: a rectangular burst with the burn-rate pager wired
    # into the autoscaler (CRITICAL bypasses the scale-out cooldown)
    flash_duration_us = (28.0 if quick else 40.0) * lean_us
    spike_start_us = 8.0 * lean_us
    spike_width_us = 12.0 * lean_us
    # the spike briefly exceeds even the fully scaled-out fleet: the
    # burn-rate pager must go CRITICAL, and the page lets the scaler
    # bypass its own cooldown on the way up
    flash = flash_crowd_arrivals(
        duration_us=flash_duration_us,
        base_rate_per_s=0.5 * capacity_lean_rps,
        spike_rate_per_s=1.15 * capacity_peak_rps,
        spike_start_us=spike_start_us,
        spike_width_us=spike_width_us,
        seed=seed + 2,
    )
    flash_out = {
        "static-lean": _run_fleet(
            config, refs, pool, flash,
            replication=1, elastic=False,
            group_us=lean_us, deadline_us=deadline_us,
        ),
        "elastic": _run_fleet(
            config, refs, pool, flash,
            replication=1, elastic=True,
            group_us=lean_us, deadline_us=deadline_us, with_slo=True,
        ),
    }
    first_scale_out = next(
        (
            e["t_us"] for e in flash_out["elastic"]["scaling_events"]
            if e["action"] == "scale_out"
        ),
        None,
    )
    reaction_us = (
        first_scale_out - spike_start_us if first_scale_out is not None else None
    )

    # replica kill under load: R=2, zero partials, deterministic replay
    kill_groups = 9 if quick else 15
    kill = _run_replica_kill(config, refs, pool, seed + 3, kill_groups)
    kill_rerun = _run_replica_kill(config, refs, pool, seed + 3, kill_groups)
    kill_deterministic = json.dumps(kill, sort_keys=True) == json.dumps(
        kill_rerun, sort_keys=True
    )

    lean = diurnal_out["static-lean"]
    peak = diurnal_out["static-peak"]
    elastic = diurnal_out["elastic"]
    goodput_vs_peak = (
        elastic["goodput_fraction"] / peak["goodput_fraction"]
        if peak["goodput_fraction"] else 1.0
    )
    node_seconds_saved = peak["node_seconds"] - elastic["node_seconds"]

    result = ExperimentResult(
        "Elastic: static vs autoscaled fleets on a diurnal trace",
        ["fleet", "goodput", "p99 ms", "shed", "node-s", "scale events"],
    )
    for label in ("static-lean", "static-peak", "elastic"):
        out = diurnal_out[label]
        result.rows.append([
            label,
            f"{out['goodput_fraction']:.3f}",
            round(out["p99_us"] / 1e3, 2),
            out["n_shed"],
            round(out["node_seconds"], 3),
            len(out["scaling_events"]),
        ])
    result.summary = {
        "capacity_lean_rps": round(capacity_lean_rps, 1),
        "capacity_peak_rps": round(capacity_peak_rps, 1),
        "deadline_us": round(deadline_us, 1),
        "goodput_lean": lean["goodput_fraction"],
        "goodput_peak": peak["goodput_fraction"],
        "goodput_elastic": elastic["goodput_fraction"],
        "elastic_within_5pct_of_peak": goodput_vs_peak >= 0.95,
        "node_seconds_peak": peak["node_seconds"],
        "node_seconds_elastic": elastic["node_seconds"],
        "node_seconds_saved": round(node_seconds_saved, 6),
        "elastic_cheaper_than_peak": node_seconds_saved > 0,
        "flash_reaction_us": (
            round(reaction_us, 1) if reaction_us is not None else None
        ),
        "flash_critical_fired": flash_out["elastic"]["first_critical_us"] is not None,
        "replica_kill_partials": kill["partial_results"],
        "replica_kill_zero_partials": kill["partial_results"] == 0,
        "deterministic_replay": deterministic and kill_deterministic,
    }
    result.notes.append(
        f"diurnal: trough {trough_rps:.0f} rps -> peak {peak_rps:.0f} rps over "
        f"{period_us / 1e3:.1f} ms; elastic goodput is "
        f"{goodput_vs_peak:.1%} of static-peak at "
        f"{node_seconds_saved:.3f} node-s less"
    )
    result.notes.append(
        "replica kill: one R=2 replica crashed mid-stream, "
        f"{kill['partial_results']} partial results across "
        f"{kill['n_groups']} groups ({kill['replica_retries']:.0f} sibling "
        "retries absorbed the dead reader)"
    )

    result.payload = {
        "experiment": "elastic",
        "seed": seed,
        "quick": quick,
        "workload": {
            "n_shards": _N_SHARDS,
            "refs_per_shard": _REFS_PER_SHARD,
            "max_batch": _MAX_BATCH,
            "r_max": _R_MAX,
            "group_us_lean": round(lean_us, 3),
            "group_us_peak": round(peak_us, 3),
            "deadline_us": round(deadline_us, 3),
            "diurnal": {
                "period_us": round(period_us, 3),
                "trough_rps": round(trough_rps, 3),
                "peak_rps": round(peak_rps, 3),
                "n_arrivals": len(diurnal),
            },
            "flash": {
                "duration_us": round(flash_duration_us, 3),
                "spike_start_us": round(spike_start_us, 3),
                "spike_width_us": round(spike_width_us, 3),
                "n_arrivals": len(flash),
            },
        },
        "diurnal": diurnal_out,
        "flash": flash_out,
        "replica_kill": kill,
        "determinism": {
            "elastic_rerun_identical": deterministic,
            "replica_kill_rerun_identical": kill_deterministic,
        },
        "summary": result.summary,
    }
    return result
