"""Observability — instrumentation overhead on the hot sweep path.

The metrics registry and the request tracer sit directly on the
engine's cache-sweep loop — the code path every other experiment
times.  This experiment quantifies what they cost: the same fused
``search_group`` sweep is wall-clock timed with instrumentation

* **off** — registry disabled, tracer disabled (one boolean check per
  instrument site: the price every uninstrumented run pays);
* **metrics** — registry counters/histograms live, tracer off;
* **full** — registry live, request tracer recording spans, and a
  :class:`~repro.gpusim.tracing.TimelineTracer` attached to the
  device (every ``submit`` wrapped).

Each mode reports the *minimum* per-sweep wall-clock over several
repeats (minimum, not mean: the floor is the intrinsic cost; the
spread is scheduler noise).  The acceptance bar for the observability
layer is **full-mode overhead < 5%** relative to off.

Results go to ``BENCH_observability.json``.  Simulated time is
identical across modes by construction — instrumentation never touches
the device clock — and the experiment asserts that.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...gpusim import TimelineTracer
from ...obs import default_tracer
from ..tables import ExperimentResult
from .fault_tolerance import _make_descriptors, _noisy

__all__ = ["run"]


def _time_sweeps(engine, queries, repeats: int) -> tuple[float, float]:
    """Min wall-clock seconds per fused sweep, and the (simulated)
    elapsed_us of the last sweep for the cross-mode invariance check."""
    best = float("inf")
    sim_us = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        group = engine.search_group(queries)
        best = min(best, time.perf_counter() - start)
        sim_us = group.elapsed_us
    return best, sim_us


def run(
    n_refs: int = 48,
    group_size: int = 8,
    repeats: int = 7,
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=64, n=128, batch_size=8, min_matches=5, scale_factor=0.25)
    rng = np.random.default_rng(seed)
    refs = {
        f"r{i}": _make_descriptors(rng, count=config.n, d=config.d)
        for i in range(n_refs)
    }
    ref_list = list(refs.values())
    queries = [
        _noisy(rng, ref_list[int(rng.integers(0, n_refs))])
        for _ in range(group_size)
    ]

    engine = TextureSearchEngine(config)
    for ref_id, desc in refs.items():
        engine.add_reference(ref_id, desc)

    registry = engine.obs.registry
    tracer = default_tracer()
    timeline = TimelineTracer()
    was_tracing = tracer.enabled

    timings: dict[str, float] = {}
    sim: dict[str, float] = {}
    try:
        # warm up caches/allocator before any timed mode
        engine.search_group(queries)

        registry.disable()
        tracer.disable()
        timings["off"], sim["off"] = _time_sweeps(engine, queries, repeats)

        registry.enable()
        timings["metrics"], sim["metrics"] = _time_sweeps(engine, queries, repeats)

        tracer.enable()
        with timeline.attached(engine.device):
            timings["full"], sim["full"] = _time_sweeps(engine, queries, repeats)
        tracer.disable()
        spans_per_sweep = len(tracer.spans) // repeats
        events_recorded = len(timeline.events)
    finally:
        tracer.enabled = was_tracing

    # the device clock's absolute value grows across repeats, so the
    # end-start subtraction loses trailing ULPs between modes — compare
    # with a relative tolerance, not exact equality
    if not all(
        math.isclose(value, sim["off"], rel_tol=1e-9)
        for value in sim.values()
    ):
        raise RuntimeError(
            f"instrumentation changed simulated time: {sim}"
        )

    def _pct(mode: str) -> float:
        return (timings[mode] / timings["off"] - 1.0) * 100.0

    result = ExperimentResult(
        "Observability: instrumentation overhead on the fused sweep",
        ["mode", "sweep ms", "overhead %"],
    )
    for mode in ("off", "metrics", "full"):
        result.rows.append(
            [mode, round(timings[mode] * 1e3, 3), round(_pct(mode), 2)]
        )
    overhead = _pct("full")
    result.summary = {
        "overhead_pct": round(overhead, 2),
        "within_budget": overhead < 5.0,
        "budget_pct": 5.0,
        "spans_per_sweep": spans_per_sweep,
        "timeline_events": events_recorded,
        "sim_elapsed_us": round(sim["full"], 1),
    }
    result.notes.append(
        f"min of {repeats} repeats; {n_refs} refs x {group_size}-query fused "
        f"group, batch_size={config.batch_size}"
    )
    result.notes.append(
        "full = labeled metrics + request spans + TimelineTracer on "
        "device.submit; simulated elapsed_us identical across modes"
    )

    result.payload = {
        "experiment": "observability",
        "seed": seed,
        "workload": {
            "n_refs": n_refs,
            "group_size": group_size,
            "repeats": repeats,
            "engine": {"m": config.m, "n": config.n,
                       "batch_size": config.batch_size, "d": config.d},
        },
        "sweep_ms": {k: round(v * 1e3, 3) for k, v in timings.items()},
        "summary": result.summary,
    }
    return result
