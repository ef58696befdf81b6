"""One workload, one pass, in this process: generate inputs, set up,
run the timed window, and turn what was recorded into metrics.

``run.py`` runs this in a fresh child process per (workload, pass) so
that no pass inherits another's heap, caches or patched functions.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy

from repro.serving import percentile  # nearest-rank, as the serving reports use

from metrics import LAYERS, WHERE, tail_percentile
from tracer import Tracer
from workloads import NOMINAL_SECONDS, WORKLOADS, Op

#: simulated step (an ``EngineStats.step_times_us`` key) per ``sim.*`` metric.
SIM_STEPS = {
    "sim.gemm_us": "GEMM",
    "sim.top2_us": "Top-2 sort",
    "sim.sqrt_us": "sqrt",
    "sim.d2h_us": "D2H copy",
    "sim.post_us": "Post-processing",
    "sim.h2d_us": "H2D copy",
}

#: the traced window must be explained by its spans to within this share.
SELF_TIME_TOLERANCE = 0.05
MIN_TOP1_ACCURACY = 0.99


class Recorder:
    """Collects the ops of one timed window; with a tracer attached it
    also opens the op span every layer span of that op hangs under."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        self.serving_report = None

    @contextmanager
    def timed(self, kind: str):
        op = Op(kind)
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.ops)
            span = tracer.begin("bench.op")
        start = time.perf_counter()
        try:
            yield op
        finally:
            op.seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
                tracer.op = -1
            self.ops.append(op)


def _step_totals(engines) -> dict[str, float]:
    totals: dict[str, float] = {}
    for engine in engines:
        for step, value in engine.stats.step_times_us.items():
            totals[step] = totals.get(step, 0.0) + value
    return totals


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _timing_summary(seconds: list[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    summary = {"n": len(seconds), "p50_ms": statistics.median(seconds) * 1e3}
    tail = tail_percentile(len(seconds))
    if tail is not None:
        summary[f"p{tail}_ms"] = percentile(seconds, tail) * 1e3
    return summary


def _blas_version() -> str:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def run_pass(workload_name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    scale = seconds / NOMINAL_SECONDS

    started = time.perf_counter()
    inputs = workload.generate(seed, scale)
    inputgen_s = time.perf_counter() - started

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        setups = []
        state = None
        for _ in range(workload.setup_reps):
            state = None  # drop the previous system before building the next
            gc.collect()
            span = tracer.begin("bench.setup") if tracer is not None else None
            started = time.perf_counter()
            state = workload.setup(inputs)
            setups.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.end(span)
        gc.collect()

        rec = Recorder(tracer)
        engines = workload.engines(state)
        steps_before = _step_totals(engines)
        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        collections_before = _gc_collections()
        window = tracer.begin_window() if tracer is not None else None
        started = time.perf_counter()
        workload.run(state, inputs, rec)
        window_s = time.perf_counter() - started
        if tracer is not None:
            tracer.end(window)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        collections = _gc_collections() - collections_before
        steps = _step_totals(engines)
    finally:
        if tracer is not None:
            tracer.uninstall()

    ops = rec.ops
    report = rec.serving_report
    searches = [op for op in ops if op.kind == "search" and op.queries]
    mutations = [op for op in ops if op.kind != "search"]
    images = sum(op.images for op in searches)
    queries = sum(op.queries for op in searches)
    failed = sum(op.failed for op in ops)

    e2e = {
        "setup_s": statistics.median(setups),
        "host_images_per_s": images / sum(op.seconds for op in searches),
        "op_p50_ms": statistics.median(op.seconds for op in searches) * 1e3,
        "top1_accuracy": sum(op.hits for op in searches) / queries,
        "failed_share": failed / len(ops),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if workload_name in WHERE["op_p90_ms"]:
        e2e["op_p90_ms"] = percentile([op.seconds for op in searches], 90) * 1e3
    if mutations:
        enrolls = [op.seconds for op in mutations if op.kind != "delete"]
        e2e["enroll_p50_ms"] = statistics.median(enrolls) * 1e3
        e2e["mutations_per_s"] = len(mutations) / sum(op.seconds for op in mutations)
    if report is not None:
        latency = report.latency_percentiles((50, 90))
        e2e["sim_images_per_s"] = report.throughput_images_per_s
        e2e["sim_latency_p50_us"] = latency["p50"]
        e2e["sim_latency_p90_us"] = latency["p90"]
    else:
        # a search op's first simulated time is its request's elapsed_us
        e2e["sim_images_per_s"] = images / (sum(op.sim_us[0] for op in searches) * 1e-6)

    verdict_digest = hashlib.sha256()
    sim_digest = hashlib.sha256()
    for index, op in enumerate(ops):
        verdict_digest.update(repr((index, op.kind, op.failed, op.verdict)).encode())
        sim_digest.update(repr((index, op.sim_us)).encode())

    problems = []
    for index, op in enumerate(ops):
        if op.failed and len(problems) < 5:
            problems.append(f"op {index} ({op.kind}) failed: {op.error or 'degraded answer'}")
    if e2e["top1_accuracy"] < MIN_TOP1_ACCURACY:
        problems.append(f"top1_accuracy {e2e['top1_accuracy']:.4f} < {MIN_TOP1_ACCURACY}")

    layers = {
        "proc.user_cpu_s": usage.ru_utime - usage_before.ru_utime,
        "proc.sys_cpu_s": usage.ru_stime - usage_before.ru_stime,
        "proc.minor_faults": usage.ru_minflt - usage_before.ru_minflt,
        "proc.gc_collections": collections,
        "bench.inputgen_s": inputgen_s,
        "cache.gpu_batches": sum(engine.cache.gpu_batches for engine in engines),
        "cache.host_batches": sum(engine.cache.host_batches for engine in engines),
    }
    for metric, step in SIM_STEPS.items():
        layers[metric] = (steps.get(step, 0.0) - steps_before.get(step, 0.0)) / len(searches)
    if report is not None:
        layers["serving.groups"] = report.n_groups
        layers["serving.mean_group_size"] = report.mean_group_size
        layers["serving.fused_occupancy"] = report.fused_occupancy
        layers["serving.sim_queue_wait_p50_us"] = percentile(
            [record.queue_wait_us for record in report.records], 50)

    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "op_scale": scale,
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layers,
        "timings": {
            kind: _timing_summary([op.seconds for op in ops if op.kind == kind])
            for kind in sorted({op.kind for op in ops})
        },
        "setup_samples_s": setups,
        "window_s": window_s,
        "digests": {
            "verdict_digest": verdict_digest.hexdigest(),
            "sim_digest": sim_digest.hexdigest(),
            # digests are comparable only on one machine and one numeric stack
            "numpy": numpy.__version__,
            "blas": _blas_version(),
        },
        "problems": problems,
    }
    if tracer is not None:
        layers.update(_traced_metrics(tracer, window_s, queries))
        explained = sum(layers[f"{layer}.self_ms"] for layer in LAYERS) / (window_s * 1e3)
        result["self_time_explained"] = explained
        if abs(explained - 1.0) > SELF_TIME_TOLERANCE:
            problems.append(f"layer self times explain {explained:.3f} of the traced window")
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload_name}.json", workload_name)
    result["correct"] = not problems
    return result


def _traced_metrics(tracer: Tracer, window_s: float, queries: int) -> dict:
    totals = tracer.window_totals()
    counters = tracer.counters
    nothing = {"calls": 0, "self_ms": 0.0}
    metrics = {}
    for layer in LAYERS:
        entry = totals.get(layer, nothing)
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_ms"] = entry["self_ms"]
        metrics[f"{layer}.share"] = entry["self_ms"] / (window_s * 1e3)
    query_prep = totals.get("#features.query_prep", nothing)
    metrics.update({
        "topk.columns": counters["topk.columns"],
        "topk.scanned_mb": counters["topk.scanned_bytes"] / 1e6,
        "blas.gflop": counters["blas.flop"] / 1e9,
        "blas.cast_mb": counters["blas.cast_bytes"] / 1e6,
        "features.query_prep_ms": query_prep["self_ms"],
        "features.query_prep_per_request": query_prep["calls"] / queries,
        "features.ref_prep_ms": totals.get("#features.ref_prep", nothing)["self_ms"],
        "engine.batches_swept": counters["engine.batches_swept"],
        "engine.batch_fill":
            counters["engine.images_swept"] / max(counters["engine.batch_slots"], 1),
        "engine.dead_slot_share":
            1.0 - counters["engine.live_images"] / max(counters["engine.images_swept"], 1),
        "cluster.shards_per_search":
            counters["cluster.shards"] / max(counters["cluster.searches"], 1),
        "cluster.retries": counters["cluster.retries"],
        "kvstore.bytes_written": counters["kvstore.bytes_written"],
        "cache.add_ms": totals.get("#cache.add", nothing)["self_ms"],
    })
    return metrics
