"""The metric catalogue: every name the scoreboard prints, with its unit,
direction and regression bound.  Names are fixed — later perf and
simplicity PRs are measured against them — so nothing else in the
benchmark spells a metric name that is not declared here.
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: marks metrics on the simulated clock (and accuracy): they must repeat
#: exactly, so any movement is a model change, not noise.
EXACT = "exact"

ALL = ("engine_paper", "rest_fanout", "serving_fused", "mutation_mix")

#: the host clock of a small shared sandbox drifts by about +-10 % over
#: minutes (cache and memory-bandwidth contention, no steal time), which
#: no amount of repetition inside one run averages out; measured
#: run-to-run spreads are in README.md.  A tighter bound would report
#: noise as regressions.
HOST_TIME_BOUND = 0.25


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | str
    #: workloads that report it
    where: tuple[str, ...]
    #: part of the root BENCHMARK.json contract: defined on every
    #: workload, never zero, host-clock so never bit-identical across runs
    contract: bool


END_TO_END = tuple(EndToEnd(*row) for row in (
    ("setup_s", "s", "lower", HOST_TIME_BOUND, ALL, True),
    ("host_images_per_s", "img/s", "higher", HOST_TIME_BOUND, ALL, True),
    ("op_p50_ms", "ms", "lower", HOST_TIME_BOUND, ALL, True),
    ("op_p90_ms", "ms", "lower", HOST_TIME_BOUND, ("rest_fanout",), False),
    ("enroll_p50_ms", "ms", "lower", HOST_TIME_BOUND, ("mutation_mix",), False),
    ("mutations_per_s", "1/s", "higher", HOST_TIME_BOUND, ("mutation_mix",), False),
    ("sim_images_per_s", "img/s", "higher", EXACT, ALL, False),
    ("sim_latency_p50_us", "us", "lower", EXACT, ("serving_fused",), False),
    ("sim_latency_p90_us", "us", "lower", EXACT, ("serving_fused",), False),
    ("top1_accuracy", "share", "higher", EXACT, ALL, False),
    ("failed_share", "share", "lower", EXACT, ALL, False),
    ("peak_rss_mb", "MB", "lower", 0.10, ALL, True),
))

#: layers are named after the modules whose public entry points the
#: tracer wraps (see tracer.TARGETS); ``bench`` is the harness itself.
LAYERS = (
    "topk", "blas", "kernel", "ratio_test", "features", "engine", "cache",
    "node", "cluster", "rest", "web", "serving", "kvstore", "serialization",
    "gpusim", "bench",
)

_COMPUTED = (
    ("topk.columns", "count", "lower"),
    ("topk.scanned_mb", "MB", "lower"),
    ("blas.gflop", "GFLOP", "lower"),
    ("blas.cast_mb", "MB", "lower"),
    ("features.query_prep_ms", "ms", "lower"),
    ("features.query_prep_per_request", "count", "lower"),
    ("features.ref_prep_ms", "ms", "lower"),
    ("engine.batches_swept", "count", "lower"),
    ("engine.batch_fill", "share", "higher"),
    ("engine.dead_slot_share", "share", "lower"),
    ("cluster.shards_per_search", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("serving.groups", "count", "lower"),
    ("serving.mean_group_size", "count", "higher"),
    ("serving.fused_occupancy", "share", "higher"),
    ("serving.sim_queue_wait_p50_us", "us", "lower"),
    ("kvstore.bytes_written", "B", "lower"),
    ("cache.add_ms", "ms", "lower"),
    ("cache.gpu_batches", "count", "lower"),
    ("cache.host_batches", "count", "lower"),
    ("sim.gemm_us", "us", "lower"),
    ("sim.top2_us", "us", "lower"),
    ("sim.sqrt_us", "us", "lower"),
    ("sim.d2h_us", "us", "lower"),
    ("sim.post_us", "us", "lower"),
    ("sim.h2d_us", "us", "lower"),
    ("proc.user_cpu_s", "s", "lower"),
    ("proc.sys_cpu_s", "s", "lower"),
    ("proc.minor_faults", "count", "lower"),
    ("proc.gc_collections", "count", "lower"),
    ("bench.inputgen_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

PER_LAYER = tuple(
    (f"{layer}.{suffix}", unit, "lower")
    for layer in LAYERS
    for suffix, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "share"))
) + _COMPUTED

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
WHERE = {metric.name: metric.where for metric in END_TO_END}


def contract_end_to_end() -> list[dict]:
    """The ``end_to_end`` block of the root BENCHMARK.json."""
    return [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END if m.contract
    ]


def contract_per_layer() -> list[dict]:
    """The ``per_layer`` block of the root BENCHMARK.json."""
    return [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in PER_LAYER
    ]


def tail_percentile(count: int) -> int | None:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if count * (100 - p) / 100.0 >= 10:
            return p
    return None
