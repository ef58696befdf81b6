"""Fault tolerance — throughput and recall under injected failures.

The paper's Sec. 8 cluster assumes every container answers every query;
this experiment measures what the fault-tolerance layer preserves when
they don't.  A functional mini-cluster runs a fixed query workload
while a seeded :class:`~repro.distributed.FaultInjector` crashes
containers and injects transient errors at increasing rates.  Reported
per failure rate:

* **recall@1** — fraction of queries whose best match equals the
  no-fault baseline's (partial results can miss the true shard);
* **partial fraction** — queries answered with ``partial=True``;
* **mean throughput** — simulated images/s of the gather (retries,
  backoff and timeouts all charge simulated time);
* **failed-over containers** — nodes auto-decommissioned and
  re-hydrated from the KV store during the workload.

Everything is hash-seeded, so rows reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ...core.config import EngineConfig
from ...distributed.cluster import DistributedSearchSystem, RetryPolicy
from ...distributed.faults import FaultInjector, FaultSpec
from ..tables import ExperimentResult

__all__ = ["run"]


def _make_descriptors(rng: np.random.Generator, count: int = 32, d: int = 128) -> np.ndarray:
    desc = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    desc = np.minimum(desc, 0.2)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    return (desc * 512.0).astype(np.float32)


def _noisy(rng: np.random.Generator, desc: np.ndarray, sigma: float = 8.0) -> np.ndarray:
    out = np.maximum(desc + rng.normal(0, sigma, desc.shape).astype(np.float32), 0)
    norms = np.maximum(np.linalg.norm(out, axis=0, keepdims=True), 1e-9)
    return (out / norms * 512.0).astype(np.float32)


def _make_workload(
    n_refs: int, n_queries: int, seed: int, config: EngineConfig
) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """``n_refs`` references ``r0, r1, ...`` of the query width and
    ``n_queries`` noisy copies of references drawn at random, from one
    ``seed``: the serving, overload, SLO and elastic benches' workload."""
    rng = np.random.default_rng(seed)
    refs = {f"r{i}": _make_descriptors(rng, count=config.n, d=config.d)
            for i in range(n_refs)}
    ref_list = list(refs.values())
    queries = [
        _noisy(rng, ref_list[int(rng.integers(0, n_refs))])
        for _ in range(n_queries)
    ]
    return refs, queries


def run(
    n_nodes: int = 8,
    n_refs: int = 24,
    n_queries: int = 12,
    failure_rates: tuple = (0.0, 0.02, 0.05, 0.1, 0.2),
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)
    rng = np.random.default_rng(seed)
    refs = {i: _make_descriptors(rng) for i in range(n_refs)}
    query_ids = [int(i) for i in rng.integers(0, n_refs, size=n_queries)]
    queries = [_noisy(rng, refs[i]) for i in query_ids]

    # no-fault baseline answers (ground truth for recall@1)
    baseline_system = DistributedSearchSystem(n_nodes, config)
    for i, desc in refs.items():
        baseline_system.add(f"r{i}", desc)
    baseline_best = [baseline_system.search(q).best().reference_id for q in queries]

    result = ExperimentResult(
        "Fault tolerance: recall/throughput vs injected failure rate",
        ["failure rate", "recall@1", "partial frac", "mean img/s", "failed over", "retries"],
    )
    for rate in failure_rates:
        injector = FaultInjector(
            FaultSpec(crash_rate=rate / 4.0, transient_rate=rate), seed=seed
        )
        system = DistributedSearchSystem(
            n_nodes, config,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, backoff_us=500.0),
            min_shard_fraction=0.25,
        )
        for i, desc in refs.items():
            system.add(f"r{i}", desc)
        n_start = len(system.nodes)
        correct = partial = retries = 0
        throughputs = []
        for query, expected in zip(queries, baseline_best):
            answer = system.search(query)
            best = answer.best()
            correct += int(best is not None and best.reference_id == expected)
            partial += int(answer.partial)
            retries += answer.retries
            throughputs.append(answer.images_per_s)
        result.rows.append(
            [
                rate,
                round(correct / n_queries, 3),
                round(partial / n_queries, 3),
                int(np.mean(throughputs)),
                n_start - len(system.nodes),
                retries,
            ]
        )

    clean = result.row_by("failure rate", failure_rates[0])
    worst = result.rows[-1]
    result.summary = {
        "clean_recall": clean[1],
        "worst_rate_recall": worst[1],
        "clean_images_per_s": clean[3],
        "worst_rate_images_per_s": worst[3],
        "total_failed_over": sum(row[4] for row in result.rows),
    }
    result.notes.append(
        "crash rate is failure_rate/4 per node op; transient rate is failure_rate; "
        "crashed containers fail over automatically (KV re-hydration)"
    )
    return result
