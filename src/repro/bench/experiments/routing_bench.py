"""Routing — recall vs sweep reduction for two-tier retrieval.

The routing tier (:mod:`repro.routing`) puts a coarse candidate router
in front of the exhaustive per-image matcher: pooled per-image
descriptors nominate a candidate set, and only the shards (and cached
batches) holding nominees are swept.  This experiment measures the
trade that tier buys:

* **recall@1 vs exhaustive** — how often the routed search's best
  match agrees with the exhaustive scatter-gather's best match;
* **sweep reduction** — exhaustive references swept divided by routed
  references swept (the batches the router let the engines skip never
  pay H2D staging or kernel time);
* **router overhead** — host wall-clock µs per nomination, read back
  from the ``repro_router_overhead_us`` histogram.

Both router kinds run the same grid (IVF coarse centroids and LSH
banding), with ``nprobe`` widening the candidate set from "cheapest"
to "probe everything".  At full ``nprobe`` the IVF candidate set
covers the whole corpus, and the bench asserts the routed results are
**bit-identical** to the router-less cluster's — routing degenerates
to exhaustive search, it never forks it.

The acceptance bar encoded in the summary: on the largest benched
corpus the IVF router reaches >= 5x sweep reduction while keeping
recall@1 vs exhaustive >= 0.95.  Results land in
``BENCH_routing.json`` (deterministic: seeded workload, simulated
clock, no timestamps).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ...core.config import EngineConfig
from ...distributed.cluster import DistributedSearchSystem
from ...routing import RouterPolicy
from ..tables import ExperimentResult
from .fault_tolerance import _make_descriptors, _noisy

__all__ = ["run"]

#: acceptance bar (ISSUE): on the largest corpus, >= MIN_REDUCTION x
#: fewer references swept while agreeing with exhaustive top-1 on at
#: least MIN_RECALL of the queries.
MIN_REDUCTION = 5.0
MIN_RECALL = 0.95


def _build_cluster(
    refs: dict[str, np.ndarray],
    config: EngineConfig,
    n_nodes: int,
    policy: RouterPolicy | None,
) -> DistributedSearchSystem:
    system = DistributedSearchSystem(
        n_nodes=n_nodes, engine_config=config, router_policy=policy
    )
    for ref_id, desc in refs.items():
        system.add(ref_id, desc)
    return system


def _match_key(result) -> list[tuple]:
    """Canonical, order-independent view of a result's matches for the
    bit-identity check (score/good_matches are exact floats/ints)."""
    return sorted(
        (m.reference_id, m.score, m.good_matches) for m in result.matches
    )


def _overhead_snapshot(system: DistributedSearchSystem, kind: str) -> tuple[float, int]:
    child = system.obs.registry.get("repro_router_overhead_us").labels(kind=kind)
    return float(child.sum), int(child.count)


def run(
    quick: bool = False,
    json_path: str | Path = "BENCH_routing.json",
    seed: int = 0,
) -> ExperimentResult:
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    n_nodes = 6
    corpus_sizes = (96,) if quick else (192, 480)
    n_queries = 12 if quick else 24
    nprobes = (1, 2, 4)

    result = ExperimentResult(
        "Routing: recall vs sweep reduction (two-tier retrieval)",
        ["corpus", "router", "nprobe", "recall@1", "swept/query",
         "pruned/query", "reduction x", "overhead us"],
    )
    cells: list[dict] = []
    largest = max(corpus_sizes)
    acceptance: dict[str, float | bool] = {}
    identity_ok = True

    rng = np.random.default_rng(seed)
    for corpus in corpus_sizes:
        refs = {
            f"r{i:04d}": _make_descriptors(rng, count=config.n, d=config.d)
            for i in range(corpus)
        }
        query_ids = [f"r{int(i):04d}" for i in rng.integers(0, corpus, size=n_queries)]
        queries = [_noisy(rng, refs[qid]) for qid in query_ids]

        # Router-less baseline: the pre-routing exhaustive scatter-gather.
        exhaustive = _build_cluster(refs, config, n_nodes, None)
        base_results = [exhaustive.search(q) for q in queries]
        base_top = [r.best().reference_id if r.best() else None for r in base_results]
        base_swept = sum(r.images_searched for r in base_results)
        gt_recall = sum(
            1 for qid, top in zip(query_ids, base_top) if top == qid
        ) / n_queries

        n_lists = max(8, corpus // 10)
        policies = {
            "ivf": RouterPolicy(kind="ivf", n_lists=n_lists, seed=seed),
            "lsh": RouterPolicy(kind="lsh", seed=seed),
        }
        for kind, policy in policies.items():
            routed = _build_cluster(refs, config, n_nodes, policy)
            routed.build_router()  # what the first routed search would do
            probe_grid = list(nprobes)
            if kind == "ivf" and n_lists not in probe_grid:
                probe_grid.append(n_lists)  # full probe = exhaustive coverage
            for nprobe in probe_grid:
                over_sum0, over_n0 = _overhead_snapshot(routed, kind)
                routed_results = [routed.search(q, nprobe=nprobe) for q in queries]
                over_sum1, over_n1 = _overhead_snapshot(routed, kind)
                swept = sum(r.images_searched for r in routed_results)
                pruned = sum(r.images_pruned for r in routed_results)
                agree = sum(
                    1
                    for r, top in zip(routed_results, base_top)
                    if (r.best().reference_id if r.best() else None) == top
                )
                recall = agree / n_queries
                reduction = base_swept / swept if swept else float("inf")
                overhead_us = (
                    (over_sum1 - over_sum0) / (over_n1 - over_n0)
                    if over_n1 > over_n0
                    else 0.0
                )
                full_probe = kind == "ivf" and nprobe >= n_lists
                if full_probe:
                    # full-width probe must degenerate to the exhaustive
                    # path bit-for-bit (same matches, same scores)
                    identical = all(
                        _match_key(r) == _match_key(b)
                        for r, b in zip(routed_results, base_results)
                    )
                    identity_ok = identity_ok and identical
                result.rows.append([
                    corpus,
                    kind,
                    nprobe,
                    round(recall, 3),
                    round(swept / n_queries, 1),
                    round(pruned / n_queries, 1),
                    round(reduction, 2),
                    round(overhead_us, 1),
                ])
                cells.append({
                    "corpus": corpus,
                    "router": kind,
                    "nprobe": nprobe,
                    "n_lists": n_lists if kind == "ivf" else None,
                    "recall_at_1_vs_exhaustive": round(recall, 4),
                    "recall_at_1_ground_truth_exhaustive": round(gt_recall, 4),
                    "images_swept_per_query": round(swept / n_queries, 3),
                    "images_pruned_per_query": round(pruned / n_queries, 3),
                    "sweep_reduction_x": round(reduction, 3),
                    "router_overhead_us_per_query": round(overhead_us, 3),
                    "full_probe": full_probe,
                    "partials": sum(1 for r in routed_results if r.partial),
                })
                if (
                    corpus == largest
                    and kind == "ivf"
                    and not full_probe
                    and recall >= MIN_RECALL
                    and reduction > acceptance.get("sweep_reduction_x", 0.0)
                ):
                    acceptance = {
                        "nprobe": nprobe,
                        "recall_at_1_vs_exhaustive": round(recall, 4),
                        "sweep_reduction_x": round(reduction, 3),
                    }

    passes = bool(acceptance) and acceptance["sweep_reduction_x"] >= MIN_REDUCTION
    result.summary = {
        "largest_corpus": largest,
        "router_off_bit_identical_at_full_probe": identity_ok,
        "best_operating_point": acceptance or None,
        "meets_reduction_bar": passes,
        "reduction_bar_x": MIN_REDUCTION,
        "recall_bar": MIN_RECALL,
    }
    result.notes.append(
        "reduction = exhaustive references swept / routed references swept; "
        "pruned batches never pay H2D or kernel time"
    )
    result.notes.append(
        "router overhead is host wall-clock (perf_counter), not simulated "
        "GPU time — nomination runs on the CPU in front of the scatter"
    )

    payload = {
        "experiment": "routing",
        "seed": seed,
        "quick": quick,
        "workload": {
            "n_nodes": n_nodes,
            "corpus_sizes": list(corpus_sizes),
            "n_queries": n_queries,
            "nprobes": list(nprobes),
            "engine": {"m": config.m, "n": config.n,
                       "batch_size": config.batch_size, "d": config.d},
        },
        "grid": cells,
        "summary": result.summary,
    }
    Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    result.notes.append(f"full grid written to {json_path}")
    return result
