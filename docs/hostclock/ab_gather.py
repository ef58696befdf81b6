"""Fused gather against delivered-at-once, paired inside one process.

Cross-process pairs on a box whose speed drifts +-30 % cannot resolve a
gain of 1.2x; pairs taken milliseconds apart in one process can.  This
builds the perfbench topologies (import only), then sends every request
twice: once through the shipped gather, once with the cluster's
``compute_scope`` replaced from outside by a scope that hands every sweep
back to the engine's own at-once path (what the parent computed: one
kernel call per shard).  Order flips every other request; both arms must
answer the same body.
    python docs/hostclock/ab_gather.py --seed 3 [--workload rest_fanout] [--seconds 20]
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from run import PINNED_ENV  # perfbench/run.py's environment, in place before numpy loads

if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse
import gc
import math
import resource
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import workloads
from repro import serving
from repro.core import SweepCompute
from repro.distributed import cluster


@contextmanager
def delivered_at_once():
    """A ``compute_scope`` that opens nothing: sweeps below it find no
    scope and compute themselves; the gather's ``run()`` has nothing to do."""
    yield SweepCompute()


def requests_of(name, inputs):
    """``(op kind, thunk -> comparable answer)`` per timed request; writes run once, unpaired."""
    workload = workloads.WORKLOADS[name]
    tier = workload.setup(inputs)
    if name == "serving_fused":
        # the batcher's groups depend on simulated time only: replay them as /search/batch
        groups, executor = [], serving.WebTierBatchExecutor(tier, top=workloads.TOP)

        class Recording:
            name = "ab-recording"

            def execute(self, queries):
                groups.append(list(queries))
                return executor.execute(queries)

        serving.simulate_serving(Recording(), inputs["trace"], workload.policy)
        return tier, [("search", lambda g=g: executor.execute(g)[0]) for g in groups]
    ops = inputs.get("ops") or [("search", brick, query) for brick, query in inputs["queries"]]
    out = []
    for kind, brick, matrix in ops:
        if kind == "search":
            request = workloads._search_request(matrix)
        elif kind == "delete":
            request = workloads.Request("DELETE", f"/reference/{workloads.brick_id(brick)}")
        else:
            request = workloads._texture_request("/enroll", brick, matrix)
        out.append((kind, lambda r=request: [tier.handle(r).response.body]))
    return tier, out


#: differences of two absolute device clocks: the second of two identical
#: searches starts later on every clock, so these move in the last ulp
CLOCK_FIELDS = ("elapsed_us", "throughput_images_per_s")


def same_answers(one, other):
    """Bodies equal field for field; the clock differences to 1e-9 relative."""
    return len(one) == len(other) and all(
        a.keys() == b.keys() and all(
            math.isclose(a[k], b[k], rel_tol=1e-9) if k in CLOCK_FIELDS else a[k] == b[k]
            for k in a)
        for a, b in zip(one, other))


def quartiles(values):
    return tuple(float(np.percentile(values, p)) for p in (25, 50, 75))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="rest_fanout",
                        choices=["rest_fanout", "mutation_mix", "serving_fused"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    inputs = workloads.WORKLOADS[args.workload].generate(
        args.seed, args.seconds / workloads.NOMINAL_SECONDS)
    tier, requests = requests_of(args.workload, inputs)
    arms = {"fused": cluster.compute_scope, "at_once": delivered_at_once}
    times = {arm: [] for arm in arms}
    faults = dict.fromkeys(arms, 0)
    gc.collect()
    searches = 0
    for kind, send in requests:
        if kind != "search":
            send()
            continue
        order = list(arms) if searches % 2 == 0 else list(arms)[::-1]
        searches += 1
        answers = {}
        for arm in order:
            cluster.compute_scope = arms[arm]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            started = perf_counter()
            answers[arm] = send()
            times[arm].append(perf_counter() - started)
            faults[arm] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        cluster.compute_scope = arms["fused"]
        assert same_answers(answers["fused"], answers["at_once"]), f"arms disagree on search {searches}"
    print(f"{args.workload} seed {args.seed}: {searches} paired searches, bodies equal")
    for arm, series in times.items():
        p25, p50, _ = quartiles(np.array(series) * 1e3)
        print(f"  {arm:8s} p25 {p25:7.3f} ms  p50 {p50:7.3f} ms  min {min(series) * 1e3:7.3f} ms"
              f"  minor faults/op {faults[arm] / searches:8.1f}")
    ratio = quartiles(np.array(times["at_once"]) / np.array(times["fused"]))
    print("  at_once / fused per pair: p25 %.3f  p50 %.3f  p75 %.3f" % ratio)


if __name__ == "__main__":
    main()
