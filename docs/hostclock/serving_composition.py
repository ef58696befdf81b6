"""Where a perfbench op's host time goes: one workload's window (default
`serving_fused`; seed and op scale as given, default 0 and 0.5 — the 20 s
run's), with functions wrapped in wall-clock accumulators — the kernel
(`knn_algorithm2_multiquery`), the REST descriptor parser, the shards' reads
(`SearchNode.search_many`, which charges each sweep and leaves its compute to
the gather) and inside them the engine's sweep loop (`_execute_sweep`),
`stacked_matches` and the cluster's query preparation; on `serving_fused`
also the executor's request body (`WebTierBatchExecutor.execute` less the
web tier's `handle`).  Each is a cumulative time, printed in ms an op and as
a share of the workload's timed ops (a group on `serving_fused`, a request on
`rest_fanout`).  Pass the root of another checkout to measure it instead (its
own `src/` and `perfbench/` are imported).  Run it alone, once per tree,
alternating:
    OPENBLAS_NUM_THREADS=1 python docs/hostclock/serving_composition.py [--workload NAME] [ROOT] [SEED]
"""
import argparse, functools, gc, sys, time
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--workload", default="serving_fused")
parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[2])
parser.add_argument("seed", nargs="?", type=int, default=0)
args = parser.parse_args()
sys.path[:0] = [str(args.root / "perfbench"), str(args.root / "src")]
from harness import Recorder
from workloads import WORKLOADS
import repro.core.kernels as kernels, repro.distributed.rest as rest
from repro.core import TextureSearchEngine
from repro.distributed import DistributedSearchSystem, SearchNode, WebTier
from repro.serving import WebTierBatchExecutor

spent: dict[str, float] = {}

def timed(owner, name, label):
    inner = getattr(owner, name)
    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[label] = spent.get(label, 0.0) + time.perf_counter() - started
    setattr(owner, name, wrapper)

timed(kernels, "knn_algorithm2_multiquery", "kernel")
timed(rest, "_parse_descriptors", "REST parse")
timed(SearchNode, "search_many", "shard reads")
timed(TextureSearchEngine, "_execute_sweep", "sweep loop")
timed(kernels, "stacked_matches", "stacked_matches")
timed(DistributedSearchSystem, "_prepared", "query preparation")
timed(WebTier, "handle", "web tier")
timed(WebTierBatchExecutor, "execute", "group")

workload = WORKLOADS[args.workload]
inputs = workload.generate(args.seed, 0.5)
state = workload.setup(inputs)
gc.collect()
spent.clear()
recorder = Recorder(None)
workload.run(state, inputs, recorder)
ops, total = len(recorder.ops), sum(op.seconds for op in recorder.ops)
labels = ["kernel", "REST parse", "shard reads", "sweep loop", "stacked_matches", "query preparation"]
if "group" in spent:
    spent["executor body"] = spent["group"] - spent["web tier"]
    labels.insert(2, "executor body")
print(f"{args.root.name} {args.workload}: {ops} ops, {total / ops * 1e3:.2f} ms an op")
for label in labels:
    print(f"  {label:18s} {spent.get(label, 0.0) / ops * 1e3:6.2f} ms  {spent.get(label, 0.0) / total:6.1%}")
