"""Where a `serving_fused` group's host time goes: perfbench's serving_fused
window (seed and op scale as given, default 0 and 0.5 — the 20 s run's),
with five functions wrapped in wall-clock accumulators — the kernel
(`knn_algorithm2_multiquery`), the REST descriptor parser, the executor's
request body (its `execute` less the web tier's `handle`), `stacked_matches`
and the cluster's query preparation.  Each is a cumulative time, printed
in ms a group and as a share of `WebTierBatchExecutor.execute`.  Pass the
root of another checkout to measure it instead (its own `src/` and
`perfbench/` are imported).  Run it alone, once per tree, alternating:
    OPENBLAS_NUM_THREADS=1 python docs/hostclock/serving_composition.py [ROOT] [SEED]
"""
import functools, gc, sys, time
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2])
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
from harness import Recorder
from workloads import WORKLOADS
import repro.core.kernels as kernels, repro.distributed.rest as rest
from repro.distributed import DistributedSearchSystem, WebTier
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
timed(kernels, "stacked_matches", "stacked_matches")
timed(DistributedSearchSystem, "_prepared", "query preparation")
timed(WebTier, "handle", "web tier")
timed(WebTierBatchExecutor, "execute", "group")

workload = WORKLOADS["serving_fused"]
inputs = workload.generate(seed, 0.5)
state = workload.setup(inputs)
gc.collect()
spent.clear()
recorder = Recorder(None)
workload.run(state, inputs, recorder)
groups, group = len(recorder.ops), spent["group"]
spent["executor body"] = group - spent["web tier"]
print(f"{root.name}: {groups} groups, {group / groups * 1e3:.1f} ms a group")
for label in ("kernel", "REST parse", "executor body", "stacked_matches", "query preparation"):
    print(f"  {label:18s} {spent[label] / groups * 1e3:6.2f} ms  {spent[label] / group:6.1%}")
