"""Where a perfbench pass's resident memory comes from: one workload (default
`mutation_mix`; seed and length as given, default 0 and 20 s, the length
BENCHMARK.json runs), run stage by stage as `perfbench/harness.py` runs it —
import, input generation, set-up (`setup_reps` times) and the timed window.
After each stage it prints the process's resident set, the running peak (what
perfbench reports as `peak_rss_mb`), the minor page faults the stage took and
the bytes the live feature generators hold beyond their vocabulary, now and at
most since the start (the per-brick pool memo).  Then, for the window's most
frequent and its largest kernel call (`_knn_columns` as
`knn_algorithm2_multiquery` makes it), the traced peak inside one call:
replayed after the window on operands of the same shapes, under tracemalloc,
so the window itself runs untraced.  Pass the root of another checkout to
measure it instead (its own `src/` and `perfbench/` are imported).
perfbench's pinned environment is set before NumPy loads.  Run it alone, once
per tree, alternating:
    python docs/hostclock/rss_stages.py [--workload NAME] [--seconds S] [ROOT] [SEED]
"""
import argparse, collections, gc, os, resource, sys, tracemalloc, weakref
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--workload", default="mutation_mix")
parser.add_argument("--seconds", type=float, default=20.0)
parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[2])
parser.add_argument("seed", nargs="?", type=int, default=0)
args = parser.parse_args()
sys.path[:0] = [str(args.root / "perfbench"), str(args.root / "src")]
from run import PINNED_ENV
os.environ.update(PINNED_ENV)
import numpy as np
from harness import Recorder
from workloads import NOMINAL_SECONDS, WORKLOADS
from repro.core import query_batching
from repro.data import SyntheticFeatureModel

models = weakref.WeakSet()
memo_peak = 0

def held(value) -> int:
    """Bytes of the arrays in a (nested) dict, tuple or list."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(held(item) for item in value.values())
    if isinstance(value, (tuple, list)):
        return sum(held(item) for item in value)
    return 0

def memo(model) -> int:
    return sum(held(value) for name, value in vars(model).items() if name != "_words")

def tracked(inner):
    def wrapper(self, *args, **kwargs):
        global memo_peak
        models.add(self)
        try:
            return inner(self, *args, **kwargs)
        finally:
            memo_peak = max(memo_peak, memo(self))
    return wrapper

SyntheticFeatureModel.brick_pool = tracked(SyntheticFeatureModel.brick_pool)

kernel = query_batching._knn_columns
calls = collections.Counter()  # call shape -> calls: member sizes, dtypes, columns, arguments

def shaped(device, stack, columns, *args, **kwargs):
    calls[(tuple(len(refs) for refs in stack), stack[0].shape[1:], stack[0].dtype.str,
           columns.shape, columns.dtype.str, args, tuple(sorted(kwargs.items())))] += 1
    return kernel(device, stack, columns, *args, **kwargs)

query_batching._knn_columns = shaped

def kernel_peak(shape) -> int:
    """Traced peak bytes of one call of that shape, on small non-negative operands."""
    sizes, (d, m), dtype, columns, column_dtype, args, kwargs = shape
    stack = [np.full((size, d, m), 0.01, dtype=dtype) for size in sizes]
    query = np.full(columns, 0.01, dtype=column_dtype)
    tracemalloc.start()
    try:
        kernel(None, stack, query, *args, **dict(kwargs))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

faults = 0  # the import stage counts from the start of the process

def report(stage: str) -> None:
    global faults
    rss = int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    live = sum(memo(model) for model in models)
    print(f"  {stage:18s} rss {rss / 2**20:7.1f} MB  peak {usage.ru_maxrss / 2**10:7.1f} MB  "
          f"faults {usage.ru_minflt - faults:7d}  "
          f"generator memo {live / 2**20:6.1f} MB (peak {memo_peak / 2**20:6.1f} MB)")
    faults = usage.ru_minflt

workload = WORKLOADS[args.workload]
print(f"{args.root.name} {args.workload} seed {args.seed}, {args.seconds:g} s:")
report("import")
inputs = workload.generate(args.seed, args.seconds / NOMINAL_SECONDS)
report("input generation")
state = None
for _ in range(workload.setup_reps):
    state = None
    gc.collect()
    state = workload.setup(inputs)
gc.collect()
report("set-up")
calls.clear()
workload.run(state, inputs, Recorder(None))
report("timed window")
if calls:
    common = max(calls, key=calls.get)
    largest = max(calls, key=lambda shape: sum(shape[0]) * shape[3][1])
    for name, shape in (("most frequent", common), ("largest", largest)):
        print(f"  kernel call, {name}: {calls[shape]} of {sum(calls.values())} calls, "
              f"{len(shape[0])} members, {sum(shape[0])} images x {shape[3][1]} columns: "
              f"traced peak {kernel_peak(shape) / 2**20:.2f} MB")
