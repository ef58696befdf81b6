"""Where a perfbench pass's resident memory comes from: one workload (default
`mutation_mix`; seed and length as given, default 0 and 20 s, the length
BENCHMARK.json runs), run stage by stage as `perfbench/harness.py` runs it —
import, input generation, set-up (`setup_reps` times) and the timed window.
After each stage it prints the process's resident set, the running peak (what
perfbench reports as `peak_rss_mb`) and the bytes the live feature generators
hold beyond their vocabulary, now and at most since the start (the per-brick
pool memo).  Pass the root of another checkout to measure it instead (its own
`src/` and `perfbench/` are imported).  perfbench's pinned environment is set
before NumPy loads.  Run it alone, once per tree, alternating:
    python docs/hostclock/rss_stages.py [--workload NAME] [--seconds S] [ROOT] [SEED]
"""
import argparse, gc, os, resource, sys, weakref
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

def report(stage: str) -> None:
    rss = int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    live = sum(memo(model) for model in models)
    print(f"  {stage:18s} rss {rss / 2**20:7.1f} MB  peak {peak / 2**20:7.1f} MB  "
          f"generator memo {live / 2**20:6.1f} MB (peak {memo_peak / 2**20:6.1f} MB)")

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
workload.run(state, inputs, Recorder(None))
report("timed window")
