"""The product tile budget, picked by measurement: one kernel call
(`knn_algorithm2_multiquery(None, stack, queries, indices=False)`, what every
search makes) at each perfbench workload's shape, timed under each candidate
`algorithm2._PRODUCT_TILE_BYTES` in interleaved rounds inside one process, so
a pair of budgets is always taken milliseconds apart on a box whose speed
drifts.  Each round runs the budgets in a rotated order.  Per shape and budget
it prints the tile plan at this process's lane count (tiles x images a
tile), the median call time, the median and quartiles of the per-round time
ratio against 4 MiB (the budget before this tool), the traced peak of one
call (tracemalloc: the call's block and outputs) and the minor faults a call
takes.  perfbench's pinned environment is set before NumPy loads.  Run it
alone on an idle box (about a minute at 100 rounds):
    python docs/hostclock/tile_budget.py [--rounds R] [--budgets 1,1.5,2,4] [ROOT]
"""
import argparse
import os
import sys
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--rounds", type=int, default=100)
parser.add_argument("--budgets", default="1,1.5,2,4", help="MiB, comma-separated")
parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[2])
args = parser.parse_args()
sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
from run import PINNED_ENV  # perfbench/run.py's environment, in place before numpy loads

if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import resource
import tracemalloc
from time import perf_counter

import numpy as np

from repro.core import algorithm2, knn_algorithm2_multiquery

D = 128
#: name -> (member sizes, m, n, queries a call, scale): the four workloads' kernel calls
SHAPES = {
    "paper 64x384x768": ([64], 384, 768, 1, 2.0**-7),  # engine_paper: one GPU-resident batch
    "service 14 x 6": ([6] * 14, 96, 128, 1, 0.25),  # rest_fanout: one request, every shard
    "group 4 x 32, Q=8": ([32] * 4, 96, 128, 8, 0.25),  # serving_fused: a full fused group
    # mutation_mix: re-enrolments and deletes leave 1-6 image members behind
    "fragmented 150": ([1, 6, 2, 5, 3, 4, 6, 1, 2] * 5, 96, 128, 1, 0.25),
}


def operands(sizes, m, n, n_queries, scale, rng):
    """Column-normalised non-negative FP16 features, as the kernels store them."""
    unit = lambda a: (a / np.linalg.norm(a, axis=1, keepdims=True) * scale).astype(np.float16)
    stack = [unit(rng.random((size, D, m), dtype=np.float32)) for size in sizes]
    return stack, unit(rng.random((n_queries, D, n), dtype=np.float32))


def call(stack, queries, scale):
    return knn_algorithm2_multiquery(None, stack, queries, scale=scale, indices=False)


def quartiles(values):
    return np.percentile(values, [25, 50, 75])


budgets = [float(mib) for mib in args.budgets.split(",")]
lanes = algorithm2._usable_cpus()
print(f"{args.root.name}: {args.rounds} interleaved rounds, {lanes} lane(s)")
print(f"{'shape':20s} {'MiB':>4s} {'tiles':>12s} {'ms':>7s} {'ratio vs 4 MiB [q1, q3]':>25s} "
      f"{'traced MB':>9s} {'faults':>7s}")
rng = np.random.default_rng(53)
for name, (sizes, m, n, n_queries, scale) in SHAPES.items():
    stack, queries = operands(sizes, m, n, n_queries, scale, rng)
    images, image_bytes = sum(sizes), 4 * m * n * n_queries
    times = {budget: [] for budget in budgets}
    faults = dict.fromkeys(budgets, 0)
    want = None
    for round_ in range(-2, args.rounds):  # two warm-up rounds
        shift = round_ % len(budgets)
        for budget in budgets[shift:] + budgets[:shift]:
            algorithm2._PRODUCT_TILE_BYTES = int(budget * 2**20)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            began = perf_counter()
            got = call(stack, queries, scale)
            took = perf_counter() - began
            if round_ >= 0:
                times[budget].append(took)
                faults[budget] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            want = got.distances.tobytes() if want is None else want
            assert got.distances.tobytes() == want, "a budget moved a bit"
    base = np.array(times[4.0]) if 4.0 in times else None
    for budget in budgets:
        algorithm2._PRODUCT_TILE_BYTES = int(budget * 2**20)
        starts = algorithm2._tile_starts(images, image_bytes, lanes)
        plan = f"{len(starts)} x {starts.step}"
        tracemalloc.start()
        call(stack, queries, scale)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ms = np.median(times[budget]) * 1e3
        ratio = "" if base is None else "{1:.3f} [{0:.3f}, {2:.3f}]".format(
            *quartiles(np.array(times[budget]) / base))
        print(f"{name:20s} {budget:4g} {plan:>12s} {ms:7.2f} {ratio:>25s} "
              f"{peak / 1e6:9.2f} {faults[budget] / args.rounds:7.1f}")
