"""Is the second CPU free?  Run before every A/B pair of host-clock runs.

Times a single-threaded SGEMM loop (one service-scale tile's product, the
shape of docs/hostclock/stream_scaling.py) in one process alone, then in two
processes at once, and prints the aggregate scaling.  On an idle 2-CPU box it
reads ~2.0x; a neighbour on the other CPU pulls it toward 1.0x.  A pair taken
below 1.5x measures the neighbour as much as the change: label it as such in
EXPERIMENTS.md rather than averaging it in.
    python docs/hostclock/contention_probe.py [--seconds 2]
The last line is machine-readable: ``scaling=<x> contended=<yes|no>``.
"""
import os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads
import argparse, multiprocessing, time
import numpy as np

CONTENDED_BELOW = 1.5

def sgemm_rate(seconds, ready, rates, slot):
    rng = np.random.default_rng(slot)
    refs, query = rng.random((12, 128, 96), dtype=np.float32), rng.random((128, 128), dtype=np.float32)
    out = np.empty((12, 128, 96), np.float32)
    for _ in range(50):  # warm the BLAS and the allocator
        np.matmul(query.T, refs, out=out)
    ready.wait()  # every worker starts its clock together
    done, until = 0, time.perf_counter() + seconds
    while time.perf_counter() < until:
        np.matmul(query.T, refs, out=out)
        done += 1
    rates[slot] = done / seconds

def aggregate(workers, seconds):
    spawn = multiprocessing.get_context("spawn")
    ready, rates = spawn.Barrier(workers), spawn.Array("d", workers)
    pool = [spawn.Process(target=sgemm_rate, args=(seconds, ready, rates, i)) for i in range(workers)]
    for worker in pool: worker.start()
    for worker in pool: worker.join()
    return sum(rates)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0, help="timed seconds per measurement")
    args = parser.parse_args()
    one = aggregate(1, args.seconds)
    scaling = round(aggregate(2, args.seconds) / one, 2)  # judged as printed
    print(f"sgemm  1 process {one:6.0f} tiles/s  2 processes {scaling:.2f}x")
    print(f"scaling={scaling:.2f} contended={'yes' if scaling < CONTENDED_BELOW else 'no'}")
