"""Processes against threads for the tile step, at each perfbench workload's
own tile: does a second lane pay more as a forked process than as a thread?
The tile step is what `algorithm2._knn_columns` does to one tile on the
winners-only path: up-cast the tile's FP16 references and the query
(`upcast_nonneg`), one query-major SGEMM (`np.matmul(q32.T, refs32, out=)`)
and the top-2 of every column (`functional_topk(..., 2, largest=True)`).
Tiles are `rest_fanout`'s 42 images x 128 query columns (m=96),
`serving_fused`'s 10 x 1024 (m=96, a fused group of 8) and `engine_paper`'s
3 x 768 (m=384), at d=128 — the tiles those workloads cut on two lanes.

Three configurations per shape: one lane, two threads and two forked
processes, each worker on single-threaded OpenBLAS with its own operands.
Workers warm up, meet at a barrier, and only the loop after it is timed
(fork start-up and warm-up are outside the clock); the rate is all
workers' tiles over the span from the first start to the last stop.  The
three run in alternating order for ``ROUNDS`` rounds, and the script prints
the one-lane rate and the median [q1, q3] of two ratios per round: two
threads over one lane, and two processes over two threads.  Run it alone:
    python docs/hostclock/lane_processes.py
"""
import os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads
import multiprocessing, queue, threading, time, types
import numpy as np
from repro.core.topk import functional_topk
from repro.fp16.codec import upcast_nonneg

ROUNDS = 11
D = 128
#: workload -> (images, query columns, m) of one tile
SHAPES = {"rest_fanout": (42, 128, 96), "serving_fused": (10, 1024, 96), "engine_paper": (3, 768, 384)}

def worker(shape, reps, start, spans):
    """One lane: build and warm its own operands, wait for every worker, then
    time ``reps`` tile steps; ``spans`` gets the (start, stop) of the loop."""
    images, n, m = shape
    rng = np.random.default_rng(0)
    refs = (rng.random((images, D, m), dtype=np.float32) * 0.02).astype(np.float16)
    query = (rng.random((D, n), dtype=np.float32) * 0.02).astype(np.float16)
    out = np.empty((images, n, m), np.float32)
    def step():
        refs32, q32 = upcast_nonneg(refs), upcast_nonneg(query)
        np.matmul(q32.T, refs32, out=out)
        # every (image, query feature) column contiguous: the F-ordered view the scan reads
        functional_topk(out.transpose(2, 0, 1).reshape(m, images * n), 2, largest=True)
    for _ in range(10):  # warm the BLAS and the allocator
        step()
    start.wait()
    began = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    for _ in range(reps):
        step()
    spans.put((began, time.perf_counter()))

def rate(workers, kind, shape, reps):
    """Tiles a second over all ``workers``, first start to last stop."""
    start, spans = kind.Barrier(workers), kind.Queue()
    pool = [kind.Worker(target=worker, args=(shape, reps, start, spans)) for _ in range(workers)]
    for lane in pool: lane.start()
    timed = [spans.get() for _ in pool]
    for lane in pool: lane.join()
    return workers * reps / (max(stop for _, stop in timed) - min(began for began, _ in timed))

def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.2f} [{q1:.2f}, {q3:.2f}]"

if __name__ == "__main__":
    # fork is safe here: every thread worker is joined before the next
    # configuration starts, and OpenBLAS runs on this one thread
    forked = multiprocessing.get_context("fork")
    threads = types.SimpleNamespace(Barrier=threading.Barrier, Queue=queue.Queue, Worker=threading.Thread)
    processes = types.SimpleNamespace(Barrier=forked.Barrier, Queue=forked.Queue, Worker=forked.Process)
    configs = (("1 lane", 1, threads), ("2 threads", 2, threads), ("2 processes", 2, processes))
    for name, shape in SHAPES.items():
        began = time.perf_counter()
        rate(1, threads, shape, 5)  # 15 steps with the warm-up
        reps = max(20, int(15 / (time.perf_counter() - began)))  # ~1 s a worker
        rates = {label: [] for label, _, _ in configs}
        for round_ in range(ROUNDS):
            for label, workers, kind in configs[::-1] if round_ % 2 else configs:
                rates[label].append(rate(workers, kind, shape, reps))
        one, two_threads, two_processes = (np.array(rates[label]) for label, _, _ in configs)
        print(f"{name:13s} {shape[0]:2d} x {shape[1]:4d} (m={shape[2]})  1 lane {np.median(one):6.0f} tiles/s"
              f"  threads/1 lane {spread(two_threads / one)}x"
              f"  processes/threads {spread(two_processes / two_threads)}x"
              f"  (median [q1, q3] of {ROUNDS} rounds)")
