"""What a second host thread buys on one tile, the measurement behind host
tile lanes (docs/architecture.md, "Host tile lanes"): aggregate rate of one
worker, two threads and two processes, each on single-threaded OpenBLAS, for
the bare SGEMM of one service-scale tile and for the whole tile step
(product -> FP16 epilogue -> top-2).  Every worker runs on one lane: it sees
one usable CPU (``algorithm2._usable_cpus``), so its 12-image calls are one
tile and never reach the kernel's own lane pool; "1 thread" is one lane, and
the two-worker columns are two.  Workers set up and warm up, meet at a
barrier, and only the loop after it is timed, so process start-up is not
counted.  Each measurement is repeated ``ROUNDS`` times, the three
configurations in alternating order, and the script prints the median of
the one-worker rate and the median and quartiles of each two-worker ratio.
Run it alone:
    PYTHONPATH=src python docs/hostclock/stream_scaling.py
"""
import os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads
import multiprocessing, threading, time
import numpy as np
from repro.core import algorithm2, knn_algorithm2_multiquery

ROUNDS = 5

def tiles(whole_step, reps, start, spans):
    """One worker: set up and warm, wait for every worker, then time ``reps``
    calls; ``spans`` gets the (start, stop) of the timed loop."""
    algorithm2._usable_cpus = lambda: 1  # one lane; a spawned process sets it for itself
    rng = np.random.default_rng(0)
    refs = (rng.random((12, 128, 96), dtype=np.float32) * 0.02).astype(np.float16)
    query = (rng.random((1, 128, 128), dtype=np.float32) * 0.02).astype(np.float16)
    a32, b32, out = refs.astype(np.float32), query[0].astype(np.float32), np.empty((12, 128, 96), np.float32)
    def call():
        if whole_step:
            knn_algorithm2_multiquery(None, refs, query, scale=0.25)
        else:
            np.matmul(b32.T, a32, out=out)  # query_major_product
    for _ in range(20):  # warm the BLAS and the allocator
        call()
    start.wait()
    began = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    for _ in range(reps):
        call()
    spans.put((began, time.perf_counter()))

def rate(workers, kind, whole_step, reps):
    """Tiles a second over all ``workers``, from the first worker's start
    to the last one's finish; start-up and warm-up are outside it."""
    start, spans = kind.Barrier(workers), kind.Queue()
    pool = [kind.Worker(target=tiles, args=(whole_step, reps, start, spans)) for _ in range(workers)]
    for worker in pool: worker.start()
    timed = [spans.get() for _ in pool]
    for worker in pool: worker.join()
    return workers * reps / (max(stop for _, stop in timed) - min(began for began, _ in timed))

def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.2f} [{q1:.2f}, {q3:.2f}]"

if __name__ == "__main__":
    import queue, types
    spawned = multiprocessing.get_context("spawn")
    threads = types.SimpleNamespace(Barrier=threading.Barrier, Queue=queue.Queue, Worker=threading.Thread)
    processes = types.SimpleNamespace(Barrier=spawned.Barrier, Queue=spawned.Queue, Worker=spawned.Process)
    configs = (("1 thread", 1, threads), ("2 threads", 2, threads), ("2 processes", 2, processes))
    for whole_step, reps in ((False, 6000), (True, 1500)):  # ~2-3 s a worker
        rates = {name: [] for name, _, _ in configs}
        for round_ in range(ROUNDS):
            for name, workers, kind in configs[::-1] if round_ % 2 else configs:
                rates[name].append(rate(workers, kind, whole_step, reps))
        one = np.array(rates["1 thread"])
        print(f"{'tile step' if whole_step else 'sgemm    '}  1 thread {np.median(one):6.0f} tiles/s"
              f"  2 threads {spread(np.array(rates['2 threads']) / one)}x"
              f"  2 processes {spread(np.array(rates['2 processes']) / one)}x"
              f"  (median [q1, q3] of {ROUNDS} rounds)")
