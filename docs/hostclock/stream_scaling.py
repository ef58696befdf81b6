"""Why ROADMAP 5(a) (tiles on `EngineConfig.streams` host threads) stays parked:
aggregate rate of one worker, two threads and two processes, each on
single-threaded OpenBLAS, for the bare SGEMM of one service-scale tile and for
the whole tile step (product -> FP16 epilogue -> top-2).  Run it alone:
    PYTHONPATH=src python docs/hostclock/stream_scaling.py
"""
import os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads
import multiprocessing, threading, time
import numpy as np
from repro.core import knn_algorithm2_multiquery

def tiles(whole_step, reps):
    rng = np.random.default_rng(0)
    refs = (rng.random((12, 128, 96), dtype=np.float32) * 0.02).astype(np.float16)
    query = (rng.random((1, 128, 128), dtype=np.float32) * 0.02).astype(np.float16)
    a32, b32, out = refs.astype(np.float32), query[0].astype(np.float32), np.empty((12, 128, 96), np.float32)
    for _ in range(reps):
        if whole_step:
            knn_algorithm2_multiquery(None, refs, query, scale=0.25)
        else:
            np.matmul(b32.T, a32, out=out)  # query_major_product

def rate(workers, spawn, whole_step, reps):
    pool = [spawn(target=tiles, args=(whole_step, reps)) for _ in range(workers)]
    started = time.perf_counter()
    for worker in pool: worker.start()
    for worker in pool: worker.join()
    return workers * reps / (time.perf_counter() - started)

if __name__ == "__main__":
    process = multiprocessing.get_context("spawn").Process
    for whole_step, reps in ((False, 12000), (True, 3000)):  # ~4 s a worker: start-up is noise
        tiles(whole_step, 50)  # warm the BLAS and the allocator
        one = rate(1, threading.Thread, whole_step, reps)
        print(f"{'tile step' if whole_step else 'sgemm    '}  1 thread {one:6.0f} tiles/s"
              f"  2 threads {rate(2, threading.Thread, whole_step, reps) / one:.2f}x"
              f"  2 processes {rate(2, process, whole_step, reps) / one:.2f}x")
