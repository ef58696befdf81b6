"""Is there a faster top-2 than two argmax passes?  The selection the
winners-only epilogue makes on every tile (docs/architecture.md, "The
winners-only epilogue": ``functional_topk(tile, 2, largest=True)`` on the
unrounded, non-negative FP32 product) timed against four rewrites, at the
tile each perfbench workload's kernel call makes on two lanes:

  argmax x2     the shipped call (two argmax passes, winners masked between)
  tournament    reference-major pairwise max/min merge, log2(m) levels
  grouped       two-level: top-2 of each 16-row group, then of the 2m/16 winners
  np.sort       a full column sort, last two rows
  int32 argmax  two argmax passes on the int32 view (order-preserving for x >= 0)

Every rewrite must return the shipped call's values bit for bit; each call
runs on its own copy of the tile, made before the clock starts.  Prints the
median ms per call over ``REPS`` calls and the ratio to argmax x2.  Run it
alone:
    PYTHONPATH=src python docs/hostclock/selection_floor.py
"""
import time
import numpy as np
from repro.core.topk import functional_topk

REPS = 15
#: (workload, reference features m, tile columns = images a tile x query columns)
SHAPES = (("engine_paper", 384, 3 * 768), ("rest_fanout", 96, 42 * 128),
          ("serving_fused", 96, 10 * 8 * 128))

def argmax2(a):
    return functional_topk(a, 2, largest=True)[0]

def tournament(a):
    hi, lo = np.maximum(a[0::2], a[1::2]), np.minimum(a[0::2], a[1::2])
    while len(hi) > 1:
        odd = len(hi) % 2
        h1, h2, l1, l2 = hi[0:len(hi) - odd:2], hi[1::2], lo[0:len(lo) - odd:2], lo[1::2]
        nhi = np.maximum(h1, h2)
        nlo = np.maximum(np.minimum(h1, h2), np.maximum(l1, l2))
        if odd:  # the unpaired row carries over
            nhi, nlo = np.vstack([nhi, hi[-1:]]), np.vstack([nlo, lo[-1:]])
        hi, lo = nhi, nlo
    return np.vstack([hi, lo])

def grouped(a, g=16):
    m, cols = a.shape
    first = np.partition(a.reshape(m // g, g, cols), g - 2, axis=1)[:, g - 2:]
    won = np.partition(first.reshape(-1, cols), 2 * m // g - 2, axis=0)[-2:]
    return np.sort(won, axis=0)[::-1]

def full_sort(a):
    return np.sort(a, axis=0)[:-3:-1]

def int_argmax2(a):
    bits = a.view(np.int32)
    col = np.arange(a.shape[1])
    first = np.argmax(bits, axis=0)
    top = a[first, col]
    bits[first, col] = -1
    return np.vstack([top, a[np.argmax(bits, axis=0), col]])

METHODS = (("argmax x2", argmax2), ("tournament", tournament), ("grouped", grouped),
           ("np.sort", full_sort), ("int32 argmax", int_argmax2))

def tile(m, cols, seed=0):
    """A query-major product tile as the kernel scans it: (images, n, m)
    seen as an F-ordered (m, images * n) matrix of non-negative values."""
    rng = np.random.default_rng(seed)
    raw = (rng.random((cols, m), dtype=np.float32) * 2e-3).astype(np.float32)
    return raw.T  # each column contiguous

def median_ms(fn, base):
    copies = [np.asfortranarray(base.copy(order="F")) for _ in range(REPS)]
    times = []
    for work in copies:
        started = time.perf_counter()
        fn(work)
        times.append(time.perf_counter() - started)
    return 1e3 * float(np.median(times))

if __name__ == "__main__":
    print(f"{'workload':14s} {'tile':>12s}  " + "  ".join(f"{name:>19s}" for name, _ in METHODS))
    for workload, m, cols in SHAPES:
        base = tile(m, cols)
        want = argmax2(base.copy(order="F"))
        for name, fn in METHODS:
            assert np.array_equal(fn(base.copy(order="F")), want), name
            median_ms(fn, base)  # warm
        floor = median_ms(argmax2, base)
        cells = []
        for name, fn in METHODS:
            ms = floor if fn is argmax2 else median_ms(fn, base)
            cells.append(f"{ms:7.3f} ms ({ms / floor:4.2f}x)")
        print(f"{workload:14s} {f'{m}x{cols}':>12s}  " + "  ".join(f"{c:>19s}" for c in cells))
