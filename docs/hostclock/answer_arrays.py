"""What one search's answer costs on the host outside the kernel: one engine
(fp32, m=8, n=16, the default d and batch size), one query, one thread of
BLAS, on the tree given (default: this one).
1. At 40 000 references, under cProfile: the cumulative time of the kernels'
   `stacked_matches` plus the engine sweep's `deliver` closure, against the
   whole `engine.search`; then that plus the engine's `_swept_matches`
   outside the `submit` it makes (where a tree names the slots at
   submit).
2. At 100 000 references: the bytes one held answer retains after the search
   returns (tracemalloc; what the search allocated and the answer still
   holds — the reference ids themselves are the engine's).
3. At 100 000 references: the median time of `answer.top(5)` over 21 calls.
About 0.6 GB and a minute a tree.  Run it alone, once per tree:
    python docs/hostclock/answer_arrays.py [ROOT]
"""
import cProfile, gc, os, pstats, statistics, sys, time, tracemalloc
from pathlib import Path

root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
sys.path.insert(0, str(root / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
from repro.core import EngineConfig, TextureSearchEngine

CONFIG = EngineConfig(m=8, n=16, precision="fp32")
rng = np.random.default_rng(0)
first = rng.random((CONFIG.d, CONFIG.m), dtype=np.float32)
query = np.concatenate([first + 0.01 * rng.random(first.shape, dtype=np.float32),
                        rng.random((CONFIG.d, CONFIG.n - CONFIG.m), dtype=np.float32)], axis=1)
engine = TextureSearchEngine(CONFIG)


def enrol(upto: int) -> None:
    for i in range(engine.n_references, upto):
        engine.add_reference(f"ref{i}", first if i == 0 else rng.random(first.shape, dtype=np.float32))
    engine.flush()


enrol(40_000)
engine.search(query)  # warm
profile = cProfile.Profile()
profile.enable()
answer = engine.search(query)
profile.disable()
stats = pstats.Stats(profile)
total = max(row[3] for row in stats.stats.values())
answer_path = sum(row[3] for (path, _, name), row in stats.stats.items()
                  if (name, Path(path).name) in {("stacked_matches", "kernels.py"), ("deliver", "engine.py")})
def cumulative(file: str, function: str) -> float:
    return max(row[3] for (path, _, name), row in stats.stats.items()
               if (name, Path(path).name) == (function, file))


naming = cumulative("engine.py", "_swept_matches") - cumulative("compute.py", "submit")
print(f"40k: search {total:.3f} s profiled, stacked_matches + deliver {answer_path:.3f} s "
      f"({answer_path / total:.1%}), with the naming {(answer_path + naming) / total:.1%}; "
      f"best {answer.best()}")

enrol(100_000)
del answer
engine.search(query)  # warm
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
answer = engine.search(query)
gc.collect()
held = tracemalloc.get_traced_memory()[0] - before
tracemalloc.stop()
print(f"100k: one answer retains {held / 1e6:.2f} MB ({held / 100_000:.0f} B a reference)")
times = []
for _ in range(21):
    start = time.perf_counter()
    top = answer.top(5)
    times.append(time.perf_counter() - start)
print(f"100k: top(5) {statistics.median(times) * 1e3:.2f} ms median; {top[:2]}")
