"""The kernel's working set, ratcheted: one two-lane winners-only call
(``knn_algorithm2_multiquery(indices=False)``, what every search makes)
traces no more than the plan says it holds — per lane one workspace (a
product tile and the tile's float32 operand), the query's float32 operand
made once a call, and the outputs.  A per-tile up-cast, a crossing copy, a
per-lane copy of the query or a larger budget each push a call over it.

The two stacks are the shapes the perfbench workloads sweep: the fragmented
150 images ``mutation_mix`` leaves behind (1-6-image members, one query) and a
``serving_fused`` group (4 x 32 images, eight queries fused).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import algorithm2 as algorithm2_module
from repro.core import knn_algorithm2_multiquery

D, M, N, K = 128, 96, 128, 2
LANES = 2
SLACK = 256 * 1024  # the winners a lane selects per tile, top-k's scratch, interpreter small change

STACKS = {
    "fragmented 150": ([1, 6, 2, 5, 3, 4, 6, 1, 2] * 5, 1),
    "group 4 x 32, Q=8": ([32] * 4, 8),
}


def operands(sizes, n_queries, rng):
    """Column-normalised non-negative FP16 features, as the kernels store them."""
    unit = lambda a: (a / np.linalg.norm(a, axis=1, keepdims=True) * 0.25).astype(np.float16)
    stack = [unit(rng.random((size, D, M), dtype=np.float32)) for size in sizes]
    return stack, unit(rng.random((n_queries, D, N), dtype=np.float32))


def planned_bytes(images: int, n_queries: int) -> int:
    """What the plan holds at once: every lane's workspace, the query's operands
    (the fused group's FP16 columns and their float32 up-cast) and the outputs
    (the ``(k, columns)`` winners and their per-pair copy)."""
    columns = n_queries * N
    starts = algorithm2_module._tile_starts(images, 4 * M * columns, LANES)
    width = min(starts.step, images)
    lanes = min(LANES, len(starts))
    workspace = 4 * width * columns * M + 4 * width * D * M  # product tile + fp32 operand
    query = 4 * D * columns + (2 * D * columns if n_queries > 1 else 0)
    outputs = 2 * 4 * K * images * columns
    return lanes * workspace + query + outputs


@pytest.mark.parametrize("shape", STACKS)
def test_a_call_traces_no_more_than_its_plan(monkeypatch, shape):
    monkeypatch.setattr(algorithm2_module, "_usable_cpus", lambda: LANES)
    sizes, n_queries = STACKS[shape]
    stack, queries = operands(sizes, n_queries, np.random.default_rng(53))
    call = lambda: knn_algorithm2_multiquery(None, stack, queries, scale=0.25, indices=False)
    want = call().distances  # imports, lazy set-up, the pool's threads
    tracemalloc.start()
    try:
        got = call().distances
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < planned_bytes(sum(sizes), n_queries) + SLACK, f"{peak / 1e6:.2f} MB traced"
