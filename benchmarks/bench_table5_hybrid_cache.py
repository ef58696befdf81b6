"""Table 5 — hybrid cache: GPU vs. host (pinned / pageable)."""

import numpy as np

from conftest import attach_summary, record_result
from repro.bench.experiments import table5_hybrid_cache
from repro.cache import HybridFeatureCache
from repro.core import BatchBuilder
from repro.gpusim import GPUDevice, TESLA_P100


def test_table5_rows(benchmark):
    result = table5_hybrid_cache.run()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark(table5_hybrid_cache.run)
    gpu = result.row_by("Cache type", "GPU memory")[1]
    pinned = result.row_by("Cache type", "Host memory w/ pinned")[1]
    pageable = result.row_by("Cache type", "Host memory w/o pinned")[1]
    assert pageable < pinned < gpu  # paper's ordering
    assert 0.35 < pinned / gpu < 0.70  # paper: 44% drop to pinned host


def test_hybrid_cache_churn(benchmark):
    """Wall-clock of enqueuing 64 batches through a two-level cache
    (eviction + demotion machinery)."""

    def churn():
        device = GPUDevice(TESLA_P100.with_memory(32 * 1024 * 1024))
        cache = HybridFeatureCache(device, gpu_budget_bytes=1024 * 1024,
                                   host_budget_bytes=512 * 1024 * 1024)
        builder = BatchBuilder(batch_size=4, d=128, m=64)
        for i in range(256):
            batch = builder.add(i, np.zeros((128, 64), np.float16))
            if batch is not None:
                cache.add(batch)
        return cache.gpu_batches, cache.host_batches

    gpu_batches, host_batches = benchmark(churn)
    assert gpu_batches > 0 and host_batches > 0
