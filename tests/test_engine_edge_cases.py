"""Engine edge cases: empty caches, degenerate inputs, stats."""

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.errors import CacheCapacityError
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, pairs

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


class TestEmptyAndDegenerate:
    def test_search_empty_engine(self):
        engine = TextureSearchEngine(CFG)
        result = engine.search(make_descriptors(32, seed=7000))
        assert pairs(result) == []
        assert result.images_searched == 0
        assert result.best() is None

    def test_zero_feature_query(self):
        engine = TextureSearchEngine(CFG)
        engine.add_reference("r0", make_descriptors(32, seed=7001))
        empty = np.zeros((128, 0), np.float32)
        result = engine.search(empty)
        # all-padding query: compared but matches nothing
        assert result.images_searched == 1
        assert result.best().good_matches == 0

    def test_single_feature_reference(self):
        engine = TextureSearchEngine(CFG)
        engine.add_reference("tiny", make_descriptors(1, seed=7002))
        result = engine.search(make_descriptors(32, seed=7003))
        assert result.images_searched == 1

    def test_flush_idempotent(self):
        engine = TextureSearchEngine(CFG)
        engine.add_reference("r0", make_descriptors(32, seed=7004))
        engine.flush()
        engine.flush()  # no-op
        assert engine.n_references == 1
        assert engine.cache.total_images == 1

    def test_duplicate_constant_descriptors(self):
        """Identical reference features: ratio test must reject (d1==d2)."""
        engine = TextureSearchEngine(CFG)
        column = make_descriptors(1, seed=7005)
        dup = np.repeat(column, 32, axis=1)
        engine.add_reference("dup", dup)
        result = engine.search(dup)
        assert result.best().good_matches == 0  # second NN is identical


class TestCapacityExhaustion:
    def test_engine_raises_when_both_levels_full(self):
        device = GPUDevice(TESLA_P100.with_memory(2 * CFG.batch_size * CFG.feature_matrix_bytes()))
        engine = TextureSearchEngine(
            CFG, device=device,
            gpu_cache_bytes=CFG.batch_size * CFG.feature_matrix_bytes(),
            host_cache_bytes=CFG.batch_size * CFG.feature_matrix_bytes(),
        )
        # 2 batches fit (1 GPU + 1 host); the 3rd must raise
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=7100 + i))
        with pytest.raises(CacheCapacityError):
            for i in range(4, 8):
                engine.add_reference(f"r{i}", make_descriptors(32, seed=7100 + i))


class TestStats:
    def test_stats_accumulate_across_searches(self):
        engine = TextureSearchEngine(CFG)
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=7200 + i))
        for s in range(3):
            engine.search(make_descriptors(32, seed=7300 + s))
        assert engine.stats.searches == 3
        assert engine.stats.images_compared == 12
        assert engine.stats.references == 4
        assert engine.stats.total_search_us > 0
        assert engine.stats.step_times_us  # per-step accumulation

    def test_empty_stats(self):
        engine = TextureSearchEngine(CFG)
        assert engine.stats.mean_throughput_images_per_s == 0.0
