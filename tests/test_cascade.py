"""Cascade-hashing prefilter backend: verdict parity with the exact
pipelines, short-circuiting of fully-pruned batches, and honest hybrid
cache accounting for the packed signature codes (ISSUE 8)."""

import numpy as np
import pytest

from repro.cache import HybridFeatureCache
from repro.core import EngineConfig, TextureSearchEngine
from repro.core.batching import BatchBuilder
from repro.core.cascade import CascadeKernel
from repro.features.binarize import words_for_bits
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy

pytestmark = pytest.mark.cascade

M = N = 48
BATCH = 4
SIGMA = 8.0


def cfg(**kwargs):
    defaults = dict(
        m=M, n=N, batch_size=BATCH, min_matches=5,
        backend="cascade", precision="fp32",
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def build_engine(config=None, **kernel_kwargs):
    config = config or cfg()
    kernel = CascadeKernel(config, **kernel_kwargs) if kernel_kwargs else None
    return TextureSearchEngine(config, kernel=kernel)


def enrolled(engine, count=12):
    descs = {i: make_descriptors(M, seed=7000 + i) for i in range(count)}
    for i, d in descs.items():
        engine.add_reference(f"ref{i}", d)
    engine.flush()
    return descs


class TestPrefilterBehaviour:
    def test_matched_query_verdict_parity_with_algorithm1(self):
        cascade = build_engine()
        descs = enrolled(cascade)
        exact = TextureSearchEngine(cfg(backend="algorithm1"))
        for i, d in descs.items():
            exact.add_reference(f"ref{i}", d)
        exact.flush()
        query = noisy_copy(descs[3], SIGMA)
        cas, ref = cascade.search(query), exact.search(query)
        assert cas.best().reference_id == ref.best().reference_id == "ref3"
        assert cas.best().good_matches == ref.best().good_matches
        # the prune actually fired: most non-matching images skipped GEMM
        assert cas.cascade_pruned >= 0.9 * len(descs)
        # prefilter-examined images still count as searched
        assert cas.images_searched == ref.images_searched == len(descs)

    def test_impostor_fully_pruned_and_short_circuited(self):
        engine = build_engine()
        descs = enrolled(engine)
        impostor = make_descriptors(N, seed=9999)
        result = engine.search(impostor)
        assert result.cascade_pruned == len(descs)
        assert all(m.good_matches == 0 for m in result.matches)
        assert result.best().score == 0
        # the engine-level counter tracks the prune
        assert (
            engine.obs.registry.value("repro_engine_cascade_pruned_total")
            == len(descs)
        )

    def test_pruned_sweep_cheaper_than_exact(self):
        config = cfg()
        cascade = build_engine(config)
        exact = TextureSearchEngine(cfg(backend="algorithm1"))
        for i, d in enrolled(cascade).items():
            exact.add_reference(f"ref{i}", d)
        exact.flush()
        impostor = make_descriptors(N, seed=4242)
        assert cascade.search(impostor).elapsed_us < exact.search(impostor).elapsed_us

    def test_verify_parity(self):
        engine = build_engine()
        ref = make_descriptors(M, seed=7001)
        ok, good = engine.verify(ref, noisy_copy(ref, SIGMA))
        assert ok and good >= engine.config.min_matches
        bad, none = engine.verify(ref, make_descriptors(N, seed=31337))
        assert not bad and none == 0

    def test_registry_constructed_backend(self):
        engine = TextureSearchEngine(cfg())
        assert engine.backend == "cascade"
        assert engine.kernel.has_prefilter and engine.kernel.needs_aux

    def test_knob_validation(self):
        config = cfg()
        with pytest.raises(ValueError, match="coarse_words"):
            CascadeKernel(config, n_bits=64, coarse_words=2)
        with pytest.raises(ValueError, match="coarse_threshold"):
            CascadeKernel(config, coarse_threshold=65)
        with pytest.raises(ValueError, match="fine_threshold"):
            CascadeKernel(config, fine_threshold=129)
        with pytest.raises(ValueError, match="min_hits"):
            CascadeKernel(config, min_hits=0)

    def test_zero_padded_columns_never_match(self):
        """The validity word: zero-padded columns must not survive."""
        engine = build_engine()
        sparse = make_descriptors(M, seed=55)
        sparse[:, M // 2:] = 0.0  # half the reference is padding
        engine.add_reference("sparse", sparse)
        engine.flush()
        probe = make_descriptors(N, seed=56)
        probe[:, N // 2:] = 0.0  # half the query is padding too
        result = engine.search(probe)
        assert result.cascade_pruned == 1
        assert result.best().score == 0


class TestDistributedStats:
    def test_cluster_aggregates_cascade_pruned_and_reports_stats(self):
        from repro.distributed import DistributedSearchSystem

        system = DistributedSearchSystem(n_nodes=2, engine_config=cfg())
        descs = {i: make_descriptors(M, seed=8800 + i) for i in range(8)}
        for i, d in descs.items():
            system.add(f"ref{i}", d)
        result = system.search(make_descriptors(N, seed=12345))
        assert result.cascade_pruned == len(descs)
        hit = system.search(noisy_copy(descs[2], SIGMA))
        assert hit.best().reference_id == "ref2"
        assert hit.cascade_pruned < len(descs)
        stats = system.stats()
        assert stats["schema_version"] == 8
        assert stats["cascade"]["enabled"] is True
        assert (
            stats["cascade"]["images_pruned_total"]
            == result.cascade_pruned + hit.cascade_pruned
        )
        assert all(n["cascade_prefilter"] for n in stats["nodes"])

    def test_group_search_rejected_like_algorithm1(self):
        # cascade inherits Algorithm 1's single-query pipeline; the
        # engine must refuse fused groups rather than skip the prefilter
        engine = build_engine()
        enrolled(engine, count=4)
        with pytest.raises(ValueError, match="multi-query"):
            engine.search_group([make_descriptors(N, seed=1), make_descriptors(N, seed=2)])


class TestCacheAccounting:
    """Satellite: packed codes ride the hybrid cache with the batch."""

    def _batches_with_aux(self, config, kernel, count=1, size=BATCH):
        builder = BatchBuilder(
            size, config.d, config.m, keep_norms=True, keep_aux=True
        )
        batches = []
        for i in range(count * size):
            matrix, norms = kernel.prepare_reference(
                make_descriptors(config.m, seed=100 + i)
            )
            sealed = builder.add(
                i, matrix, norms,
                kernel.reference_aux(matrix),
            )
            if sealed is not None:
                batches.append(sealed)
        assert len(batches) == count
        return batches

    def _batch_with_aux(self, config, kernel, size=BATCH):
        return self._batches_with_aux(config, kernel, count=1, size=size)[0]

    def test_batch_nbytes_counts_aux(self):
        config = cfg()
        kernel = CascadeKernel(config)
        batch = self._batch_with_aux(config, kernel)
        assert batch.aux is not None
        assert batch.aux.dtype == np.uint64
        assert (
            batch.nbytes
            == batch.tensor.nbytes + batch.norms.nbytes + batch.aux.nbytes
        )

    @pytest.mark.parametrize("n_bits", [8, 64, 128, 192, 256, 512])
    def test_memory_per_image_matches_cached_bytes(self, n_bits):
        """Property: the advertised per-image footprint is exactly the
        bytes the cache accounts for, at every signature width."""
        config = cfg()
        kernel = CascadeKernel(
            config, n_bits=n_bits,
            coarse_threshold=min(16, n_bits),
            fine_threshold=min(16, n_bits),
        )
        batch = self._batch_with_aux(config, kernel)
        assert batch.nbytes == kernel.image_nbytes * batch.size
        # and the codes really occupy the advertised word count
        assert batch.aux.shape == (
            batch.size, config.m, words_for_bits(n_bits) + 1
        )

    def test_config_capacity_uses_cascade_footprint(self):
        config = cfg()
        assert (
            config.feature_matrix_bytes()
            == CascadeKernel(config).image_nbytes
            == M * 128 * 4 + M * 4 + M * (words_for_bits(128) + 1) * 8
        )

    def test_demotion_and_remove_carry_aux_bytes(self):
        config = cfg()
        kernel = CascadeKernel(config)
        batches = self._batches_with_aux(config, kernel, count=2)
        nbytes = batches[0].nbytes
        device = GPUDevice(TESLA_P100)
        cache = HybridFeatureCache(
            device, gpu_budget_bytes=nbytes, host_budget_bytes=4 * nbytes
        )
        cache.add(batches[0])
        gpu_used, host_used = cache.used_bytes
        assert (gpu_used, host_used) == (nbytes, 0)
        # second add demotes the first batch — aux bytes move with it
        cache.add(batches[1])
        gpu_used, host_used = cache.used_bytes
        assert (gpu_used, host_used) == (nbytes, nbytes)
        demoted = next(iter(cache.batches()))
        assert demoted.batch.aux is not None
        # removal credits the full footprint, codes included
        assert cache.remove(batches[0].batch_id)
        assert cache.remove(batches[1].batch_id)
        assert cache.used_bytes == (0, 0)
        assert device.memory.used_bytes == 0

    def test_engine_eviction_drops_codes_with_the_batch(self):
        """Enrollment delete purges a sealed batch: codes go with it."""
        engine = build_engine()
        descs = enrolled(engine, count=BATCH)  # exactly one sealed batch
        before = engine.cache.used_bytes
        assert sum(before) > 0
        for i in range(BATCH):
            engine.remove_reference(f"ref{i}")
        assert engine.cache.used_bytes == (0, 0)
        assert engine.search(noisy_copy(descs[0], SIGMA)).matches == []
