"""Hypothesis properties for the multi-query kernel and FP16 blas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import batched_hgemm, hgemm
from repro.core import knn_algorithm2, knn_algorithm2_multiquery
from repro.features import rootsift
from repro.gpusim import GPUDevice, TESLA_P100


def unit_descs(count, d, seed):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    return rootsift(raw)


class TestMultiQueryProperties:
    @given(
        n_refs=st.integers(1, 4),
        n_queries=st.integers(1, 3),
        m=st.integers(2, 10),
        n=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_multiquery_equals_per_query(self, n_refs, n_queries, m, n, seed):
        device = GPUDevice(TESLA_P100)
        refs = np.stack([unit_descs(m, 16, seed + i) for i in range(n_refs)])
        queries = np.stack([unit_descs(n, 16, seed + 100 + q) for q in range(n_queries)])
        multi = knn_algorithm2_multiquery(device, refs, queries, precision="fp32")
        for q in range(n_queries):
            single = knn_algorithm2(device, refs, queries[q], precision="fp32")
            np.testing.assert_allclose(multi.distances[:, q], single.distances, atol=1e-5)
            np.testing.assert_array_equal(multi.indices[:, q], single.indices)


class TestHgemmProperties:
    @given(
        m=st.integers(1, 8), n=st.integers(1, 8), k=st.integers(1, 16),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_hgemm_close_to_fp32_for_small_values(self, m, n, k, seed):
        device = GPUDevice(TESLA_P100)
        rng = np.random.default_rng(seed)
        a = rng.random((k, m)).astype(np.float32)
        b = rng.random((k, n)).astype(np.float32)
        out, overflow = hgemm(device, a, b, transpose_a=True)
        assert not overflow
        exact = a.T @ b
        # fp16 inputs: relative error bounded by ~k * 2^-10
        np.testing.assert_allclose(out, exact, rtol=2e-3 * max(k, 4), atol=1e-3)

    @given(batch=st.integers(1, 5), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_batched_equals_loop(self, batch, seed):
        device = GPUDevice(TESLA_P100)
        rng = np.random.default_rng(seed)
        refs = rng.random((batch, 8, 6)).astype(np.float32)
        q = rng.random((8, 4)).astype(np.float32)
        fused, _ = batched_hgemm(device, refs, q)
        for i in range(batch):
            single, _ = hgemm(device, refs[i], q, transpose_a=True)
            np.testing.assert_allclose(fused[i], single, atol=1e-4, rtol=1e-3)
