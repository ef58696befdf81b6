"""GEMM layer: numerical correctness and FP16 accumulation semantics."""

import numpy as np
import pytest

from repro.blas import FP16_MAX, batched_hgemm, hgemm, sgemm
from repro.core.algorithm1 import prepare_reference, upload_query
from repro.errors import HalfPrecisionOverflowError
from tests.conftest import make_descriptors


class TestSgemm:
    def test_matches_numpy(self, p100):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 5)).astype(np.float32)
        b = rng.normal(size=(8, 7)).astype(np.float32)
        out = sgemm(p100, a, b, alpha=-2.0, transpose_a=True)
        np.testing.assert_allclose(out, -2.0 * a.T @ b, rtol=1e-6)

    def test_charges_device(self, p100):
        a = np.ones((4, 4), np.float32)
        sgemm(p100, a, a)
        assert p100.elapsed_us() > 0
        assert "GEMM" in p100.profiler.as_dict()

    def test_shape_mismatch(self, p100):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgemm(p100, np.ones((3, 4), np.float32), np.ones((5, 2), np.float32))

    def test_rejects_1d(self, p100):
        with pytest.raises(ValueError, match="2-D"):
            sgemm(p100, np.ones(4, np.float32), np.ones((4, 2), np.float32))


class TestHgemm:
    def test_quantizes_inputs(self, p100):
        a = np.full((2, 2), 1.0005, np.float32)  # rounds in fp16
        out, overflow = hgemm(p100, a, a)
        assert not overflow
        expected = a.astype(np.float16).astype(np.float32)
        np.testing.assert_allclose(out, expected.T @ expected, rtol=1e-3)

    def test_overflow_detected_nonnegative(self, p100):
        # 512-normalized SIFT: dot of a descriptor with itself is 512^2
        # = 262,144 > 65,504 -> fp16 accumulation overflows.
        d = make_descriptors(4, seed=1)
        _out, overflow = hgemm(p100, d, d, transpose_a=True)
        assert overflow

    def test_no_overflow_when_scaled(self, p100):
        d = make_descriptors(4, seed=1) * np.float32(2.0**-2)
        _out, overflow = hgemm(p100, d, d, transpose_a=True)
        assert not overflow

    def test_tensor_core_accumulates_fp32(self, v100):
        # with scale 2^-1 the self-match dot (65,536) exceeds fp16 max:
        # plain HGEMM overflows, tensor cores (fp32 accumulate) only
        # overflow on the final store — which here is also > max.
        d = make_descriptors(4, seed=1) * np.float32(2.0**-1)
        _out16, overflow16 = hgemm(v100, d, d, transpose_a=True, tensor_core=False)
        assert overflow16
        _out_tc, overflow_tc = hgemm(v100, d, d, transpose_a=True, tensor_core=True)
        assert overflow_tc  # final value 65,536 > 65,504 either way
        # scaled to 2^-2 both paths are clean
        d2 = d * np.float32(0.5)
        assert not hgemm(v100, d2, d2, transpose_a=True, tensor_core=True)[1]
        assert not hgemm(v100, d2, d2, transpose_a=True, tensor_core=False)[1]

    def test_mixed_sign_uses_conservative_bound(self, p100):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 150, size=(64, 4)).astype(np.float32)
        out, overflow = hgemm(p100, a, a, transpose_a=True)
        bound = np.abs(a.astype(np.float16).astype(np.float32))
        assert overflow == bool((bound.T @ bound > FP16_MAX).any())

    def test_result_clipped_to_fp16(self, p100):
        d = make_descriptors(3, seed=4)
        out, _ = hgemm(p100, d, d, transpose_a=True)
        assert np.abs(out).max() <= FP16_MAX


class TestBatchedHgemm:
    def test_matches_per_image_hgemm(self, p100):
        rng = np.random.default_rng(3)
        batch = rng.random((5, 16, 12)).astype(np.float32)
        q = rng.random((16, 9)).astype(np.float32)
        out, overflow = batched_hgemm(p100, batch, q)
        assert not overflow
        assert out.shape == (5, 12, 9)
        for i in range(5):
            single, _ = hgemm(p100, batch[i], q, transpose_a=True)
            np.testing.assert_allclose(out[i], single, rtol=1e-3, atol=1e-4)

    def test_single_gemm_call_charged(self, p100):
        batch = np.ones((8, 4, 4), np.float32)
        q = np.ones((4, 4), np.float32)
        batched_hgemm(p100, batch, q)
        assert p100.profiler.as_dict()["GEMM"] > 0
        assert p100.profiler.records()[0].calls == 1

    def test_shape_validation(self, p100):
        with pytest.raises(ValueError, match="batch, k, m"):
            batched_hgemm(p100, np.ones((4, 4), np.float32), np.ones((4, 4), np.float32))
        with pytest.raises(ValueError, match="inner-dimension"):
            batched_hgemm(p100, np.ones((2, 4, 4), np.float32), np.ones((5, 4), np.float32))

    def test_alpha_scaling(self, p100):
        batch = np.ones((2, 4, 3), np.float32)
        q = np.ones((4, 2), np.float32)
        out, _ = batched_hgemm(p100, batch, q, alpha=-2.0)
        np.testing.assert_allclose(out, -8.0)


class TestNorms:
    """Algorithm 1's steps 1-2: ``N_R`` offline at enrolment, ``N_Q`` on
    the device at query time — one computation, two callers."""

    def test_squared_norms(self, p100):
        d = make_descriptors(10, seed=5)
        reference = prepare_reference(d, "fp32")
        np.testing.assert_allclose(reference.norms, 512.0**2, rtol=1e-4)
        assert p100.elapsed_us() == 0.0  # N_R is offline
        query = upload_query(p100, reference.values, "fp32")
        np.testing.assert_array_equal(query.norms, reference.norms)
        assert p100.profiler.as_dict()["norms"] > 0  # N_Q is charged

    def test_fp16_norm_overflow(self, p100):
        d = make_descriptors(4, seed=6)
        with pytest.raises(HalfPrecisionOverflowError):  # 512^2 > fp16 max
            prepare_reference(d, "fp16", scale=1.0)
        with pytest.raises(HalfPrecisionOverflowError):
            upload_query(p100, d.astype(np.float16), "fp16", scale=1.0)

    def test_fp16_norm_ok_when_scaled(self, p100):
        d = make_descriptors(4, seed=6)
        reference = prepare_reference(d, "fp16", scale=0.25)
        # rounded to FP16 and held in it: the cache pays two bytes a norm
        assert reference.norms.dtype == np.float16
        np.testing.assert_allclose(reference.norms, (512 * 0.25) ** 2, rtol=2e-3)
        query = upload_query(p100, reference.values, "fp16", scale=0.25)
        np.testing.assert_array_equal(query.norms, reference.norms)

    def test_rejects_bad_shape(self, p100):
        with pytest.raises(ValueError):
            prepare_reference(np.ones(5, np.float32), "fp32")
