"""FP16 toolkit: scaled conversion, overflow, compression error, autoscale."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HalfPrecisionOverflowError
from repro.fp16 import (
    FP16_MAX,
    check_matmul_overflow,
    choose_scale_factor,
    compression_error,
    fp16_pairwise_distances,
    max_safe_scale,
    pairwise_distances,
    to_scaled_fp16,
)
from repro.fp16.error import fp16_accumulated_dot
from tests.conftest import make_descriptors, noisy_copy


class TestScaledConversion:
    def test_roundtrip_accuracy(self):
        d = make_descriptors(8, seed=0)
        scaled = to_scaled_fp16(d, 2.0**-7)
        back = scaled.unscaled()
        rel = np.abs(back - d) / np.maximum(d, 1e-3)
        assert rel.max() < 2e-3  # fp16 has ~11 bits of mantissa

    def test_element_overflow_raises(self):
        big = np.full((4, 4), 70000.0, np.float32)
        with pytest.raises(HalfPrecisionOverflowError):
            to_scaled_fp16(big, 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            to_scaled_fp16(np.ones((2, 2), np.float32), 0.0)



class TestMatmulOverflowCheck:
    def test_sift_overflow_boundary(self):
        """Table 2: scale 2^-1 overflows for 512-normalized SIFT, 2^-2 is safe."""
        d = make_descriptors(16, seed=1)
        r_half = to_scaled_fp16(d, 2.0**-1)
        with pytest.raises(HalfPrecisionOverflowError):
            check_matmul_overflow(r_half, r_half)
        r_quarter = to_scaled_fp16(d, 2.0**-2)
        check_matmul_overflow(r_quarter, r_quarter)  # no raise

    def test_mismatched_scales_rejected(self):
        d = make_descriptors(4)
        with pytest.raises(ValueError, match="scale"):
            check_matmul_overflow(to_scaled_fp16(d, 0.25), to_scaled_fp16(d, 0.5))


class TestDistances:
    def test_pairwise_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        r = rng.random((16, 5))
        q = rng.random((16, 7))
        dist = pairwise_distances(r, q)
        for i in range(5):
            for j in range(7):
                assert dist[i, j] == pytest.approx(np.linalg.norm(r[:, i] - q[:, j]))

    def test_fp16_distances_close_to_exact(self):
        d = make_descriptors(32, seed=3)
        q = noisy_copy(d, 10.0, seed=4)
        exact = pairwise_distances(d, q)
        approx = fp16_pairwise_distances(d, q, 2.0**-7)
        mask = exact > 1.0
        rel = np.abs(exact[mask] - approx[mask]) / exact[mask]
        assert rel.mean() < 0.01

    def test_fp16_distances_overflow(self):
        d = make_descriptors(8, seed=5)
        with pytest.raises(HalfPrecisionOverflowError):
            fp16_pairwise_distances(d, d, 1.0)

    def test_accumulated_dot_is_deterministic(self):
        d = (make_descriptors(8, seed=6) * np.float32(2**-7)).astype(np.float16)
        a = fp16_accumulated_dot(d, d)
        b = fp16_accumulated_dot(d, d)
        np.testing.assert_array_equal(a, b)

    def test_accumulation_noise_exceeds_final_rounding(self):
        """Sequential FP16 accumulation is noisier than rounding once at
        the end — the effect behind Table 2's 0.1% plateau."""
        d = make_descriptors(64, seed=7) * np.float32(2**-7)
        d16 = d.astype(np.float16)
        exact = d16.astype(np.float64).T @ d16.astype(np.float64)
        seq = fp16_accumulated_dot(d16, d16, round_every=1).astype(np.float64)
        once = fp16_accumulated_dot(d16, d16, round_every=128).astype(np.float64)
        err_seq = np.abs(seq - exact).mean()
        err_once = np.abs(once - exact).mean()
        assert err_seq > err_once

    @pytest.mark.parametrize("scale", [2.0**-2, 2.0**-7, 2.0**-16, 2.0**-22])
    @pytest.mark.parametrize("round_every", [1, 5, 128])
    def test_accumulated_dot_is_the_astype_round_trip(self, scale, round_every):
        """The codec's round trip is bit-equal to rounding the accumulator
        through ``astype(float16)`` after every update, on the plateau and in
        the subnormal range alike."""
        r16 = (make_descriptors(24, seed=13) * np.float32(scale)).astype(np.float16)
        q16 = (make_descriptors(20, seed=14) * np.float32(scale)).astype(np.float16)
        want = np.zeros((24, 20), np.float32)
        for start in range(0, 128, round_every):
            rows = slice(start, start + round_every)
            want += r16[rows].astype(np.float32).T @ q16[rows].astype(np.float32)
            want = want.astype(np.float16).astype(np.float32)
        got = fp16_accumulated_dot(r16, q16, round_every)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_accumulated_dot_refuses_what_the_codec_cannot_round(self):
        d = (make_descriptors(8, seed=15) * np.float32(2**-7)).astype(np.float16)
        negative_zero = d.copy()
        negative_zero[0, 0] = -0.0
        for operand in (-d, negative_zero, np.full_like(d, np.inf)):
            with pytest.raises(ValueError):
                fp16_accumulated_dot(operand, d)
        with pytest.raises(ValueError):  # every product is 200 * 200 * 128 > FP16_MAX
            fp16_accumulated_dot(np.full_like(d, 200), np.full_like(d, 200))


class TestCompressionError:
    def test_plateau_magnitude(self):
        """Error on the safe plateau is fractions of a percent (Table 2)."""
        d = make_descriptors(48, seed=8)
        q = noisy_copy(d, 15.0, seed=9)
        err = compression_error(d, q, 2.0**-7)
        assert 0.0 < err < 0.01

    def test_error_flat_on_plateau_then_rises(self):
        d = make_descriptors(48, seed=10)
        q = noisy_copy(d, 15.0, seed=11)
        plateau = [compression_error(d, q, s) for s in (2.0**-2, 2.0**-7, 2.0**-12)]
        deep = compression_error(d, q, 2.0**-16)
        assert max(plateau) / min(plateau) < 1.5  # flat
        assert deep > 2 * max(plateau)  # subnormal underflow

    def test_identical_features_excluded(self):
        d = make_descriptors(4, seed=12) * np.float32(2**-4)
        # self-distance is 0; mean must ignore those pairs, not blow up
        err = compression_error(d, d, 1.0)
        assert np.isfinite(err)


class TestAutoscale:
    def test_max_safe_scale_boundary(self):
        d = make_descriptors(16, seed=13)
        safe = max_safe_scale([d])
        # 512-normalized: sqrt(65504 / 512^2) ~= 0.4999
        assert safe == pytest.approx(np.sqrt(FP16_MAX) / 512.0, rel=1e-6)

    def test_choose_scale_reproduces_paper_practice(self):
        """Paper ships 2^-7 for 512-normalized SIFT = 5 bits of margin
        below the 2^-2 safe boundary."""
        d = make_descriptors(16, seed=14)
        result = choose_scale_factor([d], margin_bits=5)
        assert result.scale == 2.0**-7
        assert result.log2_scale == -7

    def test_empty_samples(self):
        assert max_safe_scale([np.zeros((128, 0), np.float32)]) == 1.0

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            choose_scale_factor([make_descriptors(2)], margin_bits=-1)

    @given(norm=st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=25, deadline=None)
    def test_chosen_scale_never_overflows(self, norm):
        d = make_descriptors(4, seed=15) / 512.0 * np.float32(norm)
        result = choose_scale_factor([d], margin_bits=1)
        r = to_scaled_fp16(d, result.scale)
        check_matmul_overflow(r, r)  # must not raise
