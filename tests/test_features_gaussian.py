"""Gaussian filtering and pyramid construction."""

import numpy as np
import pytest
from scipy import ndimage

from repro.features import build_gaussian_pyramid, gaussian_blur, gaussian_kernel1d


class TestKernel:
    def test_normalised(self):
        k = gaussian_kernel1d(1.6)
        assert k.sum() == pytest.approx(1.0, abs=1e-6)

    def test_symmetric(self):
        k = gaussian_kernel1d(2.0)
        np.testing.assert_allclose(k, k[::-1])

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel1d(0.0)

    def test_radius_override(self):
        assert len(gaussian_kernel1d(1.0, radius=3)) == 7


class TestBlur:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        img = rng.random((40, 56)).astype(np.float32)
        ours = gaussian_blur(img, 2.0)
        ref = ndimage.gaussian_filter(img, 2.0, mode="mirror", truncate=4.0)
        np.testing.assert_allclose(ours, ref, atol=1e-4)

    def test_preserves_mean_roughly(self):
        rng = np.random.default_rng(1)
        img = rng.random((64, 64)).astype(np.float32)
        blurred = gaussian_blur(img, 3.0)
        assert blurred.mean() == pytest.approx(img.mean(), rel=0.02)

    def test_constant_image_fixed_point(self):
        img = np.full((32, 32), 0.7, np.float32)
        np.testing.assert_allclose(gaussian_blur(img, 1.6), 0.7, atol=1e-5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((4, 4, 3), np.float32), 1.0)


class TestPyramid:
    def test_octave_structure(self):
        img = np.random.default_rng(2).random((128, 128)).astype(np.float32)
        pyr = build_gaussian_pyramid(img, intervals=3)
        assert pyr.n_octaves >= 3
        for octave in pyr.octaves:
            assert len(octave) == 3 + 3  # intervals + 3

    def test_downsampling_between_octaves(self):
        img = np.random.default_rng(3).random((128, 128)).astype(np.float32)
        pyr = build_gaussian_pyramid(img)
        for o in range(1, pyr.n_octaves):
            assert pyr.octaves[o][0].shape[0] == pyr.octaves[o - 1][0].shape[0] // 2

    def test_blur_increases_within_octave(self):
        rng = np.random.default_rng(4)
        img = rng.random((64, 64)).astype(np.float32)
        pyr = build_gaussian_pyramid(img)
        variances = [float(level.var()) for level in pyr.octaves[0]]
        assert variances == sorted(variances, reverse=True)

    def test_min_size_stops_octaves(self):
        img = np.zeros((40, 40), np.float32)
        pyr = build_gaussian_pyramid(img, min_size=16)
        assert min(pyr.octaves[-1][0].shape) >= 16

    def test_invalid_params(self):
        img = np.zeros((32, 32), np.float32)
        with pytest.raises(ValueError):
            build_gaussian_pyramid(img, intervals=0)
        with pytest.raises(ValueError):
            build_gaussian_pyramid(img, sigma0=0.3)  # below camera blur
