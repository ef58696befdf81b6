"""SIFT detection, orientation and descriptor properties, and DoG internals."""

import numpy as np
import pytest
from scipy import ndimage

from repro.features import (
    DESCRIPTOR_DIM,
    Keypoint,
    SIFTConfig,
    SIFTExtractor,
    assign_orientations,
    build_gaussian_pyramid,
    detect_keypoints,
    image_gradients,
    orientation_histogram,
)
from repro.features.dog import _passes_edge_test, _quadratic_fit


def texture_image(seed=0, size=160):
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.random((size, size)).astype(np.float32), 2.0)
    img -= img.min()
    return img / img.max()


@pytest.fixture(scope="module")
def extractor():
    return SIFTExtractor(SIFTConfig(n_features=300))


@pytest.fixture(scope="module")
def base_result(extractor):
    return extractor.extract(texture_image(0))


class TestDetection:
    def test_finds_keypoints_on_texture(self, base_result):
        assert base_result.count > 20

    def test_no_keypoints_on_flat_image(self):
        pyr = build_gaussian_pyramid(np.full((64, 64), 0.5, np.float32))
        assert detect_keypoints(pyr) == []

    def test_responses_positive(self):
        pyr = build_gaussian_pyramid(texture_image(1))
        kps = detect_keypoints(pyr)
        assert all(k.response > 0 for k in kps)

    def test_contrast_threshold_filters(self):
        pyr = build_gaussian_pyramid(texture_image(2))
        loose = detect_keypoints(pyr, contrast_threshold=0.01)
        strict = detect_keypoints(pyr, contrast_threshold=0.06)
        assert len(strict) < len(loose)

    def test_keypoints_inside_image(self):
        img = texture_image(3)
        pyr = build_gaussian_pyramid(img)
        for k in detect_keypoints(pyr):
            assert 0 <= k.x < img.shape[1]
            assert 0 <= k.y < img.shape[0]


class TestOrientation:
    def test_gradients_of_ramp(self):
        ramp = np.tile(np.arange(32, dtype=np.float32), (32, 1))
        mag, ang = image_gradients(ramp)
        np.testing.assert_allclose(mag[1:-1, 1:-1], 1.0, atol=1e-5)
        np.testing.assert_allclose(ang[1:-1, 1:-1], 0.0, atol=1e-5)

    def test_histogram_peak_follows_gradient_direction(self):
        # vertical ramp -> gradient points +y -> angle pi/2
        ramp = np.tile(np.arange(64, dtype=np.float32)[:, None], (1, 64))
        mag, ang = image_gradients(ramp)
        hist = orientation_histogram(mag, ang, 32.0, 32.0, sigma=2.0)
        peak_angle = (np.argmax(hist) + 0.5) / len(hist) * 2 * np.pi
        assert peak_angle == pytest.approx(np.pi / 2, abs=0.2)

    def test_multiple_orientations_capped(self):
        pyr = build_gaussian_pyramid(texture_image(4))
        kps = detect_keypoints(pyr)
        oriented = assign_orientations(pyr, kps, max_orientations=2)
        assert len(oriented) <= 2 * len(kps)
        assert len(oriented) >= len(kps) * 0.9  # most keypoints keep one


class TestDescriptors:
    def test_shape_and_norm(self, base_result):
        d = base_result.descriptors
        assert d.shape[0] == DESCRIPTOR_DIM
        norms = np.linalg.norm(d, axis=0)
        np.testing.assert_allclose(norms, 512.0, rtol=1e-4)

    def test_non_negative(self, base_result):
        assert (base_result.descriptors >= 0).all()

    def test_entries_capped(self, base_result):
        # 0.2 clip before the final renormalisation; allow renorm slack
        assert base_result.descriptors.max() <= 0.3 * 512.0

    def test_translation_matching(self, extractor, base_result):
        """Descriptors of a shifted copy match the originals closely."""
        img2 = np.roll(texture_image(0), 5, axis=0)
        res2 = extractor.extract(img2)
        d1 = base_result.descriptors.astype(np.float64)
        d2 = res2.descriptors.astype(np.float64)
        dist = (
            (d1**2).sum(0)[:, None] + (d2**2).sum(0)[None, :] - 2 * d1.T @ d2
        )
        nn = np.sqrt(np.maximum(dist.min(axis=1), 0))
        # most features find a near-exact counterpart
        assert np.median(nn) < 0.1 * 512

    def test_brightness_invariance(self, extractor, base_result):
        """Gradient normalisation makes descriptors gain-invariant; a
        global gain/offset changes which weak extrema survive detection,
        so we assert on the well-matched quartile, not the median."""
        res2 = extractor.extract(np.clip(texture_image(0) * 0.8 + 0.05, 0, 1))
        d1 = base_result.descriptors.astype(np.float64)
        d2 = res2.descriptors.astype(np.float64)
        dist = (d1**2).sum(0)[:, None] + (d2**2).sum(0)[None, :] - 2 * d1.T @ d2
        nn = np.sqrt(np.maximum(dist.min(axis=1), 0))
        assert np.quantile(nn, 0.25) < 0.15 * 512

    def test_response_ranked_output(self, base_result):
        responses = [k.response for k in base_result.keypoints]
        assert responses == sorted(responses, reverse=True)

    def test_budget_respected(self, extractor):
        res = extractor.extract(texture_image(5), n_features=10)
        assert res.count <= 10

    def test_rgb_input_accepted(self, extractor):
        rgb = np.stack([texture_image(6)] * 3, axis=-1)
        res = extractor.extract(rgb)
        assert res.count > 0

    def test_invalid_budget(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract(texture_image(7), n_features=0)


class TestKeypointHelpers:
    def test_octave_scaling(self):
        kp = Keypoint(8.0, 12.0, 3.2, 0.5, 1, 1)
        assert kp.scaled_to_octave(1) == (4.0, 6.0)

    def test_with_orientation_is_functional(self):
        kp = Keypoint(1, 2, 1.6, 0.5, 0, 1)
        kp2 = kp.with_orientation(1.0)
        assert kp.orientation == 0.0 and kp2.orientation == 1.0


class TestDogInternals:
    def test_quadratic_fit_finds_parabola_peak(self):
        """A discrete 3-D paraboloid peaked off-grid: the fit recovers
        the sub-pixel offset."""
        layers, h, w = 3, 9, 9
        dog = np.zeros((layers, h, w), dtype=np.float64)
        cy, cx, cl = 4.3, 4.2, 1.0
        for layer in range(layers):
            for y in range(h):
                for x in range(w):
                    dog[layer, y, x] = 1.0 - 0.05 * (
                        (y - cy) ** 2 + (x - cx) ** 2 + (layer - cl) ** 2
                    )
        offset, value, _h2 = _quadratic_fit(dog, 1, 4, 4)
        assert offset[0] == pytest.approx(0.2, abs=0.05)  # x
        assert offset[1] == pytest.approx(0.3, abs=0.05)  # y
        assert value == pytest.approx(1.0, abs=0.02)

    def test_edge_test_rejects_ridges(self):
        # isotropic blob: passes
        blob = np.array([[-0.5, 0.0], [0.0, -0.5]])
        assert _passes_edge_test(blob, edge_ratio=10.0)
        # strong ridge (one large, one tiny curvature): rejected
        ridge = np.array([[-1.0, 0.0], [0.0, -0.01]])
        assert not _passes_edge_test(ridge, edge_ratio=10.0)
        # saddle (negative determinant): rejected
        saddle = np.array([[-1.0, 0.0], [0.0, 0.5]])
        assert not _passes_edge_test(saddle, edge_ratio=10.0)
