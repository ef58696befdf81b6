"""Integral images, box filters, and the SURF extractor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features import (
    BoxFilter,
    SURF_DESCRIPTOR_DIM,
    SURFConfig,
    SURFExtractor,
    box_sum,
    integral_image,
)
from repro.data import TeaBrickGenerator


class TestIntegralImage:
    def test_rectangle_sums_exact(self):
        rng = np.random.default_rng(0)
        img = rng.random((20, 30))
        ii = integral_image(img)
        assert box_sum(ii, 3, 5, 10, 12) == pytest.approx(img[3:10, 5:12].sum())
        assert box_sum(ii, 0, 0, 20, 30) == pytest.approx(img.sum())

    def test_clamping_out_of_range(self):
        img = np.ones((4, 4))
        ii = integral_image(img)
        # box extending past the border sums only the in-image part
        assert box_sum(ii, -5, -5, 2, 2) == pytest.approx(4.0)
        assert box_sum(ii, 2, 2, 100, 100) == pytest.approx(4.0)

    def test_vectorised_bounds(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        ii = integral_image(img)
        ys = np.array([0, 1])
        sums = box_sum(ii, ys, 0, ys + 2, 2)
        assert sums[0] == pytest.approx(img[0:2, 0:2].sum())
        assert sums[1] == pytest.approx(img[1:3, 0:2].sum())

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            integral_image(np.zeros((2, 2, 3)))

    @given(
        y0=st.integers(0, 10), x0=st.integers(0, 10),
        h=st.integers(1, 10), w=st.integers(1, 10), seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_box_sum_property(self, y0, x0, h, w, seed):
        img = np.random.default_rng(seed).random((20, 20))
        ii = integral_image(img)
        assert box_sum(ii, y0, x0, y0 + h, x0 + w) == pytest.approx(
            img[y0 : y0 + h, x0 : x0 + w].sum()
        )


class TestBoxFilter:
    def test_weighted_combination(self):
        img = np.ones((10, 10))
        ii = integral_image(img)
        f = BoxFilter([(0, 0, 2, 2, 1.0), (0, 0, 1, 1, -4.0)])
        out = f.apply(ii, np.array([0]), np.array([0]))
        assert out[0] == pytest.approx(4.0 - 4.0)

    def test_scaled(self):
        f = BoxFilter([(0, 0, 1, 1, 2.0)])
        g = f.scaled(3)
        assert g.boxes == [(0, 0, 3, 3, 2.0)]
        with pytest.raises(ValueError):
            f.scaled(0)

    def test_needs_boxes(self):
        with pytest.raises(ValueError):
            BoxFilter([])


class TestSURFExtractor:
    @pytest.fixture(scope="class")
    def image(self):
        return TeaBrickGenerator(size=128, seed=3).brick(0)

    @pytest.fixture(scope="class")
    def result(self, image):
        return SURFExtractor(SURFConfig(n_features=100)).extract(image)

    def test_descriptor_shape_and_norm(self, result):
        assert result.descriptors.shape[0] == SURF_DESCRIPTOR_DIM == 64
        assert result.count > 5
        np.testing.assert_allclose(
            np.linalg.norm(result.descriptors, axis=0), 512.0, rtol=1e-4
        )

    def test_response_ranked(self, result):
        responses = [k.response for k in result.keypoints]
        assert responses == sorted(responses, reverse=True)

    def test_budget(self, image):
        res = SURFExtractor(SURFConfig(n_features=5)).extract(image)
        assert res.count <= 5

    def test_translation_matching(self, image, result):
        shifted = np.roll(image, 4, axis=1)
        res2 = SURFExtractor(SURFConfig(n_features=100)).extract(shifted)
        d1 = result.descriptors.astype(np.float64)
        d2 = res2.descriptors.astype(np.float64)
        dist = (d1**2).sum(0)[:, None] + (d2**2).sum(0)[None, :] - 2 * d1.T @ d2
        nn = np.sqrt(np.maximum(dist.min(axis=1), 0))
        assert np.median(nn) < 0.25 * 512

    def test_discriminates_bricks(self, image, result):
        other = TeaBrickGenerator(size=128, seed=3).brick(1)
        res_other = SURFExtractor(SURFConfig(n_features=100)).extract(other)
        d1 = result.descriptors.astype(np.float64)
        same = SURFExtractor(SURFConfig(n_features=100)).extract(np.roll(image, 2, axis=0))
        d_same = same.descriptors.astype(np.float64)
        d_other = res_other.descriptors.astype(np.float64)

        def med_nn(a, b):
            d = (a**2).sum(0)[:, None] + (b**2).sum(0)[None, :] - 2 * a.T @ b
            return np.median(np.sqrt(np.maximum(d.min(axis=0), 0)))

        assert med_nn(d_same, d1) < med_nn(d_other, d1)

    def test_flat_image_no_features(self):
        res = SURFExtractor().extract(np.full((96, 96), 0.5, np.float32))
        assert res.count == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SURFConfig(n_features=0)
        with pytest.raises(ValueError):
            SURFConfig(n_scales=1)
        with pytest.raises(ValueError):
            SURFExtractor().extract(np.zeros((64, 64), np.float32), n_features=0)

    def test_engine_integration_d64(self, image):
        """The whole engine stack runs at d=64 with SURF features."""
        from repro.core import EngineConfig, TextureSearchEngine

        extractor = SURFExtractor(SURFConfig(n_features=48))
        engine = TextureSearchEngine(
            EngineConfig(d=64, m=48, n=48, batch_size=2, min_matches=4,
                         scale_factor=0.25, normalization="l2")
        )
        gen = TeaBrickGenerator(size=128, seed=3)
        for brick in range(4):
            res = extractor.extract(gen.brick(brick))
            engine.add_reference(f"b{brick}", res.descriptors)
        engine.flush()
        query = extractor.extract(np.roll(gen.brick(2), 3, axis=0))
        found = engine.search(query.descriptors)
        assert found.best().reference_id == "b2"
