"""Ratio test, match counting, and result containers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Answer,
    ImageMatch,
    KnnResult,
    Sweep,
    batch_ratio_test_masks,
    match_images,
    match_images_batch,
    ratio_test_mask,
)


class TestRatioTest:
    def test_basic(self):
        d = np.array([[1.0, 3.0, 0.5], [2.0, 3.5, 2.0]])
        mask = ratio_test_mask(d, 0.8)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_zero_second_neighbour_never_passes(self):
        d = np.array([[0.0], [0.0]])
        assert not ratio_test_mask(d, 0.8)[0]

    def test_threshold_validation(self):
        d = np.ones((2, 3))
        with pytest.raises(ValueError):
            ratio_test_mask(d, 1.0)
        with pytest.raises(ValueError):
            ratio_test_mask(d, 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            ratio_test_mask(np.ones((1, 3)), 0.8)

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, threshold):
        rng = np.random.default_rng(0)
        d = np.sort(rng.random((2, 50)), axis=0)
        strict = ratio_test_mask(d, threshold / 2).sum()
        loose = ratio_test_mask(d, threshold).sum()
        assert strict <= loose


class TestMatchImages:
    def _knn(self):
        distances = np.array([[1.0, 5.0, 0.2], [2.0, 5.2, 4.0]])
        indices = np.array([[3, 1, 7], [4, 2, 8]], dtype=np.int32)
        return KnnResult(distances=distances, indices=indices)

    def test_counts(self):
        match = match_images("ref-a", self._knn(), 0.8)
        assert match.reference_id == "ref-a"
        assert match.good_matches == 2


class TestBatchMatchCounting:
    """The vectorised batch path must count exactly like the scalar one."""

    def _batch(self, seed=0, batch=7, n=24):
        rng = np.random.default_rng(seed)
        distances = np.sort(rng.random((batch, 2, n)), axis=1)
        # sprinkle exact ties and zero second-neighbours (edge cases)
        distances[0, 0, 0] = distances[0, 1, 0]
        distances[1, :, 1] = 0.0
        indices = rng.integers(0, 64, size=(batch, 2, n)).astype(np.int32)
        return distances, indices

    def test_masks_match_scalar(self):
        distances, _ = self._batch()
        masks = batch_ratio_test_masks(distances, 0.8)
        for i in range(distances.shape[0]):
            np.testing.assert_array_equal(
                masks[i], ratio_test_mask(distances[i], 0.8)
            )

    def test_masks_handle_query_group_axis(self):
        distances, _ = self._batch()
        grouped = np.stack([distances, distances * 0.5])  # (2, batch, k, n)
        masks = batch_ratio_test_masks(grouped, 0.8)
        assert masks.shape == (2, distances.shape[0], distances.shape[-1])
        np.testing.assert_array_equal(
            masks[0], batch_ratio_test_masks(distances, 0.8)
        )

    def test_counts_identical_to_match_images(self):
        distances, indices = self._batch(seed=3)
        ids = [f"r{i}" for i in range(distances.shape[0])]
        batch_matches = match_images_batch(ids, distances, 0.8)
        for i, match in enumerate(batch_matches):
            scalar = match_images(
                ids[i], KnnResult(distances[i], indices[i]), 0.8
            )
            assert match.reference_id == scalar.reference_id
            assert match.good_matches == scalar.good_matches

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_ratio_test_masks(np.ones((3, 1, 4)), 0.8)
        with pytest.raises(ValueError):
            batch_ratio_test_masks(np.ones(5), 0.8)
        with pytest.raises(ValueError):
            batch_ratio_test_masks(np.ones((3, 2, 4)), 1.0)


class TestSweepHeader:
    def test_pairs_and_throughput(self):
        group = Sweep(elapsed_us=2_000_000.0, images_searched=10).carrying([[], [], []])
        assert len(group.answers) == 3
        assert group.pairs_per_s == pytest.approx(15.0)  # pairs: every query saw every image
        assert group.images_per_s == group.answers[0].images_per_s == pytest.approx(5.0)
        assert all(answer.sweep == Sweep(elapsed_us=2_000_000.0, images_searched=10)
                   for answer in group.answers)

    def test_empty(self):
        group = Sweep()
        assert group.answers == ()
        assert group.pairs_per_s == group.images_per_s == 0.0
        assert not group.partial


class TestResultContainers:
    def test_knn_shape_check(self):
        with pytest.raises(ValueError):
            KnnResult(np.ones((2, 3)), np.ones((2, 4), np.int32))

    def test_search_result_ranking(self):
        (result,) = Sweep(elapsed_us=1000.0, images_searched=3).carrying([[
            ImageMatch("a", 3),
            ImageMatch("b", 7),
            ImageMatch("c", 7),
        ]]).answers
        top = result.top(2)
        assert [m.reference_id for m in top] == ["b", "c"]  # id tiebreak
        assert result.best().reference_id == "b"
        assert result.images_per_s == pytest.approx(3000.0)

    def test_inliers_override_score(self):
        match = ImageMatch("a", 9, inliers=2)
        assert match.score == 2

    def test_empty_result(self):
        assert Answer([], Sweep()).best() is None
        assert Answer([], Sweep()).images_per_s == 0.0
