"""End-to-end integration: images -> SIFT -> engine -> identification,
including geometric verification and the distributed service."""

import numpy as np
import pytest

from repro.core import AsymmetricExtractor, AsymmetricPolicy, EngineConfig, TextureSearchEngine
from repro.core.ratio_test import ratio_test_mask
from repro.data import (
    QUERY_PROFILE,
    REFERENCE_PROFILE,
    CaptureSimulator,
    TeaBrickGenerator,
    build_image_dataset,
)
from repro.distributed import DistributedSearchSystem
from repro.fp16 import pairwise_distances
from repro.geometry import ransac_verify
from repro.metrics import evaluate_top1


@pytest.fixture(scope="module")
def extractor():
    return AsymmetricExtractor(AsymmetricPolicy(m_reference=64, n_query=96))


@pytest.fixture(scope="module")
def dataset(extractor):
    return build_image_dataset(5, extractor, queries_per_brick=1, image_size=128, seed=7)


class TestImagePipeline:
    def test_dataset_shapes(self, dataset):
        assert dataset.n_bricks == 5
        assert dataset.references[0].descriptors.shape == (128, 64)
        assert dataset.queries[0].descriptors.shape == (128, 96)

    def test_identification_on_real_pipeline(self, dataset):
        """The full image pipeline identifies most query photos."""
        engine = TextureSearchEngine(
            EngineConfig(m=64, n=96, batch_size=2, min_matches=6, scale_factor=0.25)
        )
        report = evaluate_top1(engine, dataset)
        assert report.total == 5
        assert report.top1_accuracy >= 0.6  # tiny set; most must resolve

    def test_verification_separates_genuine_from_impostor(self, dataset):
        engine = TextureSearchEngine(
            EngineConfig(m=64, n=96, batch_size=2, min_matches=6, scale_factor=0.25)
        )
        ref0 = dataset.references[0].descriptors
        qry0 = dataset.queries[0].descriptors
        qry1 = dataset.queries[1].descriptors
        genuine, genuine_count = engine.verify(ref0, qry0)
        _imp, imp_count = engine.verify(ref0, qry1)
        assert genuine_count > imp_count


class TestGeometricVerification:
    def test_inliers_confirm_true_match(self, extractor):
        gen = TeaBrickGenerator(size=128, seed=11)
        canonical = gen.brick(0)
        rng = np.random.default_rng(3)
        ref_img = CaptureSimulator(REFERENCE_PROFILE).capture(canonical, rng)
        qry_img = CaptureSimulator(QUERY_PROFILE).capture(canonical, rng)
        ref = extractor.extract_with_keypoints(ref_img, budget=80)
        qry = extractor.extract_with_keypoints(qry_img, budget=80)
        if ref.count < 10 or qry.count < 10:
            pytest.skip("too few features on this synthetic draw")

        dist = pairwise_distances(ref.descriptors, qry.descriptors)
        top2 = np.sort(dist, axis=0)[:2]
        nn_idx = np.argmin(dist, axis=0)
        mask = ratio_test_mask(top2, 0.85)
        if mask.sum() < 4:
            pytest.skip("too few ratio-test matches on this draw")
        src = np.array([[ref.keypoints[nn_idx[j]].x, ref.keypoints[nn_idx[j]].y]
                        for j in np.flatnonzero(mask)])
        dst = np.array([[qry.keypoints[j].x, qry.keypoints[j].y]
                        for j in np.flatnonzero(mask)])
        result = ransac_verify(src, dst, "similarity", threshold=4.0)
        assert result.inliers >= max(4, 0.3 * mask.sum())


class TestDistributedIntegration:
    def test_cluster_identifies_across_shards(self, dataset):
        system = DistributedSearchSystem(
            2, EngineConfig(m=64, n=96, batch_size=2, min_matches=6, scale_factor=0.25)
        )
        for ref in dataset.references:
            system.add(str(ref.brick_id), ref.descriptors)
        hits = 0
        for query in dataset.queries:
            result = system.search(query.descriptors)
            best = result.best()
            if best is not None and best.reference_id == str(query.brick_id) and best.good_matches >= 6:
                hits += 1
        assert hits >= 3
