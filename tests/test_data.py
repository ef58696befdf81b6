"""Dataset substrate: tea-brick generator, transforms, synthetic features."""

import tracemalloc

import numpy as np
import pytest

from repro.bench.experiments import table7_asymmetric
from repro.core import EngineConfig, TextureSearchEngine
from repro.data import (
    CaptureSimulator,
    FeatureModelConfig,
    QUERY_PROFILE,
    REFERENCE_PROFILE,
    SyntheticFeatureModel,
    TeaBrickGenerator,
    build_feature_dataset,
    value_noise,
)
from repro.metrics import evaluate_verification


def fresh_capture(seed, brick, side, index=0, budget=None):
    """One capture from a model that has drawn nothing else."""
    capture = SyntheticFeatureModel(seed=seed).capture(brick, side, capture_index=index)
    return capture if budget is None else capture.top(budget)


class TestTeaBrick:
    def test_deterministic_per_brick(self):
        gen = TeaBrickGenerator(size=64, seed=1)
        np.testing.assert_array_equal(gen.brick(5), gen.brick(5))

    def test_distinct_bricks(self):
        gen = TeaBrickGenerator(size=64, seed=1)
        a, b = gen.brick(0), gen.brick(1)
        assert np.abs(a - b).mean() > 0.05

    def test_range_and_dtype(self):
        img = TeaBrickGenerator(size=64).brick(0)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.shape == (64, 64)

    def test_seed_changes_texture(self):
        a = TeaBrickGenerator(size=64, seed=1).brick(0)
        b = TeaBrickGenerator(size=64, seed=2).brick(0)
        assert np.abs(a - b).mean() > 0.05

    def test_value_noise_shape_and_range(self):
        rng = np.random.default_rng(0)
        noise = value_noise((32, 48), 4, rng)
        assert noise.shape == (32, 48)
        assert 0.0 <= noise.min() and noise.max() <= 1.0

    def test_value_noise_validation(self):
        with pytest.raises(ValueError):
            value_noise((8, 8), 0, np.random.default_rng(0))

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            TeaBrickGenerator(size=8)


class TestCaptureTransforms:
    def test_reference_capture_is_mild(self):
        gen = TeaBrickGenerator(size=96, seed=3)
        img = gen.brick(0)
        cam = CaptureSimulator(REFERENCE_PROFILE)
        out = cam.capture(img, np.random.default_rng(0))
        assert out.shape == img.shape
        # industry camera: small perturbation
        assert np.abs(out - img).mean() < 0.08

    def test_query_capture_is_aggressive(self):
        gen = TeaBrickGenerator(size=96, seed=3)
        img = gen.brick(0)
        ref = CaptureSimulator(REFERENCE_PROFILE).capture(img, np.random.default_rng(1))
        qry = CaptureSimulator(QUERY_PROFILE).capture(img, np.random.default_rng(1))
        assert np.abs(qry - img).mean() > np.abs(ref - img).mean()

    def test_output_clipped(self):
        img = TeaBrickGenerator(size=96, seed=4).brick(1)
        out = CaptureSimulator(QUERY_PROFILE).capture(img, np.random.default_rng(2))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            CaptureSimulator(QUERY_PROFILE).capture(
                np.zeros((4, 4, 3), np.float32), np.random.default_rng(0)
            )


class TestSyntheticFeatures:
    @pytest.fixture(scope="class")
    def model(self):
        return SyntheticFeatureModel(seed=0)

    def test_descriptor_manifold(self, model):
        cap = model.capture(0, "reference")
        d = cap.descriptors
        assert d.shape[0] == 128
        assert (d >= 0).all()
        np.testing.assert_allclose(np.linalg.norm(d, axis=0), 512.0, rtol=1e-3)
        # clip-then-renormalise (as in Lowe/OpenCV) lets entries exceed
        # the 0.2 clip by the renormalisation factor
        assert d.max() <= 0.2 * 512 * 1.10

    def test_deterministic(self, model):
        a = model.capture(3, "query", capture_index=1)
        b = SyntheticFeatureModel(seed=0).capture(3, "query", capture_index=1)
        np.testing.assert_array_equal(a.descriptors, b.descriptors)

    def test_different_captures_differ(self, model):
        a = model.capture(3, "query", capture_index=0)
        b = model.capture(3, "query", capture_index=1)
        assert a.descriptors.shape != b.descriptors.shape or not np.array_equal(
            a.descriptors, b.descriptors
        )

    def test_reference_ranking_follows_strength(self, model):
        """Low ranking noise: reference order correlates with strength."""
        strengths, _ = model.brick_pool(1)
        cap = model.capture(1, "reference")
        observed_strengths = strengths[cap.keypoint_ids]
        # Spearman-ish: the first half should be stronger on average
        half = cap.count // 2
        assert observed_strengths[:half].mean() > observed_strengths[half:].mean()

    def test_query_ranking_noisier_than_reference(self, model):
        strengths, _ = model.brick_pool(2)
        ref = model.capture(2, "reference")
        qry = model.capture(2, "query")

        def rank_corr(cap):
            s = strengths[cap.keypoint_ids]
            return np.corrcoef(np.arange(cap.count), -s)[0, 1]

        assert rank_corr(ref) > rank_corr(qry)

    def test_top_budget(self, model):
        cap = model.capture(0, "reference")
        top = cap.top(10)
        assert top.count == 10
        np.testing.assert_array_equal(top.descriptors, cap.descriptors[:, :10])
        np.testing.assert_array_equal(top.keypoint_ids, cap.keypoint_ids[:10])

    def test_top_does_not_pin_the_capture(self, model):
        cap = model.capture(0, "reference")
        top = cap.top(10)
        assert not np.shares_memory(top.descriptors, cap.descriptors)
        assert not np.shares_memory(top.keypoint_ids, cap.keypoint_ids)

    def test_same_brick_matches_better_than_impostor(self, model):
        ref = model.capture(5, "reference").descriptors.astype(np.float64)
        qry = model.capture(5, "query").descriptors.astype(np.float64)
        imp = model.capture(6, "reference").descriptors.astype(np.float64)

        def min_dists(r, q):
            d = (r**2).sum(0)[:, None] + (q**2).sum(0)[None, :] - 2 * r.T @ q
            return np.sqrt(np.maximum(d, 0)).min(axis=0)

        assert np.median(min_dists(ref, qry)) < np.median(min_dists(imp, qry))

    def test_invalid_side(self, model):
        with pytest.raises(ValueError):
            model.capture(0, "probe")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureModelConfig(pool_size=0)
        with pytest.raises(ValueError):
            FeatureModelConfig(word_weight=1.0)
        with pytest.raises(ValueError):
            FeatureModelConfig(n_words=0)


class TestBrickPool:
    """The model holds the pool of the brick drawn last and no other."""

    def test_consecutive_captures_share_a_pool_and_older_pools_go(self):
        model = SyntheticFeatureModel(seed=0)
        strengths, canon = model.brick_pool(1)
        assert model.brick_pool(1)[1] is canon
        model.brick_pool(2)
        again = model.brick_pool(1)
        assert again[1] is not canon  # redrawn, not kept
        np.testing.assert_array_equal(again[0], strengths)
        np.testing.assert_array_equal(again[1], canon)

    @staticmethod
    def _peak_bytes(n_bricks):
        model = SyntheticFeatureModel(seed=0)
        tracemalloc.start()
        try:
            for brick in range(n_bricks):
                model.capture(brick, "reference").top(768)
                model.capture(brick, "query").top(768)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_does_not_grow_with_the_bricks_drawn(self):
        """A memo of every pool would hold 0.73 MB a brick: ~27 MB more
        over 40 bricks than over 2."""
        assert self._peak_bytes(40) - self._peak_bytes(2) < 1.5 * 2**20

    @pytest.mark.parametrize("order", ["reversed", "interleaved"])
    def test_captures_do_not_depend_on_draw_order(self, order):
        keys = [(brick, side, index) for brick in range(5)
                for side, index in (("reference", 0), ("query", 0), ("query", 1))]
        if order == "reversed":
            keys = keys[::-1]
        else:
            keys = sorted(keys, key=lambda key: (key[1], key[2], key[0]))
        model = SyntheticFeatureModel(seed=2)
        for brick, side, index in keys:
            got = model.capture(brick, side, capture_index=index)
            want = fresh_capture(2, brick, side, index)
            np.testing.assert_array_equal(got.descriptors, want.descriptors)
            np.testing.assert_array_equal(got.keypoint_ids, want.keypoint_ids)


class TestCallersDrawBrickByBrick:
    """Every caller's inputs equal per-capture draws from fresh models."""

    def test_feature_dataset(self):
        ds = build_feature_dataset(5, 40, 56, queries_per_brick=2,
                                   query_brick_fraction=0.6, seed=3)
        assert [r.brick_id for r in ds.references] == list(range(5))
        for ref in ds.references:
            want = fresh_capture(3, ref.brick_id, "reference", budget=40)
            np.testing.assert_array_equal(ref.descriptors, want.descriptors)
        expected = [(brick, index) for brick in range(3) for index in range(2)]
        assert [q.brick_id for q in ds.queries] == [brick for brick, _ in expected]
        for query, (brick, index) in zip(ds.queries, expected):
            want = fresh_capture(3, brick, "query", index, budget=56)
            np.testing.assert_array_equal(query.descriptors, want.descriptors)

    def test_verification_scores(self):
        config = EngineConfig(m=96, n=128, batch_size=8, min_matches=8, scale_factor=0.25)
        report = evaluate_verification(TextureSearchEngine(config),
                                       SyntheticFeatureModel(seed=4), n_bricks=5,
                                       impostors_per_brick=2)
        engine = TextureSearchEngine(config)
        genuine, impostor = [], []
        for brick in range(5):
            query = fresh_capture(4, brick, "query", budget=128).descriptors
            for other in (brick, (brick + 1) % 5, (brick + 2) % 5):
                reference = fresh_capture(4, other, "reference", budget=96).descriptors
                (genuine if other == brick else impostor).append(
                    engine.verify(reference, query)[1])
        np.testing.assert_array_equal(report.genuine_scores, genuine)
        np.testing.assert_array_equal(report.impostor_scores, impostor)

    def test_table7_cells(self):
        full = build_feature_dataset(4, 96, 128, seed=5)
        for m, n in [(96, 128), (64, 128), (96, 48), (32, 32)]:
            cell = table7_asymmetric._trimmed(full, m, n)
            for ref in cell.references:
                want = fresh_capture(5, ref.brick_id, "reference", budget=m)
                np.testing.assert_array_equal(ref.descriptors, want.descriptors)
                assert ref.descriptors.flags.c_contiguous
            for query in cell.queries:
                want = fresh_capture(5, query.brick_id, "query", budget=n)
                np.testing.assert_array_equal(query.descriptors, want.descriptors)
                assert query.descriptors.flags.c_contiguous


class TestDatasetBuilders:
    def test_feature_dataset_structure(self):
        ds = build_feature_dataset(5, m_reference=32, n_query=48, queries_per_brick=2)
        assert ds.n_bricks == 5
        assert len(ds.queries) == 10
        assert ds.references[0].descriptors.shape == (128, 32)
        assert ds.queries[0].descriptors.shape[1] <= 48
        assert ds.reference_ids() == [0, 1, 2, 3, 4]

    def test_query_fraction(self):
        ds = build_feature_dataset(10, 32, 32, query_brick_fraction=0.5)
        assert len(ds.queries) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            build_feature_dataset(0, 32, 32)
        with pytest.raises(ValueError):
            build_feature_dataset(5, 32, 32, query_brick_fraction=0.0)
