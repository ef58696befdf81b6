"""CBIR IVF-PQ baseline: k-means, PQ, index, retrieval."""

import numpy as np
import pytest

from repro.baselines import IVFPQIndex, ProductQuantizer, kmeans
from tests.conftest import make_descriptors, noisy_copy


class TestKmeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        data = np.vstack([c + rng.normal(0, 0.3, (50, 2)) for c in centers])
        out = kmeans(data.astype(np.float32), 3, seed=1)
        # every true centre has a centroid within 0.5
        for c in centers:
            assert np.min(np.linalg.norm(out - c, axis=1)) < 0.5

    def test_deterministic(self):
        data = np.random.default_rng(1).random((100, 4)).astype(np.float32)
        np.testing.assert_array_equal(kmeans(data, 5, seed=7), kmeans(data, 5, seed=7))

    def test_k_validation(self):
        data = np.random.default_rng(2).random((10, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            kmeans(data, 0)
        with pytest.raises(ValueError):
            kmeans(data, 11)
        with pytest.raises(ValueError):
            kmeans(data.ravel(), 2)


class TestProductQuantizer:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(3)
        data = rng.random((500, 32)).astype(np.float32)
        pq = ProductQuantizer(32, n_subspaces=4, n_centroids=32)
        pq.train(data, seed=0)
        codes = pq.encode(data[:50])
        assert codes.shape == (50, 4)
        assert codes.dtype == np.uint8
        # reconstruct and check error is below the data's own variance
        recon = np.concatenate(
            [pq.codebooks[s][codes[:, s]] for s in range(4)], axis=1
        )
        mse = np.mean((recon - data[:50]) ** 2)
        assert mse < np.var(data)

    def test_adc_table_consistent_with_exact(self):
        rng = np.random.default_rng(4)
        data = rng.random((300, 16)).astype(np.float32)
        pq = ProductQuantizer(16, n_subspaces=2, n_centroids=16)
        pq.train(data, seed=0)
        query = data[7]
        codes = pq.encode(data[:20])
        (table,) = pq.adc_tables(query[None, :])
        adc = table[np.arange(2)[None, :], codes].sum(axis=1)
        recon = np.concatenate([pq.codebooks[s][codes[:, s]] for s in range(2)], axis=1)
        exact = ((recon - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, exact, rtol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductQuantizer(30, n_subspaces=4)  # not divisible
        with pytest.raises(ValueError):
            ProductQuantizer(32, n_centroids=1)
        pq = ProductQuantizer(32, 4, 16)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((2, 32), np.float32))


class TestIVFPQIndex:
    @pytest.fixture(scope="class")
    def index(self):
        index = IVFPQIndex(d=128, n_lists=8, n_subspaces=8, n_centroids=16, seed=0)
        descs = {i: make_descriptors(64, seed=900 + i) for i in range(6)}
        index.train(np.hstack(list(descs.values())).T)
        for i, d in descs.items():
            index.add(f"img{i}", d)
        self_descs = descs
        return index, descs

    def test_retrieves_true_image(self, index):
        idx, descs = index
        query = noisy_copy(descs[3], 10.0, seed=91)
        votes = idx.search(query, nprobe=4)
        assert votes[0].image_id == "img3"
        assert votes[0].votes > votes[1].votes if len(votes) > 1 else True

    def test_nprobe_clamped(self, index):
        idx, descs = index
        votes = idx.search(descs[0], nprobe=1000)
        assert votes[0].image_id == "img0"

    def test_untrained_rejected(self):
        idx = IVFPQIndex(d=128)
        with pytest.raises(RuntimeError):
            idx.add("x", make_descriptors(4))
        with pytest.raises(RuntimeError):
            idx.search(make_descriptors(4))

    def test_query_dim_checked(self, index):
        idx, _ = index
        with pytest.raises(ValueError):
            idx.search(np.zeros((64, 5), np.float32))

    def test_n_images(self, index):
        idx, _ = index
        assert idx.n_images == 6


class TestKmeansDegenerate:
    """Regression: empty-cluster re-seeding used stale distances and
    could hand two empty clusters the same farthest point."""

    def test_duplicate_heavy_data_yields_distinct_centroids(self):
        # 3 distinct values, one massively duplicated: with k=3 the
        # duplicated point empties other clusters on iteration one
        data = np.array(
            [[0.0, 0.0]] * 40 + [[5.0, 5.0], [9.0, 9.0]], dtype=np.float32
        )
        out = kmeans(data, 3, seed=0)
        assert np.all(np.isfinite(out))
        # every distinct input value gets its own centroid
        for point in ([0.0, 0.0], [5.0, 5.0], [9.0, 9.0]):
            assert np.min(np.linalg.norm(out - np.array(point), axis=1)) < 1e-5
        # no two centroids collapse onto the same location
        pair_d = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=2)
        assert np.min(pair_d[~np.eye(3, dtype=bool)]) > 1.0

    def test_multiple_empty_clusters_get_distinct_seeds(self):
        # k almost as large as the number of distinct points forces
        # several empty clusters at once
        base = np.array(
            [[0.0, 0.0]] * 30 + [[8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [4.0, 4.0]],
            dtype=np.float32,
        )
        out = kmeans(base, 5, seed=3)
        pair_d = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=2)
        np.fill_diagonal(pair_d, np.inf)
        assert np.min(pair_d) > 0.5

    def test_deterministic_on_degenerate_data(self):
        data = np.array([[1.0, 1.0]] * 20 + [[2.0, 2.0]] * 2, dtype=np.float32)
        np.testing.assert_array_equal(
            kmeans(data, 3, seed=5), kmeans(data, 3, seed=5)
        )


class TestIVFPQRegressions:
    def test_train_clamps_and_updates_n_lists(self):
        """Regression: ``train`` clamped the list count internally but
        left ``self.n_lists`` at the configured value, so callers
        sizing nprobe off it silently over-probed."""
        index = IVFPQIndex(d=16, n_lists=64, n_subspaces=2, n_centroids=4)
        index.train(np.random.default_rng(0).random((10, 16)).astype(np.float32))
        assert index.n_lists == 10
        assert len(index.coarse) == 10

    def test_tied_votes_break_by_ascending_distance(self):
        """Regression: equal vote tallies ranked by insertion order, so
        identification on ties depended on enrolment sequence."""
        index = IVFPQIndex(d=8, n_lists=1, n_subspaces=2, n_centroids=8, seed=0)
        rng = np.random.default_rng(11)
        train = rng.random((64, 8)).astype(np.float32)
        index.train(train)
        # one feature per image, a two-feature query aimed one at each
        # -> both images tie at exactly 1 vote
        a, b = train[3], train[17]
        index.add("first_enrolled", a[:, None])
        index.add("second_enrolled", b[:, None])
        query = np.stack([a, b]).T
        votes = index.search(query, nprobe=1)
        assert [v.votes for v in votes] == [1, 1]
        dists = [v.total_distance for v in votes]
        assert dists == sorted(dists)

    def test_tie_order_independent_of_insertion(self):
        index_ab = IVFPQIndex(d=8, n_lists=1, n_subspaces=2, n_centroids=8, seed=0)
        index_ba = IVFPQIndex(d=8, n_lists=1, n_subspaces=2, n_centroids=8, seed=0)
        rng = np.random.default_rng(12)
        train = rng.random((64, 8)).astype(np.float32)
        index_ab.train(train)
        index_ba.train(train)
        a, b = train[5], train[9]
        index_ab.add("a", a[:, None]); index_ab.add("b", b[:, None])
        index_ba.add("b", b[:, None]); index_ba.add("a", a[:, None])
        query = np.stack([a, b]).T  # one vote each, distances break the tie
        ids_ab = [v.image_id for v in index_ab.search(query, nprobe=1)]
        ids_ba = [v.image_id for v in index_ba.search(query, nprobe=1)]
        assert ids_ab == ids_ba

    @pytest.mark.parametrize("nprobe", [1, 2, 4, 8])
    def test_batched_search_bit_identical_to_scalar(self, nprobe):
        """The vectorized multi-feature scan must reproduce the scalar
        per-feature formulation bit-for-bit (votes *and* distances)."""
        index = IVFPQIndex(d=128, n_lists=8, n_subspaces=8, n_centroids=16, seed=0)
        descs = {i: make_descriptors(48, seed=700 + i) for i in range(5)}
        index.train(np.hstack(list(descs.values())).T)
        for i, d in descs.items():
            index.add(f"img{i}", d)
        query = noisy_copy(descs[2], 10.0, seed=55)

        batched = index.search(query, nprobe=nprobe)

        # scalar reference: one search per query feature, tallied by hand
        votes: dict[str, int] = {}
        dist: dict[str, float] = {}
        for j in range(query.shape[1]):
            single = index.search(query[:, j : j + 1], nprobe=nprobe)
            best = min(single, key=lambda v: v.total_distance)
            votes[best.image_id] = votes.get(best.image_id, 0) + 1
            dist[best.image_id] = dist.get(best.image_id, 0.0) + best.total_distance
        assert {v.image_id: v.votes for v in batched} == votes
        for v in batched:
            assert v.total_distance == pytest.approx(dist[v.image_id], abs=0.0)

    def test_adc_tables_batch_size_invariant(self):
        """Regression: numpy axis reductions change summation order with
        batch shape, so the same query's ADC table differed between
        scalar and batched computation."""
        pq = ProductQuantizer(32, n_subspaces=4, n_centroids=16)
        rng = np.random.default_rng(21)
        data = rng.random((200, 32)).astype(np.float32)
        pq.train(data, seed=0)
        queries = data[:7]
        batched = pq.adc_tables(queries)
        for i in range(len(queries)):
            np.testing.assert_array_equal(batched[i], pq.adc_tables(queries[i : i + 1])[0])
