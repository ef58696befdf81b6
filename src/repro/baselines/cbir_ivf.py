"""CBIR-style IVF-PQ retrieval baseline (Faiss-like).

Sec. 2/3 of the paper argue that content-based image retrieval engines
(inverted-file indexes with product quantization, as in Faiss [12]) are
the *wrong* tool for texture identification: they pool every reference
feature into one global index and answer a single nearest-neighbour
query across all of them, losing the per-image ratio test that gives
identification its discriminative power.  This module implements that
approach from scratch — k-means coarse quantizer, product-quantized
residual codes, ADC search with ``nprobe`` lists, per-image voting — so
the accuracy gap can be *measured* (see the ablation experiments)
instead of asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["kmeans", "ProductQuantizer", "IVFPQIndex", "CbirVote"]


def kmeans(
    data: np.ndarray,
    k: int,
    iterations: int = 15,
    seed: int = 0,
) -> np.ndarray:
    """Plain Lloyd's k-means; returns ``(k, d)`` centroids.

    Deterministic (seeded k-means++ -ish spread init: random distinct
    samples).  Empty clusters are re-seeded from the farthest points.
    """
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"data must be (count, d), got {data.shape}")
    count = data.shape[0]
    if not (1 <= k <= count):
        raise ValueError(f"k={k} out of range for {count} samples")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(count, size=k, replace=False)].copy()
    sq = np.einsum("nd,nd->n", data, data)[:, None]
    for _ in range(iterations):
        # squared distances to centroids, (count, k)
        d2 = (
            sq
            - 2.0 * data @ centroids.T
            + np.einsum("kd,kd->k", centroids, centroids)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        empty = []
        for c in range(k):
            members = data[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                empty.append(c)
        if empty:
            # Re-seed from the points farthest from the *updated*
            # non-empty centroids (the pre-update distances are stale),
            # handing each empty cluster a distinct farthest point so
            # two empties can never collapse onto the same centroid.
            occupied = centroids[[c for c in range(k) if c not in empty]]
            d2_new = (
                sq
                - 2.0 * data @ occupied.T
                + np.einsum("kd,kd->k", occupied, occupied)[None, :]
            )
            far_order = np.argsort(-d2_new.min(axis=1), kind="stable")
            for rank, c in enumerate(empty):
                centroids[c] = data[int(far_order[rank])]
    return centroids


class ProductQuantizer:
    """Product quantization (Jegou et al. [10]).

    Splits ``d`` dimensions into ``n_subspaces`` contiguous blocks, each
    quantized against its own ``n_centroids``-entry codebook; a vector
    becomes ``n_subspaces`` uint8 codes.
    """

    def __init__(self, d: int, n_subspaces: int = 8, n_centroids: int = 64) -> None:
        if d % n_subspaces != 0:
            raise ValueError(f"d={d} not divisible by {n_subspaces} subspaces")
        if not (2 <= n_centroids <= 256):
            raise ValueError("n_centroids must be in [2, 256]")
        self.d = d
        self.n_subspaces = n_subspaces
        self.sub_d = d // n_subspaces
        self.n_centroids = n_centroids
        self.codebooks: np.ndarray | None = None  # (S, n_centroids, sub_d)

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    def train(self, data: np.ndarray, seed: int = 0) -> None:
        data = np.asarray(data, dtype=np.float32)
        if data.shape[1] != self.d:
            raise ValueError(f"expected (count, {self.d}) training data, got {data.shape}")
        books = []
        for s in range(self.n_subspaces):
            block = data[:, s * self.sub_d : (s + 1) * self.sub_d]
            k = min(self.n_centroids, len(block))
            books.append(kmeans(block, k, seed=seed + s))
        self.codebooks = np.stack(books)

    def encode(self, data: np.ndarray) -> np.ndarray:
        """``(count, d)`` vectors -> ``(count, S)`` uint8 codes."""
        if not self.is_trained:
            raise RuntimeError("quantizer is not trained")
        data = np.asarray(data, dtype=np.float32)
        codes = np.empty((data.shape[0], self.n_subspaces), dtype=np.uint8)
        for s in range(self.n_subspaces):
            block = data[:, s * self.sub_d : (s + 1) * self.sub_d]
            book = self.codebooks[s]
            d2 = (
                np.einsum("nd,nd->n", block, block)[:, None]
                - 2.0 * block @ book.T
                + np.einsum("kd,kd->k", book, book)[None, :]
            )
            codes[:, s] = np.argmin(d2, axis=1)
        return codes

    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """Batched ADC lookup tables: ``(count, d)`` queries ->
        ``(count, S, n_centroids)``, one asymmetric-distance table per row."""
        if not self.is_trained:
            raise RuntimeError("quantizer is not trained")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise ValueError(f"queries must be (count, {self.d}), got {queries.shape}")
        tables = np.empty(
            (queries.shape[0], self.n_subspaces, self.codebooks.shape[1]),
            dtype=np.float32,
        )
        for s in range(self.n_subspaces):
            sub = queries[:, s * self.sub_d : (s + 1) * self.sub_d]
            diff = self.codebooks[s][None, :, :] - sub[:, None, :]
            sq = diff * diff
            # Accumulate the sub-dimension axis with explicit sequential
            # adds: numpy's axis reduction picks a strategy (pairwise vs
            # sequential) based on the full array shape, so the same row
            # sums to different low bits at different batch sizes.  A
            # fixed left-to-right order keeps one query's table
            # bit-identical whether computed alone or in a batch.
            acc = sq[:, :, 0].copy()
            for j in range(1, self.sub_d):
                acc += sq[:, :, j]
            tables[:, s, :] = acc
        return tables


@dataclass
class CbirVote:
    """Per-image vote tally of a CBIR retrieval."""

    image_id: str
    votes: int
    total_distance: float


class IVFPQIndex:
    """Inverted-file index with PQ-compressed residual-free codes.

    The retrieval contract mirrors Faiss IVF-PQ at reproduction
    fidelity: coarse k-means partitioning, per-list PQ codes, ADC scan
    of ``nprobe`` lists.  Identification is then *voting*: each query
    feature's nearest indexed feature votes for its source image.
    """

    def __init__(
        self,
        d: int = 128,
        n_lists: int = 64,
        n_subspaces: int = 8,
        n_centroids: int = 64,
        seed: int = 0,
    ) -> None:
        self.d = d
        self.n_lists = n_lists
        self.seed = seed
        self.pq = ProductQuantizer(d, n_subspaces, n_centroids)
        self.coarse: np.ndarray | None = None
        self._list_codes: list[list[np.ndarray]] = []
        self._list_owners: list[list[int]] = []
        self._image_ids: list[str] = []
        #: per-list concatenated (codes, owners) pairs, rebuilt lazily
        #: after :meth:`add` — the search hot path must not re-concatenate
        #: every inverted list on every query.
        self._sealed: list[tuple[np.ndarray, np.ndarray] | None] | None = None

    @property
    def is_trained(self) -> bool:
        return self.coarse is not None and self.pq.is_trained

    @property
    def n_images(self) -> int:
        return len(self._image_ids)

    def train(self, sample_features: np.ndarray) -> None:
        """Train coarse + PQ codebooks on ``(count, d)`` sample vectors.

        When the sample is smaller than the configured list count the
        actual count is clamped — and ``self.n_lists`` updated to match,
        so callers sizing ``nprobe`` off ``index.n_lists`` see the real
        list count instead of silently over-probing.
        """
        sample = np.asarray(sample_features, dtype=np.float32)
        n_lists = min(self.n_lists, len(sample))
        self.coarse = kmeans(sample, n_lists, seed=self.seed)
        self.n_lists = n_lists
        self.pq.train(sample, seed=self.seed + 1)
        self._list_codes = [[] for _ in range(len(self.coarse))]
        self._list_owners = [[] for _ in range(len(self.coarse))]
        self._sealed = None

    def _assign_lists(self, vectors: np.ndarray) -> np.ndarray:
        d2 = (
            np.einsum("nd,nd->n", vectors, vectors)[:, None]
            - 2.0 * vectors @ self.coarse.T
            + np.einsum("kd,kd->k", self.coarse, self.coarse)[None, :]
        )
        return np.argmin(d2, axis=1)

    def add(self, image_id: str, features: np.ndarray) -> None:
        """Pool one image's ``(d, count)`` features into the global index."""
        if not self.is_trained:
            raise RuntimeError("index is not trained")
        vectors = np.ascontiguousarray(np.asarray(features, dtype=np.float32).T)
        owner = len(self._image_ids)
        self._image_ids.append(str(image_id))
        lists = self._assign_lists(vectors)
        codes = self.pq.encode(vectors)
        for lst in np.unique(lists):
            mask = lists == lst
            self._list_codes[lst].append(codes[mask])
            self._list_owners[lst].extend([owner] * int(mask.sum()))
        self._sealed = None

    def _sealed_lists(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Concatenated ``(codes, owners)`` per inverted list (cached)."""
        if self._sealed is None:
            self._sealed = [
                (np.concatenate(codes), np.asarray(owners, dtype=np.int64))
                if codes
                else None
                for codes, owners in zip(self._list_codes, self._list_owners)
            ]
        return self._sealed

    def search(self, query_features: np.ndarray, nprobe: int = 4) -> list[CbirVote]:
        """Vote tally over all images for a ``(d, n)`` query.

        The scan is vectorized list-by-list over batched ADC tables
        (the per-query Python loop of the original implementation put
        an interpreter iteration on the routing hot path); votes are
        bit-identical to the per-query formulation.  Tied tallies are
        broken by ascending total ADC distance, so identification on
        equal-vote images is deterministic instead of insertion-order.
        """
        if not self.is_trained:
            raise RuntimeError("index is not trained")
        queries = np.asarray(query_features, dtype=np.float32).T
        if queries.shape[1] != self.d:
            raise ValueError(f"query features must be ({self.d}, n)")
        nprobe = max(1, min(nprobe, len(self.coarse)))
        n_queries = queries.shape[0]
        votes = np.zeros(self.n_images, dtype=np.int64)
        dist_sum = np.zeros(self.n_images, dtype=np.float64)
        # coarse distances per query feature
        d2 = (
            np.einsum("nd,nd->n", queries, queries)[:, None]
            - 2.0 * queries @ self.coarse.T
            + np.einsum("kd,kd->k", self.coarse, self.coarse)[None, :]
        )
        probe_lists = np.argsort(d2, axis=1)[:, :nprobe]
        tables = self.pq.adc_tables(queries)
        sealed = self._sealed_lists()
        subspace_idx = np.arange(self.pq.n_subspaces)[None, :]
        best_dist = np.full(n_queries, np.inf, dtype=np.float32)
        best_owner = np.full(n_queries, -1, dtype=np.int64)
        # probe rank of each query's current best — on exact distance
        # ties the earlier-probed (closer) list wins, matching the
        # sequential probe order of the scalar formulation.
        best_rank = np.full(n_queries, np.iinfo(np.int64).max, dtype=np.int64)
        for lst in np.unique(probe_lists):
            entry = sealed[lst]
            if entry is None:
                continue
            codes, owners = entry
            hit = probe_lists == lst  # (n_queries, nprobe)
            q_sel = np.nonzero(hit.any(axis=1))[0]
            ranks = np.argmax(hit[q_sel], axis=1)
            # ADC: sum table entries along subspaces, all queries probing
            # this list at once -> (len(q_sel), list_len).  Sequential
            # accumulation for the same batch-size-invariance reason as
            # in :meth:`ProductQuantizer.adc_tables`.
            looked = tables[q_sel][:, subspace_idx, codes]
            dists = looked[:, :, 0].copy()
            for j in range(1, looked.shape[2]):
                dists += looked[:, :, j]
            idx = np.argmin(dists, axis=1)
            d_best = dists[np.arange(len(q_sel)), idx]
            better = (d_best < best_dist[q_sel]) | (
                (d_best == best_dist[q_sel]) & (ranks < best_rank[q_sel])
            )
            chosen = q_sel[better]
            best_dist[chosen] = d_best[better]
            best_owner[chosen] = owners[idx[better]]
            best_rank[chosen] = ranks[better]
        found = np.nonzero(best_owner >= 0)[0]
        np.add.at(votes, best_owner[found], 1)
        np.add.at(dist_sum, best_owner[found], best_dist[found].astype(np.float64))
        # most votes first; equal tallies ordered by ascending total
        # distance (lexsort is stable, so full ties keep insertion order)
        order = np.lexsort((dist_sum, -votes))
        return [
            CbirVote(self._image_ids[i], int(votes[i]), float(dist_sum[i]))
            for i in order
            if votes[i] > 0
        ]
