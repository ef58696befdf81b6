"""Baseline matchers adapted to the engine's :class:`MatchKernel` seam.

The paper benchmarks its engine against three external systems — the
OpenCV CUDA matcher, the Garcia et al. cuBLAS KNN, and LSH descriptor
compression.  Historically those lived in bespoke benchmark scripts;
these adapters wrap them as match kernels so they run through the real
:class:`~repro.core.engine.TextureSearchEngine` — same hybrid cache,
same tombstones, same stats and profile reports — and the comparison
in ``bench`` is apples to apples.

Functional results stay exact where the underlying math is exact: the
OpenCV and Garcia kernels compute the same FP32 2-NN as Algorithm 1,
so match counts are bit-identical; only their *cost models* differ.
The LSH kernel is approximate by design (Hamming candidate filtering),
converging to brute force as ``n_candidates`` approaches ``m``.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import Algorithm1Kernel, MatchKernel, PreparedQuery
from ..core.ratio_test import match_images
from ..core.results import KnnResult
from ..features.selection import pad_or_trim
from .lsh import LshCodec
from .opencv_cuda import opencv_knn_match

__all__ = ["GarciaKernel", "LshKernel", "OpenCVKernel"]


class GarciaKernel(Algorithm1Kernel):
    """Garcia et al. [9]: Algorithm 1 with the original modified
    insertion sort (Table 1, column 2).

    Identical math and memory layout to :class:`Algorithm1Kernel`; the
    configured ``sort_kind`` is overridden, which only changes the
    simulated sort cost (67 % of the pipeline on the P100 profile that
    motivated the paper's register scan).
    """

    name = "garcia"

    def describe(self) -> str:
        return "(Garcia [9])"

    def _sort_kind(self) -> str:
        return "insertion"


class OpenCVKernel(MatchKernel):
    """OpenCV CUDA ``knnMatch`` baseline (Table 1, column 1).

    Raw FP32 descriptors, per-pair distance kernel without GEMM reuse,
    general-k insertion-sort selection.  Produces the same 2-NN results
    as Algorithm 1 in FP32; the cost model is the library's (~4 %
    compute utilisation on a P100).
    """

    name = "opencv"
    needs_norms = False
    supports_multiquery = False

    def describe(self) -> str:
        return "(OpenCV CUDA)"

    @classmethod
    def validate_config(cls, config) -> None:
        if config.precision != "fp32":
            raise ValueError(
                "backend 'opencv' models the library's FP32 matcher; "
                "set precision='fp32'"
            )

    def prepare_reference(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.m), None

    def query_matrix(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.n)

    def match_batch(self, device, batch, query, keep_masks=False, survivors=None):
        cfg = self.config
        matches = []
        for i in range(batch.size):
            knn = opencv_knn_match(device, batch.tensor[i], query.matrix, k=cfg.k)
            device.cpu_postprocess(1, "fp32", cfg.n)
            matches.append(match_images(batch.ids[i], knn, cfg.ratio_threshold, keep_masks))
        return matches


class LshKernel(MatchKernel):
    """Kusamura et al. LSH compression baseline (related work [15]).

    References are cached as FP32 matrices (so the hybrid cache and
    tombstones behave normally) and hashed on first contact with a
    sweep; queries carry their hash codes in ``PreparedQuery.aux``.
    Matching filters candidates in Hamming space and re-ranks exactly,
    so with ``n_candidates >= m`` the results equal FP32 brute force.

    ``n_bits``/``n_candidates``/``seed`` are kernel parameters, not
    engine knobs — pass a configured instance to
    ``TextureSearchEngine(config, kernel=LshKernel(config, ...))`` to
    override the defaults.
    """

    name = "lsh"
    needs_norms = False
    supports_multiquery = False

    def __init__(self, config, n_bits: int = 256, n_candidates: int = 16, seed: int = 0) -> None:
        super().__init__(config)
        if n_candidates < 2:
            raise ValueError("need at least 2 candidates for the ratio test")
        self.codec = LshCodec(d=config.d, n_bits=n_bits, seed=seed)
        self.n_candidates = int(n_candidates)
        #: per-batch reference codes, keyed by batch id (batches are
        #: immutable; transient verify batches use negative ids and are
        #: never memoised).
        self._ref_codes: dict[tuple[int, int], np.ndarray] = {}

    def describe(self) -> str:
        return f"(LSH {self.codec.n_bits}b/{self.n_candidates}c)"

    @classmethod
    def validate_config(cls, config) -> None:
        if config.precision != "fp32":
            raise ValueError(
                "backend 'lsh' re-ranks in FP32; set precision='fp32' "
                "(the compression lives in the hash codes, not the cache)"
            )

    @classmethod
    def memory_per_image(cls, config, m=None) -> int:
        rows = config.m if m is None else int(m)
        # FP32 re-rank matrix + packed signature words (256 bits -> 32 B)
        return rows * config.d * 4 + rows * ((256 + 63) // 64) * 8

    def prepare_reference(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.m), None

    def query_matrix(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.n)

    def prepare_query(self, device, query):
        matrix = self.engine_matrix(query)
        return PreparedQuery(matrix=matrix, aux=self.codec.encode(matrix))

    def _codes_for(self, batch, index: int) -> np.ndarray:
        key = (batch.batch_id, index)
        if batch.batch_id < 0:
            return self.codec.encode(batch.tensor[index])
        codes = self._ref_codes.get(key)
        if codes is None:
            codes = self.codec.encode(batch.tensor[index])
            self._ref_codes[key] = codes
        return codes

    def match_batch(self, device, batch, query, keep_masks=False, survivors=None):
        cfg = self.config
        q = query.matrix
        q_codes = query.aux if query.aux is not None else self.codec.encode(q)
        n = q.shape[1]
        matches = []
        for i in range(batch.size):
            ref = batch.tensor[i]
            m = ref.shape[1]
            codes = self._codes_for(batch, i)
            # Hamming filter: one XOR+popcount pass over all pairs.
            device.elementwise(n * m * self.codec.n_words, dtype="fp32", step="Hamming filter")
            hamming = self.codec.hamming(q_codes, codes)  # (n, m)
            k_cand = min(self.n_candidates, m)
            if k_cand < m:
                candidates = np.argpartition(hamming, k_cand - 1, axis=1)[:, :k_cand]
            else:
                candidates = np.broadcast_to(np.arange(m), (n, m)).copy()
            # Exact re-rank of the candidate set only.
            device.elementwise(2 * n * k_cand * cfg.d, dtype="fp32", step="re-rank")
            cand = ref[:, candidates]  # (d, n, k_cand)
            diff = cand - q[:, :, None]
            dists = np.sqrt(np.einsum("dnk,dnk->nk", diff, diff, optimize=True))
            order = np.argsort(dists, axis=1)[:, : cfg.k]
            top_d = np.take_along_axis(dists, order, axis=1)  # (n, k)
            top_i = np.take_along_axis(candidates, order, axis=1)
            knn = KnnResult(
                distances=np.ascontiguousarray(top_d.T.astype(np.float32)),
                indices=np.ascontiguousarray(top_i.T.astype(np.int32)),
            )
            device.d2h_result(n, batch=1, k=cfg.k, dtype="fp32")
            device.cpu_postprocess(1, "fp32", cfg.n)
            matches.append(match_images(batch.ids[i], knn, cfg.ratio_threshold, keep_masks))
        return matches
