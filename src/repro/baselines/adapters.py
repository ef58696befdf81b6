"""Baseline matchers adapted to the engine's :class:`MatchKernel` seam.

The paper benchmarks its engine against three external systems — the
OpenCV CUDA matcher, the Garcia et al. cuBLAS KNN, and LSH descriptor
compression.  Historically those lived in bespoke benchmark scripts;
these adapters wrap them as match kernels so they run through the real
:class:`~repro.core.engine.TextureSearchEngine` — same hybrid cache,
same tombstones, same stats and profile reports — and the comparison
in ``bench`` is apples to apples.

The OpenCV and Garcia kernels are :class:`Algorithm1Kernel`s, so their
matches are Algorithm 1's bit for bit; only their *cost models* differ.
The LSH kernel is approximate by design (Hamming candidate filtering),
converging to brute force as ``n_candidates`` approaches ``m``, and the
one kernel that compares image by image.
"""

from __future__ import annotations

import numpy as np

from ..core.algorithm1 import prepare_reference
from ..core.batching import ReferenceBatch
from ..core.kernels import NEIGHBOURS, Algorithm1Kernel, MatchKernel, PreparedQuery, stacked_matches
from ..core.query_batching import MultiQueryResult
from ..core.results import KnnResult
from ..features.binarize import LshCodec, hamming_distances
from ..features.selection import pad_or_trim
from ..gpusim.kernels import d2h_result_us, elementwise_us, postprocess_us
from .opencv_cuda import opencv_steps_us

__all__ = ["GarciaKernel", "LshKernel", "OpenCVKernel"]


class GarciaKernel(Algorithm1Kernel):
    """Garcia et al. [9]: Algorithm 1 with the original modified
    insertion sort (Table 1, column 2).

    Identical math and memory layout to :class:`Algorithm1Kernel`; its
    sort alone differs, and that changes only the simulated sort cost
    (67 % of the pipeline on the P100 profile that motivated the paper's
    register scan).
    """

    name = "garcia"
    sort_kind = "insertion"

    def describe(self) -> str:
        return "(Garcia [9])"


class OpenCVKernel(Algorithm1Kernel):
    """OpenCV CUDA ``knnMatch`` baseline (Table 1, column 1).

    Raw FP32 descriptors, per-pair distance kernel without GEMM reuse,
    general-k insertion-sort selection.  Produces the same 2-NN results
    as Algorithm 1 in FP32; the cost model is the library's (~4 %
    compute utilisation on a P100).  Caching no norms, it computes ``N_R``
    and ``N_Q`` at match time, uncharged.
    """

    name = "opencv"
    needs_norms = False

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

    def prepare_query(self, device, query):
        matrix = self.engine_matrix(query)
        return PreparedQuery(matrix=matrix, aux=prepare_reference(matrix, "fp32"))

    def _norms(self, batch):
        return np.stack([self.norms_for_stored(image) for image in batch.tensor])

    def batch_steps(self, device, size, n_queries):
        cfg = self.config
        return opencv_steps_us(device.spec, device.cal, cfg.m, cfg.n, cfg.d, NEIGHBOURS) * (size * n_queries)


class LshKernel(MatchKernel):
    """Kusamura et al. LSH compression baseline (related work [15]).

    References are cached as FP32 matrices (so the hybrid cache and
    tombstones behave normally) and hashed where they are compared, so
    the kernel keeps nothing per batch; queries carry their hash codes
    in ``PreparedQuery.aux``.
    Matching filters candidates in Hamming space and re-ranks exactly,
    so with ``n_candidates >= m`` the results equal FP32 brute force.

    ``n_bits``/``n_candidates``/``seed`` are kernel parameters, not
    engine knobs — pass a configured instance to
    ``TextureSearchEngine(config, kernel=LshKernel(config, ...))`` to
    override the defaults.
    """

    name = "lsh"
    needs_norms = False

    def __init__(self, config, n_bits: int = 256, n_candidates: int = 16, seed: int = 0) -> None:
        super().__init__(config)
        if n_candidates < 2:
            raise ValueError("need at least 2 candidates for the ratio test")
        self.codec = LshCodec(d=config.d, n_bits=n_bits, seed=seed)
        self.n_candidates = int(n_candidates)

    def describe(self) -> str:
        return f"(LSH {self.codec.n_bits}b/{self.n_candidates}c)"

    @classmethod
    def validate_config(cls, config) -> None:
        if config.precision != "fp32":
            raise ValueError(
                "backend 'lsh' re-ranks in FP32; set precision='fp32' "
                "(the compression lives in the hash codes, not the cache)"
            )

    def prepare_reference(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.m), None

    def query_matrix(self, descriptors):
        descriptors = self._check_descriptors(descriptors)
        return pad_or_trim(descriptors, self.config.n)

    def prepare_query(self, device, query):
        matrix = self.engine_matrix(query)
        return PreparedQuery(matrix=matrix, aux=self.codec.encode(matrix))

    def batch_steps(self, device, size, n_queries):
        cfg = self.config
        spec, cal = device.spec, device.cal
        k_cand = min(self.n_candidates, cfg.m)
        return [
            # Hamming filter: one XOR+popcount pass over all pairs
            ("compute", elementwise_us(spec, cal, cfg.n * cfg.m * self.codec.n_words, "fp32"),
             "Hamming filter"),
            # exact re-rank of the candidate set only
            ("compute", elementwise_us(spec, cal, 2 * cfg.n * k_cand * cfg.d, "fp32"), "re-rank"),
            ("d2h", d2h_result_us(spec, cal, cfg.n, 1, NEIGHBOURS, "fp32"), "D2H copy"),
            ("cpu", postprocess_us(cal, 1, "fp32", cfg.n), "Post-processing"),
        ] * (size * n_queries)

    def match_batch_multi(self, device, batch, query, survivors=None):
        """One query against a stack: each image's winners (:meth:`image_knn`)
        stacked into the ``(images, 1, k, n)`` result :func:`stacked_matches`
        reads.  No prefilter: every mask in ``survivors`` is ``None``."""
        cfg = self.config
        stack = [batch] if isinstance(batch, ReferenceBatch) else batch
        if device is not None:
            device.charge(self.batch_steps(device, sum(m.size for m in stack), query.n_queries))
        winners = [self.image_knn(member, i, query).distances
                   for member in stack for i in range(member.size)]
        shape = (len(winners), 1, NEIGHBOURS, query.matrix.shape[1])
        result = MultiQueryResult(np.array(winners, dtype=np.float32).reshape(shape), None)
        return stacked_matches(stack, None, result, cfg.ratio_threshold)

    def image_knn(self, batch, index, query):
        """Slot ``index`` of ``batch`` against ``query``: computed, never charged."""
        cfg = self.config
        q = query.matrix
        q_codes = query.aux if query.aux is not None else self.codec.encode(q)
        ref = batch.tensor[index]
        n, m = q.shape[1], ref.shape[1]
        hamming = hamming_distances(q_codes, self.codec.encode(ref))  # (n, m)
        k_cand = min(self.n_candidates, m)
        if k_cand < m:
            candidates = np.argpartition(hamming, k_cand - 1, axis=1)[:, :k_cand]
        else:
            candidates = np.broadcast_to(np.arange(m), (n, m)).copy()
        cand = ref[:, candidates]  # (d, n, k_cand)
        diff = cand - q[:, :, None]
        dists = np.sqrt(np.einsum("dnk,dnk->nk", diff, diff, optimize=True))
        order = np.argsort(dists, axis=1)[:, :NEIGHBOURS]
        top_d = np.take_along_axis(dists, order, axis=1)  # (n, k)
        top_i = np.take_along_axis(candidates, order, axis=1)
        return KnnResult(
            distances=np.ascontiguousarray(top_d.T.astype(np.float32)),
            indices=np.ascontiguousarray(top_i.T.astype(np.int32)),
        )
