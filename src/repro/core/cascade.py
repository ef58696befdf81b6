"""Cascade-hashing binary prefilter backend (ROADMAP item 1).

GPU Cascade Hashing (Xu et al.) and CUDA LATCH (Parker et al.) both
show that a cheap XOR/popcount Hamming stage in front of exact matching
prunes most candidates at equal accuracy.  :class:`CascadeKernel`
applies the idea to this engine: every reference image's stored matrix
is sign-binarized into packed uint64 codes (the shared
:mod:`repro.features.binarize` helpers, same machinery as the LSH
baseline codec) and cached *alongside* the FP16/FP32 features in the
``ReferenceBatch.aux`` slot, so the hybrid cache accounts and evicts
codes with the batch.  At query time a coarse-to-fine Hamming test runs
per batch:

* **coarse** — the first ``coarse_words`` uint64 words of each
  signature are compared pairwise; only pairs within
  ``coarse_threshold`` bits advance (the bucket test);
* **fine** — surviving pairs are compared at full ``n_bits`` width; a
  query feature whose best fine distance is within ``fine_threshold``
  is a *hit*, and an image with fewer than ``min_hits`` hits is pruned.

Only surviving images reach the exact cuBLAS 2-NN pipeline (Algorithm
1's per-image chain and stacked plane, inherited): the sweep charges a
batch the chain once per survivor, the plane stacks only the survivors,
and pruned images report zero good matches without any GEMM — and a
host-resident batch with no survivor is never staged by the engine.  Both Hamming stages are
charged through the :func:`repro.gpusim.kernels.hamming_us` integer
popcount cost model, so the simulated speedup reflects popcount
throughput vs GEMM FLOPs rather than being free.

The default knobs are *conservative*: sign bits of genuinely matching
descriptor pairs disagree on only a few percent of planes, while
unrelated pairs sit near half the bits, so ``min_hits=1`` with wide
thresholds keeps matched/impostor verdicts bit-equal to ``algorithm1``
(the parity the ``cascade`` bench experiment checks) while pruning the
overwhelmingly common no-match references.  See ``docs/cascade.md`` for
the knob/parity methodology and the regimes where the prefilter loses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.binarize import hamming_distances, pack_bits, sign_planes, words_for_bits
from ..gpusim.engine_model import GPUDevice
from .algorithm1 import PreparedFeatures
from .batching import ReferenceBatch
from .kernels import Algorithm1Kernel, PreparedQuery

__all__ = ["CascadeKernel"]


@dataclass
class _CascadeQuery:
    """Query-side aux: the exact-path features plus the query's codes."""

    features: PreparedFeatures
    codes: np.ndarray  # (n, n_words + 1), last word the validity flag


class CascadeKernel(Algorithm1Kernel):
    """Hamming-prune candidates, then run Algorithm 1 on survivors.

    ``n_bits``/``coarse_words``/thresholds/``seed`` are kernel
    parameters, not engine knobs — pass a configured instance via
    ``TextureSearchEngine(config, kernel=CascadeKernel(config, ...))``
    to override the defaults (the bench experiment sweeps them).

    Signatures carry one extra uint64 *validity* word flagging non-zero
    descriptor columns: ``pad_or_trim`` zero-pads reference and query
    matrices alike, and without the flag every padded column would
    Hamming-match every other padded column at distance 0, defeating
    the prune.
    """

    name = "cascade"
    needs_norms = True
    needs_aux = True
    has_prefilter = True

    #: default signature width (bits)
    DEFAULT_BITS = 128

    def __init__(
        self,
        config,
        n_bits: int = DEFAULT_BITS,
        coarse_words: int = 1,
        coarse_threshold: int = 16,
        fine_threshold: int = 16,
        min_hits: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(config)
        self.n_bits = int(n_bits)
        self.n_words = words_for_bits(self.n_bits)
        if not (1 <= int(coarse_words) <= self.n_words):
            raise ValueError(
                f"coarse_words must be in [1, {self.n_words}], got {coarse_words}"
            )
        if not (0 <= int(coarse_threshold) <= min(64 * int(coarse_words), self.n_bits)):
            raise ValueError("coarse_threshold out of range for the coarse width")
        if not (0 <= int(fine_threshold) <= self.n_bits):
            raise ValueError(f"fine_threshold must be in [0, {self.n_bits}]")
        if int(min_hits) < 1:
            raise ValueError("min_hits must be >= 1")
        self.coarse_words = int(coarse_words)
        self.coarse_threshold = int(coarse_threshold)
        self.fine_threshold = int(fine_threshold)
        self.min_hits = int(min_hits)
        self.seed = int(seed)
        self._planes = sign_planes(config.d, self.n_bits, seed)

    def describe(self) -> str:
        return (
            f"(cascade {self.n_bits}b "
            f"c{64 * self.coarse_words}/{self.coarse_threshold} "
            f"f{self.fine_threshold} h{self.min_hits})"
        )

    # -- binarization --------------------------------------------------
    def _encode(self, matrix: np.ndarray) -> np.ndarray:
        """Stored ``(d, count)`` matrix -> ``(count, n_words + 1)`` codes.

        Sign bits are taken from the stored representation (positive
        FP16 pre-scaling never flips a sign), so enrolment, record
        re-import and query encoding all agree bit-for-bit.
        """
        values = np.asarray(matrix, dtype=np.float32)
        codes = pack_bits(self._planes @ values > 0)
        valid = values.any(axis=0).astype(np.uint64)
        return np.concatenate([codes, valid[:, None]], axis=1)

    def reference_aux(self, matrix: np.ndarray) -> np.ndarray:
        return self._encode(matrix)

    def prepare_query(self, device: GPUDevice, query) -> PreparedQuery:
        prepared = super().prepare_query(device, query)
        return PreparedQuery(
            matrix=prepared.matrix,
            aux=_CascadeQuery(
                features=prepared.aux, codes=self._encode(prepared.matrix)
            ),
        )

    # -- the prefilter -------------------------------------------------
    def _batch_codes(self, batch: ReferenceBatch, index: int) -> np.ndarray:
        if batch.aux is not None:
            return batch.aux[index]
        # transient batches built outside the engine: encode on the fly
        return self._encode(batch.tensor[index])

    def prefilter_batch(
        self,
        device: GPUDevice,
        batch: ReferenceBatch,
        query: PreparedQuery,
    ) -> np.ndarray:
        q_codes = query.aux.codes
        q_valid = q_codes[:, self.n_words] != 0
        qc = q_codes[:, : self.n_words]
        n = qc.shape[0]
        m = batch.tensor.shape[2]
        # coarse stage: every pair, prefix width, the whole batch fused.
        device.hamming_prefilter(m, n, self.coarse_words, batch=batch.size)
        survivors = np.zeros(batch.size, dtype=bool)
        fine_pairs = 0
        for i in range(batch.size):
            codes = self._batch_codes(batch, i)
            r_valid = codes[:, self.n_words] != 0
            rc = codes[:, : self.n_words]
            coarse = hamming_distances(qc, rc, words=self.coarse_words)
            cand = (
                (coarse <= self.coarse_threshold)
                & q_valid[:, None]
                & r_valid[None, :]
            )
            n_cand = int(cand.sum())
            if n_cand == 0:
                continue
            fine_pairs += n_cand
            fine = hamming_distances(qc, rc)
            best = np.where(cand, fine, self.n_bits + 1).min(axis=1)
            hits = int((best <= self.fine_threshold).sum())
            survivors[i] = hits >= self.min_hits
        if fine_pairs:
            # fine stage: full width, only the coarse-surviving pairs.
            device.hamming_prefilter(
                max(1, -(-fine_pairs // n)), n, self.n_words, batch=1
            )
        return survivors

    # -- matching: Algorithm 1's plane, which stacks only what ``survivors`` keeps
    def _query_features(self, query: PreparedQuery) -> PreparedFeatures:
        return query.aux.features
