"""Query batching (the extension Sec. 5.3 discusses but defers).

"Similar to the batch process for reference feature matrix, the query
feature matrix can also be batched for higher performance.  However,
the search latency also increases" — the paper leaves the trade-off to
the DNN-serving literature.  This module implements it: ``Q_batch``
query matrices are concatenated column-wise into one ``(d, Q*n)``
matrix, so a single batched GEMM serves every (reference, query) pair
and the top-2 scan sees ``batch * Q * n`` columns.

Throughput rises (more data reuse per cached reference batch, more scan
occupancy); *per-query latency* becomes the whole group's completion
time.  The ``ablation-query-batch`` experiment quantifies both from what
:class:`~repro.core.kernels.Algorithm2Kernel` charges a group — the
ablation the paper hand-waves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..gpusim.engine_model import GPUDevice
from .algorithm2 import _knn_columns

__all__ = ["MultiQueryResult", "knn_algorithm2_multiquery"]


@dataclass
class MultiQueryResult:
    """Top-k results for every (reference image, query) pair.

    ``distances``/``indices`` have shape ``(batch, n_queries, k, n)``;
    ``indices`` is ``None`` when the search was asked for none.
    """

    distances: np.ndarray
    indices: Optional[np.ndarray]

    @property
    def n_queries(self) -> int:
        return self.distances.shape[1]

    @classmethod
    def from_columns(cls, dist: np.ndarray, idx: Optional[np.ndarray], n_queries: int,
                     n: int) -> "MultiQueryResult":
        """The plane's ``(k, images * Q * n)`` winners, per (image, query) pair."""
        def per_pair(x):  # (k, images * Q * n) -> (images, Q, k, n)
            return np.ascontiguousarray(x.reshape(len(x), -1, n_queries, n).transpose(1, 2, 0, 3))

        return cls(distances=per_pair(dist), indices=None if idx is None else per_pair(idx))


def knn_algorithm2_multiquery(
    device: Optional[GPUDevice],
    references: np.ndarray | Sequence[np.ndarray],
    queries: np.ndarray,
    scale: float = 1.0,
    k: int = 2,
    precision: str = "fp16",
    tensor_core: bool = False,
    indices: bool = True,
) -> MultiQueryResult:
    """Batched-reference x batched-query 2-NN.

    ``references`` is ``(batch, d, m)``; ``queries`` is ``(Q, d, n)``.
    Functionally equivalent to running Algorithm 2 once per query, but
    charged as one fused GEMM + one wide scan.  ``references`` may be a
    *stack*: a list of such batches, taken in order as the one batch they
    would concatenate to; ``device=None`` charges nothing.  A caller that
    reads only distances passes ``indices=False`` (ties only ever decide an
    index, so the scan may then select before it rounds).
    """
    stack = references if isinstance(references, (list, tuple)) else [references]
    stack = [np.asarray(refs) for refs in stack]
    queries = np.asarray(queries)
    if not stack or any(refs.ndim != 3 for refs in stack) or queries.ndim != 3:
        raise ValueError("references must be (batch, d, m) and queries (Q, d, n)")
    d = stack[0].shape[1]
    if any(refs.shape[1:] != stack[0].shape[1:] for refs in stack) or d != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: references {[refs.shape for refs in stack]}, "
            f"queries d={queries.shape[1]}"
        )
    if any(refs.dtype != stack[0].dtype for refs in stack):  # a crossing tile would cast
        raise ValueError(f"a stack has one dtype, got {sorted({str(refs.dtype) for refs in stack})}")
    n_queries, _, n = queries.shape
    # Column-concatenate queries: (d, Q*n).
    q_all = np.transpose(queries, (1, 0, 2)).reshape(d, n_queries * n)
    dist, idx = _knn_columns(device, stack, q_all, scale, k, precision, tensor_core, indices)
    return MultiQueryResult.from_columns(dist, idx, n_queries, n)
