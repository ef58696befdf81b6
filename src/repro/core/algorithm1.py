"""Algorithm 1: cuBLAS implementation of k-nearest neighbours.

Reproduces the paper's Algorithm 1 faithfully, step by step::

    1. N_R  = squared norms of R            (offline for references)
    2. N_Q  = squared norms of Q            (once per query)
    3. A    = -2 R^T Q                      (GEMM)
    4. A   += N_R (row-broadcast, in place)
    5. top-k of each column of A            (scan or insertion sort)
    6. add N_Q[j] to the first k rows of column j
    7. sqrt of the first k rows             (merged with 6)
    8. move the k x n sub-matrix + indices to the host

Step 5 runs *before* N_Q is added — adding a per-column constant does
not change that column's ordering, so only ``k x n`` elements need the
final adjustment.  The FP16 path stores features pre-scaled by the
configured scale factor; squared quantities are scaled by ``s^2`` and
distances divided by ``s`` at step 7.

Steps 3-8 run, in this order, on Algorithm 2's stacked plane given the
norms (plain HGEMM, no tensor cores): here one image is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import HalfPrecisionOverflowError
from ..fp16.convert import FP16_MAX, to_scaled_fp16
from ..gpusim.engine_model import GPUDevice
from ..gpusim.kernels import algorithm1_steps_us, norm_vector_us
from .algorithm2 import _knn_columns
from .results import KnnResult

__all__ = [
    "PreparedFeatures", "prepare_reference", "prepare_query", "upload_query", "knn_algorithm1",
]


@dataclass
class PreparedFeatures:
    """Feature matrix in engine precision plus its squared-norm vector.

    ``values`` is ``(d, count)``; FP16 values are pre-scaled.  ``norms``
    holds the squared norms of the *stored* values (i.e. already in the
    ``s^2``-scaled domain for FP16), in the same precision, as the paper
    keeps ``N_R`` cached next to each reference matrix (Sec. 4.1).
    """

    values: np.ndarray
    norms: np.ndarray
    precision: str
    scale: float

    @property
    def count(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.norms.nbytes


def _stored(features: np.ndarray, precision: str, scale: float) -> np.ndarray:
    """``(d, count)`` FP32 features in engine precision (FP16: pre-scaled)."""
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ValueError(f"features must be (d, count), got {features.shape}")
    if precision == "fp16":
        return to_scaled_fp16(features, scale).values
    if precision == "fp32":
        return features
    raise ValueError(f"precision must be 'fp16' or 'fp32', got {precision!r}")


def _attach_norms(
    values: np.ndarray,
    precision: str,
    scale: float,
    device: Optional[GPUDevice],
) -> PreparedFeatures:
    """Attach the squared norms of *stored* ``(d, count)`` values —
    charged to ``device`` when one is given (a query's ``N_Q``), offline
    otherwise (``N_R``).  FP16 norms are rounded to FP16 and held in it;
    one beyond its range raises."""
    if values.ndim != 2:
        raise ValueError(f"features must be (d, count), got shape {values.shape}")
    wide = values.astype(np.float32, copy=False)
    norms = np.einsum("dc,dc->c", wide, wide)
    if device is not None:
        d, count = values.shape
        device.charge([("compute", norm_vector_us(device.spec, device.cal, count, d, precision), "norms")])
    if precision == "fp32":
        return PreparedFeatures(values, norms, "fp32", 1.0)
    if np.any(norms > FP16_MAX):
        raise HalfPrecisionOverflowError(scale, float(norms.max()))
    return PreparedFeatures(values, norms.astype(np.float16), "fp16", scale)


def prepare_reference(
    features: np.ndarray,
    precision: str = "fp16",
    scale: float = 1.0,
) -> PreparedFeatures:
    """Offline reference preparation (steps 1 of Algorithm 1).

    Never charged to the device: the paper computes all reference
    matrices and their ``N_R`` vectors ahead of time (Sec. 4.1).
    """
    return _attach_norms(_stored(features, precision, scale), precision, scale, None)


def upload_query(
    device: GPUDevice,
    values: np.ndarray,
    precision: str = "fp16",
    scale: float = 1.0,
) -> PreparedFeatures:
    """The device-side half of query preparation, for a matrix already in
    engine precision: it moves to the GPU and ``N_Q`` is computed there
    (step 2); both are charged."""
    elem = 2 if precision == "fp16" else 4
    device.h2d(values.shape[0] * values.shape[1] * elem, step="query H2D")
    return _attach_norms(values, precision, scale, device)


def prepare_query(
    device: GPUDevice,
    features: np.ndarray,
    precision: str = "fp16",
    scale: float = 1.0,
) -> PreparedFeatures:
    """Query preparation from FP32 features: quantise on the host, then
    :func:`upload_query`."""
    return upload_query(device, _stored(features, precision, scale), precision, scale)


def knn_algorithm1(
    device: Optional[GPUDevice],
    reference: PreparedFeatures,
    query: PreparedFeatures,
    k: int = 2,
    sort_kind: str = "scan",
) -> KnnResult:
    """Run steps 3-8 of Algorithm 1 for one reference image.

    Charged as the device half of the per-image chain
    (:func:`~repro.gpusim.kernels.algorithm1_steps_us`; the host
    post-processing is the caller's), then computed on the stacked plane
    as a stack of one image; ``device=None`` computes only.  Returns a
    :class:`KnnResult` with *unscaled* Euclidean distances.
    """
    if reference.precision != query.precision:
        raise ValueError("reference/query precision mismatch")
    if reference.d != query.d:
        raise ValueError(f"dimension mismatch: {reference.d} vs {query.d}")
    if reference.precision == "fp16" and reference.scale != query.scale:
        raise ValueError("reference/query scale mismatch")
    m, n = reference.count, query.count
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    dtype = reference.precision
    if device is not None:
        steps = algorithm1_steps_us(device.spec, device.cal, m, n, reference.d, k, dtype, sort_kind)
        device.charge(steps[:-1])

    distances, indices = _knn_columns(None, [reference.values[None]], query.values, reference.scale, k,
                                      dtype, False, norms=(reference.norms[None], query.norms))
    return KnnResult(distances=distances, indices=indices)
