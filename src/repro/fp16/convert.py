"""Scale-factor FP16 conversion (Sec. 4.2).

FP16 has a narrow numeric range, so feature matrices are multiplied by a
scale factor ``s`` before conversion; squared distances computed from the
scaled features equal ``s^2`` times the true squared distances and are
rescaled on the host.  Too large an ``s`` overflows the similarity-matrix
computation; too small an ``s`` pushes descriptor entries into the
subnormal range and inflates quantization error (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import HalfPrecisionOverflowError
from .codec import FP16_MAX

__all__ = ["FP16_MAX", "ScaledFP16", "to_scaled_fp16", "check_matmul_overflow"]


@dataclass(frozen=True)
class ScaledFP16:
    """An FP16 feature matrix together with its scale factor.

    ``values`` stores ``float16(scale * original)``; distance math on
    these values must divide squared quantities by ``scale**2``.
    """

    values: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        if self.values.dtype != np.float16:
            raise TypeError("ScaledFP16.values must be float16")
        if not (self.scale > 0):
            raise ValueError("scale factor must be positive")

    def unscaled(self) -> np.ndarray:
        """Dequantize back to FP32 (lossy round-trip)."""
        return self.values.astype(np.float32) / np.float32(self.scale)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes


def to_scaled_fp16(
    features: np.ndarray,
    scale: float,
    check_overflow: bool = True,
) -> ScaledFP16:
    """Convert FP32 features to scaled FP16.

    Raises :class:`HalfPrecisionOverflowError` if any scaled *element*
    exceeds the FP16 range (matmul overflow is checked separately, since
    it depends on both operands; see :func:`check_matmul_overflow`).
    """
    features = np.asarray(features, dtype=np.float32)
    scaled = features * np.float32(scale)
    if check_overflow:
        max_abs = float(np.max(np.abs(scaled))) if scaled.size else 0.0
        if max_abs > FP16_MAX:
            raise HalfPrecisionOverflowError(scale, max_abs)
    return ScaledFP16(values=scaled.astype(np.float16), scale=float(scale))


def check_matmul_overflow(r: ScaledFP16, q: ScaledFP16) -> None:
    """Raise if ``R^T Q`` would overflow under FP16 accumulation.

    Uses the non-negativity of SIFT descriptors: partial sums are
    monotone, so the worst intermediate is the largest final dot
    product.  The factor 2 of ``-2 R^T Q`` is applied *after* the GEMM
    via the ``alpha`` parameter, so the GEMM itself sees the raw dot.
    Also checks the squared-norm vectors, which are stored in FP16 too.
    """
    if r.scale != q.scale:
        raise ValueError(f"mismatched scale factors: {r.scale} vs {q.scale}")
    rv = r.values.astype(np.float32)
    qv = q.values.astype(np.float32)
    if np.any(rv < 0) or np.any(qv < 0):
        # Conservative: bound by |R|^T |Q|.
        dots = np.abs(rv).T @ np.abs(qv)
    else:
        dots = rv.T @ qv
    worst = float(dots.max()) if dots.size else 0.0
    norms_worst = max(
        float(np.einsum("dc,dc->c", rv, rv).max()) if rv.size else 0.0,
        float(np.einsum("dc,dc->c", qv, qv).max()) if qv.size else 0.0,
    )
    worst = max(worst, norms_worst)
    if worst > FP16_MAX:
        raise HalfPrecisionOverflowError(r.scale, worst)
