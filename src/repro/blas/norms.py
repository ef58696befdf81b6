"""Squared-L2-norm kernels (steps 1-2 of Algorithm 1).

``N_R`` and ``N_Q`` are stored as *vectors* of length ``m`` and ``n``
rather than materialised as matrices — the paper calls this out as a
GPU-memory saving (Sec. 4.1).
"""

from __future__ import annotations

import numpy as np

from ..gpusim.engine_model import GPUDevice

__all__ = ["squared_norms", "squared_norms_fp16"]


def squared_norms(
    device: GPUDevice,
    features: np.ndarray,
    step: str = "norms",
) -> np.ndarray:
    """Column-wise squared L2 norms of a ``(d, count)`` feature matrix.

    Charged as a bandwidth-bound reduction in FP32.
    """
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ValueError(f"features must be (d, count), got shape {features.shape}")
    d, count = features.shape
    device.norm_vector(count, d, dtype="fp32", step=step)
    return np.einsum("dc,dc->c", features, features, optimize=True)


def squared_norms_fp16(
    device: GPUDevice,
    features16: np.ndarray,
    step: str = "norms",
) -> tuple[np.ndarray, bool]:
    """FP16 variant; returns ``(norms_fp32, overflowed)``.

    Squares of non-negative FP16 values are summed monotonically, so
    overflow occurs iff the final sum exceeds ``float16`` max.
    """
    f16 = np.asarray(features16, dtype=np.float16)
    if f16.ndim != 2:
        raise ValueError(f"features must be (d, count), got shape {f16.shape}")
    d, count = f16.shape
    device.norm_vector(count, d, dtype="fp16", step=step)
    exact = np.einsum(
        "dc,dc->c", f16.astype(np.float32), f16.astype(np.float32), optimize=True
    )
    fp16_max = float(np.finfo(np.float16).max)
    overflow = bool(np.any(exact > fp16_max))
    quantized = np.clip(exact, 0.0, fp16_max).astype(np.float16).astype(np.float32)
    return quantized, overflow
