"""cuBLAS-like GEMM entry points.

These functions compute the *actual* product with NumPy and charge the
simulated device for the time cuBLAS would take (see
:func:`repro.gpusim.kernels.gemm_us`).  Numerical behaviour mirrors the
hardware paths:

* ``sgemm`` — FP32 in, FP32 accumulate.
* ``hgemm`` — FP16 in.  Plain HGEMM accumulates in FP16 (the paper's
  Table 2 overflow column exists *because* of FP16 accumulation); the
  tensor-core path (``tensor_core=True``) accumulates in FP32, as Volta
  tensor cores do.

SIFT descriptors are element-wise non-negative, so all partial sums of
``R^T Q`` are monotone non-decreasing — the largest intermediate equals
the final dot product.  That lets us detect FP16 accumulation overflow
exactly without emulating the 128-step summation: a product overflows
iff its FP32 value exceeds ``float16`` max.  Inputs with mixed signs
fall back to a conservative bound (sum of absolute values).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpusim.engine_model import GPUDevice
from ..gpusim.stream import Stream

__all__ = ["sgemm", "hgemm", "batched_hgemm", "query_major_product", "FP16_MAX"]

FP16_MAX = float(np.finfo(np.float16).max)  # 65504.0
FP16_MIN_NORMAL = float(np.finfo(np.float16).smallest_normal)  # 2^-14


def _as_2d(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def sgemm(
    device: GPUDevice,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    transpose_a: bool = False,
    stream: Optional[Stream] = None,
    step: str = "GEMM",
) -> np.ndarray:
    """``alpha * op(A) @ B`` in FP32, charging simulated GEMM time."""
    a = _as_2d(a, "a").astype(np.float32, copy=False)
    b = _as_2d(b, "b").astype(np.float32, copy=False)
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {op_a.shape} @ {b.shape}")
    m, k = op_a.shape
    n = b.shape[1]
    device.gemm(m, n, k, batch=1, dtype="fp32", stream=stream, step=step)
    return np.float32(alpha) * (op_a @ b)


def query_major_product(a32: np.ndarray, b32: np.ndarray) -> np.ndarray:
    """``a32[i].T @ b32`` for every image of a ``(batch, k, m)`` stack,
    computed query-major: the buffer is ``(batch, n, m)`` and the
    ``(batch, m, n)`` result its transposed view, so one query feature's
    products against an image's ``m`` features are contiguous in memory
    — the layout the column-wise top-k scans.
    """
    return np.matmul(b32.T, a32).transpose(0, 2, 1)


def _round_to_fp16(x: np.ndarray, nonneg: bool, hi: float) -> None:
    """``x[...] = x.astype(float16).astype(float32)`` for an FP32 ``x``
    whose maximum is ``hi``; ``nonneg`` promises no negative entry or -0.0.
    When every entry is in [0, 2^-14) the whole array is FP16-subnormal,
    where the fp32->fp16 conversion is ~24x slower than on normals; but
    in [0.5, 1) fp32's ulp is 2^-24 — the subnormal grid — and 0.75 is an
    even multiple of it, so adding 0.75 makes the fp32 adder perform the
    same round-to-nearest-even and subtracting it again is exact.
    """
    if nonneg and hi < FP16_MIN_NORMAL:
        x += np.float32(0.75)
        x -= np.float32(0.75)
    else:
        x[...] = x.astype(np.float16)


def _fp16_gemm(
    product, a: np.ndarray, b: np.ndarray, alpha: float, tensor_core: bool, store_fp16: bool
) -> tuple[np.ndarray, bool]:
    """``(alpha * product(a, b) as float32, overflowed)`` from FP16
    operands: the one epilogue behind both entry points, which differ in
    the ``product`` that lays the result out.  Callers that model plain
    HGEMM must treat ``overflowed=True`` outputs as saturated/invalid
    (the library raises, see :mod:`repro.fp16`).
    """
    a32 = a.astype(np.float16, copy=False).astype(np.float32)
    b32 = b.astype(np.float16, copy=False).astype(np.float32)
    # What an FP32-accumulating engine produces; owned, so the rest is in place.
    exact = product(a32, b32)
    # fmin/fmax skip NaNs, so ``hi > x`` is ``np.any(exact > x)``.
    lo = np.fmin.reduce(exact, axis=None, initial=np.inf)
    hi = np.fmax.reduce(exact, axis=None, initial=-np.inf)
    unstorable = bool(hi > FP16_MAX or lo < -FP16_MAX)
    nonneg = bool(a32.min(initial=0.0) >= 0 and b32.min(initial=0.0) >= 0)
    if tensor_core or nonneg:
        # FP32 accumulation: only the final store can overflow.  Non-negative
        # operands: partial sums are monotone, so the final value is the max.
        overflow = unstorable
    else:
        # Conservative bound on the largest partial sum.
        bound = product(np.abs(a32), np.abs(b32))
        overflow = bool(np.fmax.reduce(bound, axis=None, initial=-np.inf) > FP16_MAX)
    if store_fp16:
        # Model FP16 rounding of the accumulator on the final result.
        # (The per-step rounding error is dominated by input
        # quantization for the d=128 sums used here.)
        if unstorable:
            np.clip(exact, -FP16_MAX, FP16_MAX, out=exact)
        _round_to_fp16(exact, nonneg, hi)
    if alpha != 1.0:
        exact *= np.float32(alpha)
        if abs(alpha) != 1.0 and not tensor_core:
            overflow = overflow or bool(np.any(np.abs(exact) > FP16_MAX))
    return exact, overflow


def hgemm(
    device: GPUDevice,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    transpose_a: bool = False,
    tensor_core: bool = False,
    stream: Optional[Stream] = None,
    step: str = "GEMM",
) -> tuple[np.ndarray, bool]:
    """FP16 GEMM; returns ``(alpha * op(A) @ B as float32, overflowed)``."""
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {op_a.shape} @ {b.shape}")
    m, k = op_a.shape
    n = b.shape[1]
    device.gemm(m, n, k, batch=1, dtype="fp16", tensor_core=tensor_core, stream=stream, step=step)
    # The tensor-core path hands back the FP32 accumulator unrounded.
    return _fp16_gemm(np.matmul, op_a, b, alpha, tensor_core, store_fp16=not tensor_core)


def batched_hgemm(
    device: GPUDevice,
    a_batch: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    tensor_core: bool = False,
    stream: Optional[Stream] = None,
    step: str = "GEMM",
) -> tuple[np.ndarray, bool]:
    """Batched FP16 GEMM: ``a_batch`` is ``(batch, k, m)`` reference
    matrices (features stored column-wise, as in Fig. 3); ``b`` is the
    shared ``(k, n)`` query matrix.  Returns ``(batch, m, n)`` products.

    This is the Sec. 5 batching optimization: the whole batch is charged
    as *one* GEMM call of ``batch`` times the work, which is where the
    data-reuse efficiency gain comes from.
    """
    a_batch = np.asarray(a_batch)
    if a_batch.ndim != 3:
        raise ValueError(f"a_batch must be (batch, k, m), got shape {a_batch.shape}")
    b = _as_2d(b, "b")
    batch, k, m = a_batch.shape
    if k != b.shape[0]:
        raise ValueError(f"inner-dimension mismatch: {a_batch.shape} vs {b.shape}")
    n = b.shape[1]
    device.gemm(m, n, k, batch=batch, dtype="fp16", tensor_core=tensor_core, stream=stream, step=step)
    return _fp16_gemm(query_major_product, a_batch, b, alpha, tensor_core, store_fp16=True)
