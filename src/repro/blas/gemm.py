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

from ..fp16.codec import FP16_MAX, is_nonneg_finite, round_trip_nonneg, upcast_nonneg
from ..gpusim.engine_model import GPUDevice

__all__ = ["sgemm", "hgemm", "batched_hgemm", "fp16_operand", "query_major_product", "FP16_MAX"]


def _as_2d(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def sgemm(
    device: Optional[GPUDevice],
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    transpose_a: bool = False,
    step: str = "GEMM",
) -> np.ndarray:
    """``alpha * op(A) @ B`` in FP32, charging simulated GEMM time (``device=None``: charged)."""
    a = _as_2d(a, "a").astype(np.float32, copy=False)
    b = _as_2d(b, "b").astype(np.float32, copy=False)
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {op_a.shape} @ {b.shape}")
    m, k = op_a.shape
    n = b.shape[1]
    if device is not None:
        device.gemm(m, n, k, batch=1, dtype="fp32", step=step)
    return np.float32(alpha) * (op_a @ b)


def query_major_product(
    a32: np.ndarray, b32: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a32[i].T @ b32`` for every image of a ``(batch, k, m)`` stack,
    computed query-major: the buffer (``out``, if given) is ``(batch, n, m)``
    and the ``(batch, m, n)`` result its transposed view, so one query
    feature's products against an image's ``m`` features are contiguous
    in memory — the layout the column-wise top-k scans.
    """
    return np.matmul(b32.T, a32, out=out).transpose(0, 2, 1)


def _upcast(half: np.ndarray, nonneg: bool, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``half`` as float32 (into ``out`` if given): the codec on its domain, else ``astype``."""
    if nonneg:
        return upcast_nonneg(half, out)
    if out is None:
        return half.astype(np.float32)
    out[...] = half
    return out


def fp16_operand(x: np.ndarray, out: Optional[np.ndarray] = None) -> tuple[np.ndarray, bool]:
    """One operand made ready for :func:`batched_hgemm`'s ``nonneg=``: ``(x
    stored in FP16 and read back as float32, whether those halves are
    non-negative and finite)``, the float32 written into ``out`` if given.  A
    caller that multiplies one operand by many (a query by every tile of a
    sweep) scans and up-casts it once; an operand made slice by slice into one
    buffer is flagged by the ``and`` of its slices' flags."""
    half = x.astype(np.float16, copy=False)
    nonneg = is_nonneg_finite(half)
    return _upcast(half, nonneg, out), nonneg


def _fp16_gemm(
    product, a: np.ndarray, b: np.ndarray, nonneg: Optional[bool], alpha: float,
    tensor_core: bool, store_fp16: bool, out: Optional[np.ndarray] = None,
    unexamined: bool = False,
) -> tuple[np.ndarray, Optional[bool]]:
    """``(alpha * product(a, b) as float32, overflowed)`` from FP16
    operands: the one epilogue behind both entry points, which differ in
    the ``product`` that lays the result out (into its ``out``, if given).
    ``nonneg=None`` takes FP16 operands and scans and up-casts them here;
    otherwise ``a`` and ``b`` are already up-cast (:func:`fp16_operand`), all
    non-negative and finite iff ``nonneg``.
    Callers that model plain HGEMM must treat ``overflowed=True`` outputs
    as saturated/invalid (the library raises, see :mod:`repro.fp16`).
    ``unexamined`` skips the epilogue where a caller can make up for it on
    a few entries: the accumulator of non-negative finite operands comes
    back as it is, flagged ``None``.
    """
    if nonneg is None:
        a = a.astype(np.float16, copy=False)
        b = b.astype(np.float16, copy=False)
        # One scan of the stored bits per operand: no sign bit anywhere means
        # no negative product and no -0.0, and picks the codec over astype.
        nonneg = is_nonneg_finite(a) and is_nonneg_finite(b)
        a, b = _upcast(a, nonneg), _upcast(b, nonneg)
    # What an FP32-accumulating engine produces; owned, so the rest is in place.
    exact = product(a, b, out=out)
    if nonneg and unexamined:
        return exact if alpha == 1.0 else np.multiply(exact, np.float32(alpha), out=exact), None
    # fmin/fmax skip NaNs, so ``hi > x`` is ``np.any(exact > x)``.  Sums of
    # non-negative finite terms are never negative or NaN: one scan, not two.
    hi = np.fmax.reduce(exact, axis=None, initial=-np.inf)
    lo = 0.0 if nonneg else np.fmin.reduce(exact, axis=None, initial=np.inf)
    unstorable = bool(hi > FP16_MAX or lo < -FP16_MAX)
    if tensor_core or nonneg:
        # FP32 accumulation: only the final store can overflow.  Non-negative
        # operands: partial sums are monotone, so the final value is the max.
        overflow = unstorable
    else:
        # Conservative bound on the largest partial sum.
        bound = product(np.abs(a), np.abs(b))
        overflow = bool(np.fmax.reduce(bound, axis=None, initial=-np.inf) > FP16_MAX)
    del a, b  # up-casts made here are spent: the round trip's constants may take their place
    if store_fp16:
        # Model FP16 rounding of the accumulator on the final result.
        # (The per-step rounding error is dominated by input
        # quantization for the d=128 sums used here.)
        if unstorable:
            np.clip(exact, -FP16_MAX, FP16_MAX, out=exact)
        if nonneg:  # no negative entry or -0.0: the codec's domain
            round_trip_nonneg(exact, min(hi, FP16_MAX))
        else:
            exact[...] = exact.astype(np.float16)
    if alpha != 1.0:
        exact *= np.float32(alpha)
        if abs(alpha) != 1.0 and not tensor_core:
            overflow = overflow or bool(np.any(np.abs(exact) > FP16_MAX))
    return exact, overflow


def hgemm(
    device: Optional[GPUDevice],
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    transpose_a: bool = False,
    tensor_core: bool = False,
    step: str = "GEMM",
) -> tuple[np.ndarray, bool]:
    """FP16 GEMM; returns ``(alpha * op(A) @ B as float32, overflowed)`` (``device=None``: charged)."""
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {op_a.shape} @ {b.shape}")
    m, k = op_a.shape
    n = b.shape[1]
    if device is not None:
        device.gemm(m, n, k, batch=1, dtype="fp16", tensor_core=tensor_core, step=step)
    # The tensor-core path hands back the FP32 accumulator unrounded.
    return _fp16_gemm(np.matmul, op_a, b, None, alpha, tensor_core, store_fp16=not tensor_core)


def batched_hgemm(
    device: Optional[GPUDevice],
    a_batch: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    tensor_core: bool = False,
    step: str = "GEMM",
    out: Optional[np.ndarray] = None,
    store_fp16: bool = True,
    nonneg: Optional[bool] = None,
) -> tuple[np.ndarray, Optional[bool]]:
    """Batched FP16 GEMM: ``a_batch`` is ``(batch, k, m)`` reference
    matrices (features stored column-wise, as in Fig. 3); ``b`` is the
    shared ``(k, n)`` query matrix.  Returns ``(batch, m, n)`` products,
    the transposed view of the ``(batch, n, m)`` float32 ``out`` if given.

    This is the Sec. 5 batching optimization: the whole batch is charged
    as *one* GEMM call of ``batch`` times the work, which is where the
    data-reuse efficiency gain comes from.  ``device=None`` computes
    without charging: ``a_batch`` is then one tile of a batch whose
    single GEMM the caller has already charged.  ``store_fp16=False`` asks
    for the unrounded accumulator, as ``hgemm(tensor_core=True)`` returns
    it, and gets it — flagged ``None``: overflowed iff its largest entry
    exceeds ``FP16_MAX``, for the caller to read off the few entries it
    keeps — for non-negative finite operands only; any others come back
    stored and flagged as ever, since their flag needs the whole product.
    ``nonneg`` given: ``a_batch`` and ``b`` are :func:`fp16_operand`'s
    float32 up-casts of FP16 operands, all non-negative and finite iff
    ``nonneg``, and this call neither scans nor up-casts them again.
    """
    a_batch = np.asarray(a_batch)
    if a_batch.ndim != 3:
        raise ValueError(f"a_batch must be (batch, k, m), got shape {a_batch.shape}")
    b = _as_2d(b, "b")
    batch, k, m = a_batch.shape
    if k != b.shape[0]:
        raise ValueError(f"inner-dimension mismatch: {a_batch.shape} vs {b.shape}")
    n = b.shape[1]
    if device is not None:
        device.gemm(m, n, k, batch=batch, dtype="fp16", tensor_core=tensor_core, step=step)
    return _fp16_gemm(query_major_product, a_batch, b, nonneg, alpha, tensor_core,
                      store_fp16=True, out=out, unexamined=not store_fp16)
