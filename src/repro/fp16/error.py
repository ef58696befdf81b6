"""Compression-error metric (Eq. 2 of the paper).

``comp_error`` averages, over every reference/query feature pair, the
relative error between the full-precision distance and the distance
computed from scaled FP16 features.  Table 2 evaluates it over 1,000
image pairs; :mod:`repro.bench.experiments` reproduces that table.
"""

from __future__ import annotations

import numpy as np

from .codec import FP16_MAX, is_nonneg_finite, round_trip_nonneg
from .convert import check_matmul_overflow, to_scaled_fp16

__all__ = [
    "pairwise_distances",
    "fp16_accumulated_dot",
    "fp16_pairwise_distances",
    "compression_error",
]

_EPS = 1e-12


def pairwise_distances(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Full-precision Euclidean distance matrix between the columns of
    ``R`` (d x m) and ``Q`` (d x n); returns (m, n)."""
    r = np.asarray(r, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if r.ndim != 2 or q.ndim != 2 or r.shape[0] != q.shape[0]:
        raise ValueError(f"incompatible shapes {r.shape} and {q.shape}")
    nr = np.einsum("dm,dm->m", r, r)
    nq = np.einsum("dn,dn->n", q, q)
    sq = nr[:, None] + nq[None, :] - 2.0 * (r.T @ q)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def fp16_accumulated_dot(r16: np.ndarray, q16: np.ndarray, round_every: int = 1) -> np.ndarray:
    """``R^T Q`` with the accumulator rounded to FP16 as HGEMM does.

    The running sum is rounded to ``float16`` after every
    ``round_every`` rank-1 updates (1 = faithful sequential FP16
    accumulation).  This accumulation noise — roughly
    ``sqrt(d) * eps_fp16`` relative — is what dominates the paper's
    0.1 % compression-error plateau, an order of magnitude above pure
    input-quantization error.
    """
    r16 = np.asarray(r16, dtype=np.float16)
    q16 = np.asarray(q16, dtype=np.float16)
    if round_every < 1:
        raise ValueError("round_every must be >= 1")
    # round_trip_nonneg needs non-negative finite sums with no -0.0: operands
    # with no sign bit, inf or NaN give exactly that; the sums only grow, so an
    # update that overflowed (astype's inf) still shows in the final sum
    if not (is_nonneg_finite(r16) and is_nonneg_finite(q16)):
        raise ValueError("FP16 accumulation needs non-negative finite operands")
    d = r16.shape[0]
    acc = np.zeros((r16.shape[1], q16.shape[1]), dtype=np.float32)
    rv = r16.astype(np.float32)
    qv = q16.astype(np.float32)
    for start in range(0, d, round_every):
        stop = min(start + round_every, d)
        acc += rv[start:stop].T @ qv[start:stop]
        # Round the accumulator to FP16 (the register precision).
        round_trip_nonneg(acc, FP16_MAX)
    if acc.size and float(acc.max()) > FP16_MAX:
        raise ValueError("the FP16 accumulator overflowed; check_matmul_overflow first")
    return acc


def fp16_pairwise_distances(
    r: np.ndarray, q: np.ndarray, scale: float, round_every: int = 1
) -> np.ndarray:
    """Distance matrix computed the way the FP16 engine computes it.

    Features are scaled and quantized to FP16, the similarity matrix is
    accumulated in FP16 (``round_every`` controls the rounding cadence,
    see :func:`fp16_accumulated_dot`), and distances are rescaled by
    ``1/s``.  Raises :class:`HalfPrecisionOverflowError` on overflow,
    matching Table 2's "overflow" cells.
    """
    r16 = to_scaled_fp16(r, scale)
    q16 = to_scaled_fp16(q, scale)
    check_matmul_overflow(r16, q16)
    rv = r16.values.astype(np.float32)
    qv = q16.values.astype(np.float32)
    # FP16 storage of the norm vectors and the GEMM output (the adds of
    # Algorithm 1 run in FP16 registers).
    nr = np.einsum("dm,dm->m", rv, rv).astype(np.float16).astype(np.float32)
    nq = np.einsum("dn,dn->n", qv, qv).astype(np.float16).astype(np.float32)
    prod = fp16_accumulated_dot(r16.values, q16.values, round_every)
    sq = nr[:, None] + nq[None, :] - 2.0 * prod
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq) / np.float32(scale)


def compression_error(r: np.ndarray, q: np.ndarray, scale: float) -> float:
    """Eq. 2: mean relative distance error of the FP16 path vs FP32.

    Pairs whose true distance is (numerically) zero are excluded from
    the average — a self-match has no meaningful relative error.
    """
    exact = pairwise_distances(r, q)
    approx = fp16_pairwise_distances(r, q, scale).astype(np.float64)
    mask = exact > _EPS
    if not np.any(mask):
        return 0.0
    rel = np.abs(exact[mask] - approx[mask]) / exact[mask]
    return float(rel.mean())
