"""Vectorised float16 <-> float32 conversions for non-negative finite data.

NumPy converts halves one scalar at a time; SIFT-family features and
their dot products are non-negative and finite, and on that domain both
directions are a few whole-array passes, bit-identical to ``astype``
(derivations: docs/architecture.md, "The host hot path").  Callers test
:func:`is_nonneg_finite` and use ``astype`` for anything else.

* Up-cast: the half's exponent and mantissa fields shifted left 13 sit
  in the float32 fields and read ``2^(e-127) * 1.m`` for ``2^(e-15) * 1.m``;
  multiplying by ``2^112`` fixes the bias exactly, subnormals included.
* Round trip: for ``x`` in ``[2^e, 2^(e+1))`` the half grid ``2^(e-10)``
  is float32's ulp at ``c = 1.5 * 2^(e+13)``, so ``(x + c) - c`` makes the
  float32 adder round ``x`` to that grid, ties to even.  Half subnormals
  share the grid of the smallest normal binade: ``e`` clamps at -14,
  where ``c`` is 0.75.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "FP16_MAX",
    "FP16_MIN_NORMAL",
    "is_nonneg_finite",
    "upcast_nonneg",
    "round_trip_nonneg",
]

FP16_MAX = float(np.finfo(np.float16).max)  # 65504.0
FP16_MIN_NORMAL = float(np.finfo(np.float16).smallest_normal)  # 2^-14

_LARGEST_FINITE_BITS = 0x7BFF  # above it: inf/NaN patterns, then the sign bit
_BIAS_FIX = np.float32(2.0**112)
_EXPONENT_FIELD = np.uint32(0x7F800000)
_MIN_NORMAL_FIELD = np.uint32((127 - 14) << 23)
_TO_ONE_AND_A_HALF_UP_13 = np.uint32((13 << 23) | 0x400000)
_SUBNORMAL_C = np.float32(0.75)


def is_nonneg_finite(half: np.ndarray) -> bool:
    """No sign bit (so no -0.0), no inf, no NaN in a float16 array."""
    return not half.size or int(half.view(np.uint16).max()) <= _LARGEST_FINITE_BITS


def upcast_nonneg(half: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``half.astype(float32)`` for an :func:`is_nonneg_finite` array, written
    into the float32 ``out`` of ``half``'s shape if given."""
    if out is None:
        wide = half.view(np.uint16).astype(np.uint32)
    else:
        wide = out.view(np.uint32)
        wide[...] = half.view(np.uint16)
    wide <<= 13
    wide = wide.view(np.float32)
    wide *= _BIAS_FIX
    return wide


def round_trip_nonneg(x: np.ndarray, hi: float) -> None:
    """``x[...] = x.astype(float16).astype(float32)`` for a float32 ``x``
    (any strides, written in place) with entries in ``[0, hi]``, no -0.0,
    ``hi <= FP16_MAX``.  A 3-D stack is rounded image by image so the
    per-element constants stay in cache.
    """
    if hi < FP16_MIN_NORMAL:  # every exponent clamps: one constant
        x += _SUBNORMAL_C
        x -= _SUBNORMAL_C
        return
    c = None  # one image's constants, reused: every image of a stack has one shape
    for block in x if x.ndim == 3 else (x,):
        c = np.bitwise_and(block.view(np.uint32), _EXPONENT_FIELD, out=c)
        np.maximum(c, _MIN_NORMAL_FIELD, out=c)
        c += _TO_ONE_AND_A_HALF_UP_13
        block += c.view(np.float32)
        block -= c.view(np.float32)
