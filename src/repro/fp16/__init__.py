"""Half-precision toolkit: scaled conversion, overflow detection,
compression error (Eq. 2), automatic scale-factor selection, and the
vectorised float16 <-> float32 codec (:mod:`repro.fp16.codec`)."""

from .autoscale import AutoscaleResult, choose_scale_factor, max_safe_scale
from .codec import FP16_MAX, FP16_MIN_NORMAL
from .convert import ScaledFP16, check_matmul_overflow, to_scaled_fp16
from .error import compression_error, fp16_pairwise_distances, pairwise_distances

__all__ = [
    "AutoscaleResult",
    "FP16_MAX",
    "FP16_MIN_NORMAL",
    "ScaledFP16",
    "check_matmul_overflow",
    "choose_scale_factor",
    "compression_error",
    "fp16_pairwise_distances",
    "max_safe_scale",
    "pairwise_distances",
    "to_scaled_fp16",
]
