"""Comparison baselines: the OpenCV CUDA brute-force matcher, the
Garcia et al. cuBLAS KNN with insertion sort (Table 1 columns 1-2) and
LSH descriptor compression, each a
:class:`~repro.core.kernels.MatchKernel` in :mod:`.adapters` that runs
through the real engine (``EngineConfig(backend="opencv" | "garcia" |
"lsh")``), plus the IVF-PQ retrieval engine of the CBIR ablation.  The
LSH kernel's sign-bit encoder is :class:`repro.features.LshCodec`.
"""

from .adapters import GarciaKernel, LshKernel, OpenCVKernel
from .cbir_ivf import CbirVote, IVFPQIndex, ProductQuantizer, kmeans
from .opencv_cuda import (
    CONTEXT_OVERHEAD_BYTES,
    DIST_KERNEL_EFF_FP32,
)

__all__ = [
    "CONTEXT_OVERHEAD_BYTES",
    "CbirVote",
    "DIST_KERNEL_EFF_FP32",
    "GarciaKernel",
    "IVFPQIndex",
    "LshKernel",
    "OpenCVKernel",
    "ProductQuantizer",
    "kmeans",
]
