"""Comparison baselines: the OpenCV CUDA brute-force matcher, the
Garcia et al. cuBLAS KNN with insertion sort (Table 1 columns 1-2) and
LSH descriptor compression — plus :mod:`.adapters`, which wraps each of
them as a :class:`~repro.core.kernels.MatchKernel` so they run through
the real engine (``EngineConfig(backend="opencv" | "garcia" | "lsh")``).
"""

from .adapters import GarciaKernel, LshKernel, OpenCVKernel
from .cbir_ivf import CbirVote, IVFPQIndex, ProductQuantizer, kmeans
from .lsh import LshCodec, LshMatcher
from .opencv_cuda import (
    CONTEXT_OVERHEAD_BYTES,
    DIST_KERNEL_EFF_FP32,
    opencv_knn_match,
)

__all__ = [
    "CONTEXT_OVERHEAD_BYTES",
    "CbirVote",
    "DIST_KERNEL_EFF_FP32",
    "GarciaKernel",
    "IVFPQIndex",
    "LshCodec",
    "LshKernel",
    "LshMatcher",
    "OpenCVKernel",
    "ProductQuantizer",
    "kmeans",
    "opencv_knn_match",
]
