"""Model of the OpenCV CUDA ``knnMatch`` baseline (Table 1, column 1).

The paper's starting point: OpenCV's native CUDA brute-force matcher,
which computes per-pair distances without GEMM data reuse and selects
neighbours with a general-k in-memory sort.  The paper measures
2,012 img/s on a P100 and 2,937 img/s on a V100 (Sec. 3.3) and
attributes the gap to ~4 % utilisation of the card's compute potential.

Functionally this is Algorithm 1 in FP32 (:func:`knn_algorithm1`
computes it); only the cost model differs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.algorithm1 import knn_algorithm1, prepare_reference
from ..core.results import KnnResult
from ..gpusim.calibration import KernelCalibration
from ..gpusim.device import DeviceSpec
from ..gpusim.engine_model import GPUDevice
from ..gpusim.kernels import d2h_result_us, insertion_sort_us, postprocess_us

__all__ = ["opencv_knn_match", "opencv_steps_us", "CONTEXT_OVERHEAD_BYTES", "DIST_KERNEL_EFF_FP32"]

#: efficiency of OpenCV's non-GEMM distance kernel, anchored so the
#: P100 total lands on Table 1's 497.0 us/img (distance part 215.6 us).
DIST_KERNEL_EFF_FP32 = 0.0753

#: fixed CUDA context + library overhead observed in Table 1's memory
#: column (4,271 MB for 10,000 FP32 matrices = 3,932 MB of features).
CONTEXT_OVERHEAD_BYTES = int(344e6)


def opencv_steps_us(
    spec: DeviceSpec, cal: KernelCalibration, m: int = 768, n: int = 768, d: int = 128, k: int = 2,
) -> list[tuple[str, float, str]]:
    """The matcher's per-image chain as ``(engine, us, profiler step)``: the
    distance kernel, the library's in-memory insertion sort, the result D2H
    and the host post-processing.  :func:`opencv_knn_match` charges the first
    three, the engine's ``opencv`` kernel all four per image it compares."""
    # each thread block recomputes its tile of reference/query columns from
    # scratch — no GEMM reuse
    flops = 2.0 * m * n * d
    distance_us = spec.kernel_launch_us + flops / (spec.fp32_tflops * 1e12 * DIST_KERNEL_EFF_FP32) * 1e6
    return [
        ("compute", distance_us, "distance kernel"),
        ("compute", insertion_sort_us(spec, cal, m, n, "fp32"), "Top-2 sort"),
        ("d2h", d2h_result_us(spec, cal, n, 1, k, "fp32"), "D2H copy"),
        ("cpu", postprocess_us(cal, 1, "fp32", n), "Post-processing"),
    ]


def opencv_knn_match(
    device: Optional[GPUDevice],
    reference: np.ndarray,
    query: np.ndarray,
    k: int = 2,
) -> KnnResult:
    """Brute-force FP32 2-NN, charged with the OpenCV cost model
    (``device=None`` computes only), computed as Algorithm 1 in FP32.

    ``reference``/``query`` are ``(d, m)`` / ``(d, n)`` FP32 matrices.
    """
    reference = np.asarray(reference, dtype=np.float32)
    query = np.asarray(query, dtype=np.float32)
    if reference.ndim != 2 or query.ndim != 2 or reference.shape[0] != query.shape[0]:
        raise ValueError(f"incompatible shapes {reference.shape} / {query.shape}")
    d, m = reference.shape
    n = query.shape[1]
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if device is not None:
        device.charge(opencv_steps_us(device.spec, device.cal, m, n, d, k)[:-1])
    return knn_algorithm1(None, prepare_reference(reference, "fp32"), prepare_reference(query, "fp32"), k)
