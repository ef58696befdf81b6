"""Model of the OpenCV CUDA ``knnMatch`` baseline (Table 1, column 1).

The paper's starting point: OpenCV's native CUDA brute-force matcher,
which computes per-pair distances without GEMM data reuse and selects
neighbours with a general-k in-memory sort.  The paper measures
2,012 img/s on a P100 and 2,937 img/s on a V100 (Sec. 3.3) and
attributes the gap to ~4 % utilisation of the card's compute potential.

Functionally this is Algorithm 1 in FP32 (the engine's ``opencv``
kernel, :class:`~repro.baselines.adapters.OpenCVKernel`, computes it);
only the cost model differs.
"""

from __future__ import annotations

from ..gpusim.calibration import KernelCalibration
from ..gpusim.device import DeviceSpec
from ..gpusim.kernels import d2h_result_us, insertion_sort_us, postprocess_us

__all__ = ["opencv_steps_us", "CONTEXT_OVERHEAD_BYTES", "DIST_KERNEL_EFF_FP32"]

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
    and the host post-processing; the engine's ``opencv`` kernel charges all
    four per image it compares."""
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
