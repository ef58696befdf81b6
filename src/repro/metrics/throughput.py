"""GPU efficiency (Eq. 3): achieved TFLOPS over theoretical peak, where
achieved TFLOPS counts the 2-NN's GEMM work (``2 m n d`` FLOPs per image
comparison) against wall-clock search time (Table 4).  Schedule
efficiency (Eq. 4) is Table 6's ratio of two speeds, computed there
(:mod:`repro.bench.experiments.table6_streams`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.device import DeviceSpec

__all__ = ["EfficiencyReport", "gemm_flops_per_image", "gpu_efficiency"]


def gemm_flops_per_image(m: int, n: int, d: int) -> float:
    """Multiply-add work of one image comparison's similarity matrix."""
    if m <= 0 or n <= 0 or d <= 0:
        raise ValueError("m, n, d must be positive")
    return 2.0 * m * n * d


@dataclass(frozen=True)
class EfficiencyReport:
    """Achieved vs. theoretical arithmetic throughput."""

    images_per_s: float
    achieved_tflops: float
    theoretical_tflops: float

    @property
    def efficiency(self) -> float:
        if self.theoretical_tflops <= 0:
            return 0.0
        return self.achieved_tflops / self.theoretical_tflops


def gpu_efficiency(
    spec: DeviceSpec,
    images_per_s: float,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    dtype: str = "fp16",
    tensor_core: bool = False,
) -> EfficiencyReport:
    """Eq. 3 for a measured search speed."""
    if images_per_s < 0:
        raise ValueError("images_per_s must be non-negative")
    achieved = images_per_s * gemm_flops_per_image(m, n, d) / 1e12
    return EfficiencyReport(
        images_per_s=images_per_s,
        achieved_tflops=achieved,
        theoretical_tflops=spec.peak_tflops(dtype, tensor_core),
    )
