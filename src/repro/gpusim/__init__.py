"""Simulated-GPU substrate.

The paper runs on Tesla P100/V100 cards; this reproduction executes all
kernels functionally in NumPy while a calibrated analytic model charges
simulated time to one in-order queue per device (each operation tagged
with its engine: compute, H2D, D2H, CPU) and tracks memory pools.  See
DESIGN.md Sec. 2 for the substitution rationale and
:mod:`repro.gpusim.calibration` for every anchored constant.
"""

from .calibration import GemmCalibration, HammingCalibration, KernelCalibration, ScanCalibration
from .device import (
    DEVICE_REGISTRY,
    TESLA_A100,
    TESLA_P100,
    TESLA_V100,
    DeviceSpec,
    get_device_spec,
)
from .engine_model import GPUDevice
from .kernels import (
    d2h_result_us,
    dtype_bytes,
    elementwise_us,
    gemm_us,
    hamming_us,
    insertion_sort_us,
    norm_vector_us,
    postprocess_us,
    result_bytes,
    top2_scan_us,
)
from .memory import Allocation, MemoryPool
from .pcie import TransferModel, effective_h2d_bandwidth_gbs, h2d_time_us
from .profiler import StepProfiler, StepRecord
from .tracing import TimelineTracer, TraceEvent

__all__ = [
    "Allocation",
    "DEVICE_REGISTRY",
    "DeviceSpec",
    "GPUDevice",
    "GemmCalibration",
    "HammingCalibration",
    "KernelCalibration",
    "MemoryPool",
    "ScanCalibration",
    "StepProfiler",
    "StepRecord",
    "TESLA_A100",
    "TESLA_P100",
    "TESLA_V100",
    "TimelineTracer",
    "TraceEvent",
    "TransferModel",
    "d2h_result_us",
    "dtype_bytes",
    "effective_h2d_bandwidth_gbs",
    "elementwise_us",
    "gemm_us",
    "get_device_spec",
    "h2d_time_us",
    "hamming_us",
    "insertion_sort_us",
    "norm_vector_us",
    "postprocess_us",
    "result_bytes",
    "top2_scan_us",
]
