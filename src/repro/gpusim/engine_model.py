"""The simulated GPU device: one in-order queue, memory, profiling.

A :class:`GPUDevice` runs every operation on one in-order queue, the
default CUDA stream: an operation starts when the one before it ends and
advances the device's one float of simulated time by its duration.
Each names the engine it would occupy on the card — ``compute``, the
``h2d`` / ``d2h`` copy engines, or ``cpu`` for the host post-processing
stage the paper's single search thread serialises into the loop
(Table 3) — but the name is only a validated tag: the profiler files
the duration under its step, and the timeline tracer draws one lane per
engine.  Copy/compute overlap is not modelled here; the multi-stream
rule of Sec. 6.2 is applied by the engine's sweep
(:func:`repro.core.engine.hidden_us`).
"""

from __future__ import annotations

from typing import Optional

from .calibration import KernelCalibration
from .device import DeviceSpec
from .kernels import d2h_result_us, elementwise_us, gemm_us, postprocess_us, top2_scan_us
from .memory import Allocation, MemoryPool
from .pcie import h2d_time_us
from .profiler import StepProfiler

__all__ = ["GPUDevice"]

_ENGINES = ("compute", "h2d", "d2h", "cpu")

_next_device_id = 0


class GPUDevice:
    """One simulated GPU card.

    Parameters
    ----------
    spec:
        Hardware description (:data:`repro.gpusim.TESLA_P100`, ...).
    calibration:
        Kernel cost constants; defaults to
        :meth:`KernelCalibration.for_device`.
    reserved_bytes:
        Device memory reserved for engine intermediates (Sec. 8 reserves
        4 GB of each 16 GB card).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        calibration: Optional[KernelCalibration] = None,
        reserved_bytes: int = 0,
    ) -> None:
        global _next_device_id
        _next_device_id += 1
        self.device_id = _next_device_id
        self.spec = spec
        self.cal = calibration or KernelCalibration.for_device(spec)
        self.memory = MemoryPool(spec.mem_bytes, name=f"{spec.name}#{self.device_id}",
                                 reserved_bytes=reserved_bytes)
        self.profiler = StepProfiler()
        self._now_us = 0.0

    # ------------------------------------------------------------------
    # raw submission
    # ------------------------------------------------------------------
    def submit(self, engine: str, duration_us: float, step: Optional[str] = None) -> float:
        """Enqueue an operation on ``engine``; returns its completion time
        (us).  It starts when the previous operation ends."""
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        end = self._now_us + duration_us
        self._now_us = float(end)
        if step is not None:
            self.profiler.add(step, duration_us)
        return end

    def charge(self, steps) -> None:
        """Submit pre-costed ``(engine, duration_us, step)`` operations
        back to back: how every kernel charges what it computes.  A step
        list is costed once by the :mod:`repro.gpusim.kernels` models,
        where the typed operations below evaluate their model per call."""
        for engine, duration_us, step in steps:
            self.submit(engine, duration_us, step)

    def synchronize(self) -> float:
        """Wait for the queue to drain; returns the elapsed time (us)."""
        return self._now_us

    def elapsed_us(self) -> float:
        return self._now_us

    def reset_timing(self) -> None:
        """Rewind all simulated time (memory contents are untouched)."""
        self._now_us = 0.0
        self.profiler.reset()

    # ------------------------------------------------------------------
    # typed operations (cost model + submit in one call).  Only ``h2d``
    # (the query upload) and the device branches of the ``repro.blas``
    # GEMM helpers still charge through them; the rest remain because
    # the host-clock tracer (``perfbench/tracer.py``) binds them by name.
    # ------------------------------------------------------------------
    def h2d(self, nbytes: int, pinned: bool = True, step: str = "H2D copy") -> float:
        """Host -> device feature transfer."""
        return self.submit("h2d", h2d_time_us(self.spec, nbytes, pinned), step)

    def d2h_result(
        self, n: int, batch: int, k: int = 2, dtype: str = "fp16", step: str = "D2H copy",
    ) -> float:
        """Step-8 result gather (top-k distances + indices)."""
        return self.submit("d2h", d2h_result_us(self.spec, self.cal, n, batch, k, dtype), step)

    def gemm(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        dtype: str = "fp16",
        tensor_core: bool = False,
        step: str = "GEMM",
    ) -> float:
        dur = gemm_us(self.spec, self.cal, m, n, k, batch, dtype, tensor_core)
        return self.submit("compute", dur, step)

    def top2_scan(self, m: int, columns: int, dtype: str = "fp16", step: str = "Top-2 sort") -> float:
        return self.submit("compute", top2_scan_us(self.spec, self.cal, m, columns, dtype), step)

    def elementwise(
        self, elements: int, dtype: str = "fp16", rw_factor: float = 1.0, step: str = "elementwise",
    ) -> float:
        dur = elementwise_us(self.spec, self.cal, elements, dtype, rw_factor)
        return self.submit("compute", dur, step)

    def cpu_postprocess(
        self, batch: int, dtype: str = "fp16", n: int = 768, step: str = "Post-processing",
    ) -> float:
        return self.submit("cpu", postprocess_us(self.cal, batch, dtype, n), step)

    # ------------------------------------------------------------------
    # memory helpers
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        return self.memory.alloc(nbytes, label)

    def free(self, allocation: Allocation) -> None:
        self.memory.free(allocation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPUDevice({self.spec.name!r}, t={self.elapsed_us():.1f}us)"
