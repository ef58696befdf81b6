"""The simulated GPU device: engines, streams, memory, profiling.

A :class:`GPUDevice` models the resources a CUDA device exposes:

* one **compute** engine — kernels from all streams serialize on it
  (a conservative first-order model of SM sharing; the paper's kernels
  are each large enough to fill the device, so concurrent kernels would
  time-slice rather than truly overlap);
* one **h2d** and one **d2h** copy engine — transfers overlap compute,
  which is what multi-stream scheduling exploits (Sec. 6.2);
* one **cpu** engine for the host post-processing stage (the paper's
  single search thread serializes it into the loop, Table 3).

Time is simulated: an operation on engine *e*, stream *s* starts at
``max(engine_free[e], stream_ready[s])`` and occupies both until it
ends.  This reproduces copy/compute overlap, in-stream ordering, and
engine contention without a full event queue.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InvalidStreamError
from .calibration import KernelCalibration
from .clock import SimClock
from .device import DeviceSpec
from .kernels import (
    d2h_result_us,
    elementwise_us,
    gemm_us,
    hamming_us,
    insertion_sort_us,
    norm_vector_us,
    postprocess_us,
    top2_scan_us,
)
from .memory import Allocation, MemoryPool
from .pcie import h2d_time_us
from .profiler import StepProfiler
from .stream import Event, Stream

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
        self.clock = SimClock()
        self.profiler = StepProfiler()
        self._engine_free: dict[str, float] = {e: 0.0 for e in _ENGINES}
        self.default_stream = Stream(self.device_id, name="default")
        self._streams: list[Stream] = [self.default_stream]

    # ------------------------------------------------------------------
    # streams & raw submission
    # ------------------------------------------------------------------
    def create_stream(self, name: str = "") -> Stream:
        stream = Stream(self.device_id, name=name)
        self._streams.append(stream)
        return stream

    def _resolve_stream(self, stream: Optional[Stream]) -> Stream:
        if stream is None:
            return self.default_stream
        if stream.device_id != self.device_id:
            raise InvalidStreamError(
                f"stream {stream.name!r} belongs to device {stream.device_id}, "
                f"not device {self.device_id}"
            )
        return stream

    def submit(
        self,
        engine: str,
        duration_us: float,
        stream: Optional[Stream] = None,
        step: Optional[str] = None,
    ) -> float:
        """Enqueue an operation; returns its completion time (us).

        The operation starts when both the engine and the stream are
        free, and holds both for ``duration_us``.
        """
        if engine not in self._engine_free:
            raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        s = self._resolve_stream(stream)
        start = max(self._engine_free[engine], s.ready_at_us)
        end = start + duration_us
        self._engine_free[engine] = end
        s.ready_at_us = end
        s.ops_issued += 1
        self.clock.advance_to(end)
        if step is not None:
            self.profiler.add(step, duration_us)
        return end

    def charge(self, steps, stream: Optional[Stream] = None) -> None:
        """Submit pre-costed ``(engine, duration_us, step)`` operations
        back to back: a recurring step list is costed once, where the
        typed operations below evaluate their cost model per call."""
        for engine, duration_us, step in steps:
            self.submit(engine, duration_us, stream, step)

    def synchronize(self) -> float:
        """Wait for all engines/streams; returns the elapsed time (us)."""
        t = self.elapsed_us()
        for e in self._engine_free:
            self._engine_free[e] = t
        for s in self._streams:
            s.ready_at_us = t
        return t

    def elapsed_us(self) -> float:
        latest = max(self._engine_free.values(), default=0.0)
        latest = max([latest] + [s.ready_at_us for s in self._streams])
        return self.clock.advance_to(latest)

    def reset_timing(self) -> None:
        """Rewind all simulated time (memory contents are untouched)."""
        self.clock.reset()
        for e in self._engine_free:
            self._engine_free[e] = 0.0
        for s in self._streams:
            s.ready_at_us = 0.0
        self.profiler.reset()

    # ------------------------------------------------------------------
    # typed operations (cost models + profiling)
    # ------------------------------------------------------------------
    def h2d(
        self,
        nbytes: int,
        stream: Optional[Stream] = None,
        pinned: bool = True,
        step: str = "H2D copy",
    ) -> float:
        """Host -> device feature transfer."""
        return self.submit("h2d", h2d_time_us(self.spec, nbytes, pinned), stream, step)

    def d2h_result(
        self,
        n: int,
        batch: int,
        k: int = 2,
        dtype: str = "fp16",
        stream: Optional[Stream] = None,
        step: str = "D2H copy",
    ) -> float:
        """Step-8 result gather (top-k distances + indices)."""
        dur = d2h_result_us(self.spec, self.cal, n, batch, k, dtype)
        return self.submit("d2h", dur, stream, step)

    def gemm(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        dtype: str = "fp16",
        tensor_core: bool = False,
        stream: Optional[Stream] = None,
        step: str = "GEMM",
    ) -> float:
        dur = gemm_us(self.spec, self.cal, m, n, k, batch, dtype, tensor_core)
        return self.submit("compute", dur, stream, step)

    def hamming_prefilter(
        self,
        m: int,
        n: int,
        words: int,
        batch: int = 1,
        stream: Optional[Stream] = None,
        step: str = "Hamming prefilter",
    ) -> float:
        """Cascade XOR/popcount prune ahead of the exact GEMM."""
        dur = hamming_us(self.spec, self.cal, m, n, words, batch)
        return self.submit("compute", dur, stream, step)

    def top2_scan(
        self,
        m: int,
        columns: int,
        dtype: str = "fp16",
        stream: Optional[Stream] = None,
        step: str = "Top-2 sort",
    ) -> float:
        dur = top2_scan_us(self.spec, self.cal, m, columns, dtype)
        return self.submit("compute", dur, stream, step)

    def insertion_sort(
        self,
        m: int,
        columns: int,
        dtype: str = "fp32",
        stream: Optional[Stream] = None,
        step: str = "Top-2 sort",
    ) -> float:
        dur = insertion_sort_us(self.spec, self.cal, m, columns, dtype)
        return self.submit("compute", dur, stream, step)

    def elementwise(
        self,
        elements: int,
        dtype: str = "fp16",
        rw_factor: float = 1.0,
        stream: Optional[Stream] = None,
        step: str = "elementwise",
    ) -> float:
        dur = elementwise_us(self.spec, self.cal, elements, dtype, rw_factor)
        return self.submit("compute", dur, stream, step)

    def norm_vector(
        self,
        features: int,
        d: int,
        dtype: str = "fp16",
        stream: Optional[Stream] = None,
        step: str = "norms",
    ) -> float:
        dur = norm_vector_us(self.spec, self.cal, features, d, dtype)
        return self.submit("compute", dur, stream, step)

    def cpu_postprocess(
        self,
        batch: int,
        dtype: str = "fp16",
        n: int = 768,
        stream: Optional[Stream] = None,
        step: str = "Post-processing",
    ) -> float:
        dur = postprocess_us(self.cal, batch, dtype, n)
        return self.submit("cpu", dur, stream, step)

    # ------------------------------------------------------------------
    # memory helpers
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        return self.memory.alloc(nbytes, label)

    def free(self, allocation: Allocation) -> None:
        self.memory.free(allocation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPUDevice({self.spec.name!r}, t={self.elapsed_us():.1f}us)"
