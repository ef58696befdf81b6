"""Multi-stream overlap model (Sec. 6.2, Table 6).

The paper dedicates one CPU thread + one CUDA stream to each equal
slice of the host-resident reference batches.  Within a thread the
cycle per batch is H2D -> kernels -> D2H (issued synchronously), while
across threads the PCIe engine arbitrates transfers in chunks — each
concurrent stream sees ~1/S of the link — and the device still runs
one kernel at a time.  Over batches whose H2D totals ``h2d_us`` and
whose device work (compute + D2H) totals ``busy_us``, ``S`` streams
therefore take::

    overlap_us(S, h2d_us, busy_us) = max(h2d_us + busy_us / S, busy_us)

with CPU post-processing moved to the other workers; one stream stays
the serial cycle, post-processing included.  The inputs are a batch's
H2D time and the step list its match kernel charges (``batch_steps``),
so the engine's sweep and the tables price a batch one way.  The model
reproduces Table 6's ramp (52.5 % -> 87.3 % schedule efficiency from 1
to 8 streams) and its *theoretical speed* — the pure PCIe bound
``batch / t_h2d`` (47,592 img/s for m=768 FP16 at 9.4 GB/s, Sec. 6.2).

Extra GPU memory per stream is the stream's private similarity matrix
``A`` (batch x m x n) plus its staging buffer for the in-flight
reference batch, atop a fixed engine overhead — matching Table 6's
measured footprints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.kernels import dtype_bytes

__all__ = ["StreamPlan", "overlap_us", "plan_streams", "stream_extra_gpu_bytes"]

#: fixed engine overhead independent of stream count (cuBLAS workspace,
#: query buffers, ...), fit from Table 6's footprints.
FIXED_OVERHEAD_BYTES = int(0.3e9)


def overlap_us(streams: int, h2d_us: float, busy_us: float) -> float:
    """Table 6's rule: PCIe fair-shared over ``streams``, the device serial."""
    return max(h2d_us + busy_us / streams, busy_us)


@dataclass(frozen=True)
class StreamPlan:
    """``streams`` streams over host-resident work of ``batch`` images:
    its H2D, its device compute + D2H (``busy_us``) and its CPU
    post-processing."""

    streams: int
    batch: int
    h2d_us: float
    busy_us: float
    post_us: float

    @property
    def serial_us(self) -> float:
        return self.h2d_us + self.busy_us + self.post_us

    @property
    def cycle_us(self) -> float:
        if self.streams == 1:
            return self.serial_us
        return overlap_us(self.streams, self.h2d_us, self.busy_us)

    @property
    def hidden_us(self) -> float:
        """What the overlap takes off the serial time (0.0 at one stream)."""
        return self.serial_us - self.cycle_us

    @property
    def throughput_images_per_s(self) -> float:
        return self.batch / self.cycle_us * 1e6

    @property
    def theoretical_images_per_s(self) -> float:
        """The pure PCIe bound."""
        return self.batch / self.h2d_us * 1e6

    @property
    def schedule_efficiency(self) -> float:
        """Eq. 4: achieved / theoretical speed."""
        return self.throughput_images_per_s / self.theoretical_images_per_s


def plan_streams(streams: int, batch: int, h2d_us: float, steps: list[tuple]) -> StreamPlan:
    """``streams`` streams over ``batch`` host-resident images that stage
    ``h2d_us`` of H2D and charge the ``(engine, us, step)`` list ``steps``."""
    if streams < 1:
        raise ValueError("streams must be >= 1")
    busy = sum(us for engine, us, _ in steps if engine != "cpu")
    post = sum(us for engine, us, _ in steps if engine == "cpu")
    return StreamPlan(streams, batch, h2d_us, busy, post)


def stream_extra_gpu_bytes(
    streams: int,
    batch: int,
    m: int,
    n: int,
    d: int = 128,
    precision: str = "fp16",
) -> int:
    """Per-configuration extra GPU memory (Table 6, column 3)."""
    if streams < 1 or batch < 1:
        raise ValueError("streams and batch must be >= 1")
    elem = dtype_bytes(precision)
    per_stream = batch * m * n * elem + batch * m * d * elem
    return FIXED_OVERHEAD_BYTES + streams * per_stream
