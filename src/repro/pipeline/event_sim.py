"""Event-driven multi-stream simulation.

The analytic model in :mod:`repro.pipeline.scheduler` assumes fair-share
PCIe arbitration (what the paper's thread-per-stream CPU code actually
achieves, per Table 6).  This module simulates the same workload on the
event-driven device (exclusive engines, streams truly pipelining) —
the *upper bound* a perfectly asynchronous implementation could reach.
The gap between the two is an ablation of the paper's scheduling
design: `ablation: stream scheduling` in the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.calibration import KernelCalibration
from ..gpusim.device import DeviceSpec
from ..gpusim.engine_model import GPUDevice
from ..gpusim.kernels import dtype_bytes, knn_steps_us

__all__ = ["EventSimResult", "simulate_stream_pipeline"]


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one event-driven pipeline simulation."""

    streams: int
    batches: int
    batch_size: int
    elapsed_us: float
    throughput_images_per_s: float
    engine_busy_us: dict


def simulate_stream_pipeline(
    spec: DeviceSpec,
    cal: KernelCalibration,
    streams: int,
    n_batches: int,
    batch: int,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    precision: str = "fp16",
    pinned: bool = True,
    host_resident: bool = True,
) -> EventSimResult:
    """Simulate ``n_batches`` reference batches through ``streams``
    CUDA streams on the event-driven device.

    Each stream processes its partition in-order: (H2D if the batch is
    host-resident) -> batched GEMM -> top-2 scan -> sqrt -> D2H result.
    Engines (one H2D, one compute, one D2H) serialise across streams,
    so copy/compute overlap emerges naturally.
    """
    if streams < 1 or n_batches < 1 or batch < 1:
        raise ValueError("streams, n_batches and batch must be >= 1")
    device = GPUDevice(spec, cal)
    stream_objs = [device.create_stream(f"s{i}") for i in range(streams)]
    # the batches divide equally over the streams, the first ``extra`` one more
    base, extra = divmod(n_batches, streams)
    counts = [base + (s < extra) for s in range(streams)]
    transfer_bytes = batch * m * d * dtype_bytes(precision)
    knn_steps = knn_steps_us(spec, cal, batch, m, n, d, 2, precision)

    # Interleave issue order round-robin across streams (the CPU threads
    # all enqueue concurrently); in-stream order is preserved by the
    # stream semantics regardless of issue order.
    for i in range(max(counts)):
        for stream, count in zip(stream_objs, counts):
            if i >= count:
                continue
            if host_resident:
                device.h2d(transfer_bytes, stream=stream, pinned=pinned)
            device.charge(knn_steps, stream)

    elapsed = device.synchronize()
    images = n_batches * batch
    return EventSimResult(
        streams=streams,
        batches=n_batches,
        batch_size=batch,
        elapsed_us=elapsed,
        throughput_images_per_s=images / elapsed * 1e6 if elapsed > 0 else 0.0,
        engine_busy_us=device.profiler.as_dict(),
    )
