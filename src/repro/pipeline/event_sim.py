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
    h2d_us: float,
    steps: list[tuple],
) -> EventSimResult:
    """Simulate ``n_batches`` reference batches of ``batch`` images through
    ``streams`` CUDA streams on the event-driven device.

    Each batch is what :func:`repro.pipeline.scheduler.plan_streams`
    prices: ``h2d_us`` of H2D (none for a GPU-resident batch,
    ``h2d_us=0``), then the device steps of its kernel's ``(engine, us,
    step)`` list — the ``cpu`` ones run on other workers.  Each stream
    processes its partition in order; engines (one H2D, one compute, one
    D2H) serialise across streams, so copy/compute overlap emerges
    naturally.
    """
    if streams < 1 or n_batches < 1 or batch < 1:
        raise ValueError("streams, n_batches and batch must be >= 1")
    device = GPUDevice(spec, cal)
    stream_objs = [device.create_stream(f"s{i}") for i in range(streams)]
    # the batches divide equally over the streams, the first ``extra`` one more
    base, extra = divmod(n_batches, streams)
    counts = [base + (s < extra) for s in range(streams)]
    staged = [("h2d", h2d_us, "H2D copy")] if h2d_us else []
    issued = staged + [step for step in steps if step[0] != "cpu"]

    # Interleave issue order round-robin across streams (the CPU threads
    # all enqueue concurrently); in-stream order is preserved by the
    # stream semantics regardless of issue order.
    for i in range(max(counts)):
        for stream, count in zip(stream_objs, counts):
            if i < count:
                device.charge(issued, stream)

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
