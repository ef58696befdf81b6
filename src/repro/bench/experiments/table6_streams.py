"""Table 6 — multi-stream overlap (all references host-resident,
m = n = 768, Tesla P100).

Paper: batch 512 climbs 24,984 -> 41,546 img/s (52.5 % -> 87.3 %
schedule efficiency) from 1 to 8 streams; batch 256 similar; extra GPU
memory grows ~0.7 GB (batch 512) per stream; theoretical PCIe-bound
speed 47,592 img/s.

Each row is a timing-only engine sweep of one host-resident batch per
stream (:func:`repro.bench.tables.swept`); its PCIe bound — the
theoretical speed of Eq. 4 — is the images it swept over the H2D time it
charged.  Extra GPU memory per stream is the stream's private similarity
matrix ``A`` (batch x m x n) plus its staging buffer for the in-flight
reference batch, atop a fixed engine overhead.
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.kernels import dtype_bytes
from ..tables import ExperimentResult, pcie_bound, swept

__all__ = ["run", "DEFAULT_GRID", "FIXED_OVERHEAD_BYTES", "stream_extra_gpu_bytes"]

DEFAULT_GRID = [(512, 1), (512, 2), (512, 4), (512, 8), (256, 1), (256, 2), (256, 4), (256, 8)]

#: fixed engine overhead independent of stream count (cuBLAS workspace,
#: query buffers, ...), fit from Table 6's footprints.
FIXED_OVERHEAD_BYTES = int(0.3e9)


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


def run(
    spec: DeviceSpec = TESLA_P100,
    grid: list[tuple[int, int]] | None = None,
    m: int = 768,
    n: int = 768,
    d: int = 128,
) -> ExperimentResult:
    grid = grid if grid is not None else list(DEFAULT_GRID)
    result = ExperimentResult(
        name=f"Table 6: CPU threads / CUDA streams, m={m} n={n}, {spec.name}",
        headers=["BatchSize", "CUDA streams", "Extra GPU mem (GB)",
                 "Speed (images/s)", "Schedule efficiency"],
    )
    speeds, bounds = {}, {}
    for batch, streams in grid:
        config = EngineConfig(m=m, n=n, d=d, precision="fp16", batch_size=batch, streams=streams)
        sweep, step_us = swept(spec, config, streams, host=True)
        speed = speeds[(batch, streams)] = sweep.images_per_s
        bound = bounds[(batch, streams)] = pcie_bound(sweep, step_us)
        result.rows.append(
            [
                batch,
                streams,
                round(stream_extra_gpu_bytes(streams, batch, m, n, d) / 1e9, 3),
                int(round(speed)),
                f"{speed / bound:.1%}",
            ]
        )
    result.summary = {"theoretical_images_per_s": next(iter(bounds.values()))}
    if (512, 1) in speeds and (512, 8) in speeds:
        result.summary["b512_streams_gain"] = speeds[(512, 8)] / speeds[(512, 1)]
        result.summary["b512_s8_efficiency"] = speeds[(512, 8)] / bounds[(512, 8)]
    result.notes.append(
        "paper: b512 speeds 24,984 / 29,459 / 37,955 / 41,546 (eff 52.5/61.9/79.8/87.3%); "
        "theoretical 47,592 img/s; extra mem 0.989 -> 5.819 GB"
    )
    return result
