"""Table 6 — multi-stream overlap (all references host-resident,
m = n = 768, Tesla P100).

Paper: batch 512 climbs 24,984 -> 41,546 img/s (52.5 % -> 87.3 %
schedule efficiency) from 1 to 8 streams; batch 256 similar; extra GPU
memory grows ~0.7 GB (batch 512) per stream; theoretical PCIe-bound
speed 47,592 img/s.
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...pipeline.scheduler import plan_streams, stream_extra_gpu_bytes
from ..tables import ExperimentResult, staged_batch

__all__ = ["run", "DEFAULT_GRID"]

DEFAULT_GRID = [(512, 1), (512, 2), (512, 4), (512, 8), (256, 1), (256, 2), (256, 4), (256, 8)]


def run(
    spec: DeviceSpec = TESLA_P100,
    grid: list[tuple[int, int]] | None = None,
    m: int = 768,
    n: int = 768,
    d: int = 128,
) -> ExperimentResult:
    grid = grid if grid is not None else list(DEFAULT_GRID)
    config = EngineConfig(m=m, n=n, d=d, precision="fp16")
    result = ExperimentResult(
        name=f"Table 6: CPU threads / CUDA streams, m={m} n={n}, {spec.name}",
        headers=["BatchSize", "CUDA streams", "Extra GPU mem (GB)",
                 "Speed (images/s)", "Schedule efficiency"],
    )
    plans = {}
    for batch, streams in grid:
        plan = plan_streams(streams, batch, *staged_batch(spec, config, batch))
        plans[(batch, streams)] = plan
        result.rows.append(
            [
                batch,
                streams,
                round(stream_extra_gpu_bytes(streams, batch, m, n, d) / 1e9, 3),
                int(round(plan.throughput_images_per_s)),
                f"{plan.schedule_efficiency:.1%}",
            ]
        )
    any_plan = next(iter(plans.values()))
    result.summary = {
        "theoretical_images_per_s": any_plan.theoretical_images_per_s,
    }
    if (512, 1) in plans and (512, 8) in plans:
        result.summary["b512_streams_gain"] = (
            plans[(512, 8)].throughput_images_per_s / plans[(512, 1)].throughput_images_per_s
        )
        result.summary["b512_s8_efficiency"] = plans[(512, 8)].schedule_efficiency
    result.notes.append(
        "paper: b512 speeds 24,984 / 29,459 / 37,955 / 41,546 (eff 52.5/61.9/79.8/87.3%); "
        "theoretical 47,592 img/s; extra mem 0.989 -> 5.819 GB"
    )
    return result
