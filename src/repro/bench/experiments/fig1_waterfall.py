"""Figure 1 — cumulative effect of the four optimization strategies.

The paper's headline: starting from the OpenCV CUDA baseline on one
P100 (16 GB GPU + 64 GB host), the four contributions stack up to
"20x larger capacity and 31x faster speed".  This experiment applies
them cumulatively and reports capacity (cacheable reference matrices)
and speed (image comparisons/s) after each stage, every speed read off
a timing-only sweep of an engine so configured
(:func:`repro.bench.tables.swept`).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.engine_model import GPUDevice
from ..tables import ExperimentResult, swept
from .table7_asymmetric import cell_speed

__all__ = ["run"]


def run(
    spec: DeviceSpec = TESLA_P100,
    host_cache_bytes: int = 64 * 10**9,
    d: int = 128,
) -> ExperimentResult:
    cal = KernelCalibration.for_device(spec)
    stages: list[tuple[str, float, int]] = []

    def stage(label: str, config: EngineConfig, batch: int = 1, hybrid: bool = False,
              speed: float | None = None) -> None:
        """One stage: its speed (a GPU-resident sweep of one ``batch``-image
        batch unless given) and the capacity of an engine so configured on
        ``spec``."""
        config = config.with_updates(d=d)
        if speed is None:
            speed = swept(spec, config.with_updates(batch_size=batch), 1)[0].images_per_s
        engine = TextureSearchEngine(config, device=GPUDevice(spec, cal),
                                     host_cache_bytes=host_cache_bytes if hybrid else 0)
        stages.append((label, speed, engine.capacity_images()))

    # Stage 0: OpenCV CUDA baseline — FP32, GPU-resident only.
    stage("baseline: OpenCV CUDA (FP32)", EngineConfig(backend="opencv", precision="fp32"))
    # Stage 1: + cuBLAS Algorithm 1 with register top-2 scan (FP32).
    stage("+ cuBLAS 2-NN (top-2 scan)", EngineConfig(backend="algorithm1", precision="fp32"))
    # Stage 2: + FP16 storage (halves footprint; batch-1 speed dips).
    stage("+ FP16 (scale factor)", EngineConfig(backend="algorithm1", precision="fp16"))
    # Stage 3: + RootSIFT + batching (batch 1024, GPU-resident).
    stage("+ RootSIFT + batching (1024)", EngineConfig(), 1024)
    # Stage 4: + hybrid cache with 8 streams (references on host).
    streamed = EngineConfig(d=d, batch_size=512, streams=8)
    stage("+ hybrid cache + 8 streams", EngineConfig(), hybrid=True,
          speed=swept(spec, streamed, 8, host=True)[0].images_per_s)
    # Stage 5: + asymmetric extraction m=384 (transfer halves; the
    # pipeline becomes compute-bound): the Table 7 m=384 / n=768 cell, as
    # the paper quotes it.
    stage("+ asymmetric m=384, n=768", EngineConfig(m=384, n=768), hybrid=True,
          speed=cell_speed(spec, 384, 768, d))

    base_speed, base_cap = stages[0][1], stages[0][2]
    result = ExperimentResult(
        name=f"Fig. 1: optimization waterfall ({spec.name}, 16 GB GPU + "
        f"{host_cache_bytes/1e9:.0f} GB host)",
        headers=["stage", "speed (img/s)", "speedup", "capacity (images)", "capacity gain"],
    )
    for label, speed, cap in stages:
        result.rows.append(
            [label, int(round(speed)), f"{speed/base_speed:.1f}x", cap, f"{cap/base_cap:.1f}x"]
        )
    result.summary = {
        "final_speedup": stages[-1][1] / base_speed,
        "final_capacity_gain": stages[-1][2] / base_cap,
    }
    result.notes.append("paper: 31x faster search, 20x larger feature cache capacity")
    return result
