"""Forward-looking device sweep.

The paper notes its FP16 design also targets newer cards ("such as
Tesla P100, V100, and A100", Sec. 4.2).  This experiment predicts the
production configuration's behaviour across the device registry:
GPU-resident speed, host-streamed speed (hybrid cache + 8 streams),
single-node capacity, and the PCIe bound that determines whether the
asymmetric optimization has moved the bottleneck — each speed a
timing-only sweep of the production engine on that card
(:func:`repro.bench.tables.swept`).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import DEVICE_REGISTRY
from ...gpusim.engine_model import GPUDevice
from ..tables import ExperimentResult, pcie_bound, swept

__all__ = ["run"]

GIB = 1024**3


def run(
    m: int = 384,
    n: int = 768,
    d: int = 128,
    batch: int = 256,
    streams: int = 8,
    host_cache_bytes: int = 64 * 10**9,
) -> ExperimentResult:
    result = ExperimentResult(
        name=f"Device sweep: production config m={m} n={n} FP16, batch {batch}, "
        f"{streams} streams",
        headers=["device", "GPU-resident (img/s)", "hybrid+streams (img/s)",
                 "PCIe bound (img/s)", "bottleneck", "capacity (images)"],
    )
    config = EngineConfig(m=m, n=n, d=d, precision="fp16", batch_size=batch, streams=streams)
    for key in ("p100", "v100", "a100"):
        spec = DEVICE_REGISTRY[key]
        cal = KernelCalibration.for_device(spec)
        resident = swept(spec, config, 1)[0].images_per_s
        sweep, step_us = swept(spec, config, streams, host=True)
        bound = pcie_bound(sweep, step_us)
        hybrid = sweep.images_per_s
        bottleneck = "PCIe" if bound < resident else "compute"
        capacity = TextureSearchEngine(config, device=GPUDevice(spec, cal, reserved_bytes=4 * GIB),
                                       host_cache_bytes=host_cache_bytes).capacity_images()
        result.rows.append(
            [spec.name, int(round(resident)), int(round(hybrid)),
             int(round(bound)), bottleneck, capacity]
        )
        result.summary[key] = hybrid
    result.notes.append(
        "at m=384 the P100 is compute-bound (the Sec. 7 result); faster "
        "cards flip back to transfer-bound unless the link keeps pace "
        "with them (V100: PCIe Gen3; the A100's Gen4 is not enough)"
    )
    return result
