"""Figure 4 — search speed vs. batch size (RootSIFT + FP16 batching).

The paper sweeps batch size 1..1024 on P100 and V100 (with and without
tensor cores), all references GPU-resident: P100 climbs 5,753 ->
45,539 img/s (7.9x), V100 7.5x, tensor cores peak at 86,519 img/s, and
the curve flattens past batch 256.
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, TESLA_V100, DeviceSpec
from ..tables import ExperimentResult, images_per_s, kernel_steps

__all__ = ["run", "DEFAULT_BATCHES"]

DEFAULT_BATCHES = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def speed_at(spec: DeviceSpec, batch: int, m: int, n: int, d: int,
             tensor_core: bool = False) -> float:
    """Images/s of the FP16 Algorithm-2 kernel's batch chain, GPU-resident."""
    config = EngineConfig(m=m, n=n, d=d, precision="fp16", tensor_core=tensor_core)
    return images_per_s(kernel_steps(spec, config, batch), batch)


def run(
    batches: list[int] | None = None,
    m: int = 768,
    n: int = 768,
    d: int = 128,
) -> ExperimentResult:
    batches = batches if batches is not None else list(DEFAULT_BATCHES)
    result = ExperimentResult(
        name=f"Fig. 4: speed vs batch size (RootSIFT + FP16, m={m} n={n} d={d})",
        headers=["batch", "P100 (img/s)", "V100 (img/s)", "V100 + TensorCore (img/s)"],
    )
    series: dict[str, list[float]] = {"p100": [], "v100": [], "v100_tc": []}
    for batch in batches:
        p = speed_at(TESLA_P100, batch, m, n, d)
        v = speed_at(TESLA_V100, batch, m, n, d)
        vt = speed_at(TESLA_V100, batch, m, n, d, tensor_core=True)
        series["p100"].append(p)
        series["v100"].append(v)
        series["v100_tc"].append(vt)
        result.rows.append([batch, int(round(p)), int(round(v)), int(round(vt))])

    result.summary = {
        "p100_speedup": series["p100"][-1] / series["p100"][0],
        "v100_speedup": series["v100"][-1] / series["v100"][0],
        "tensor_core_gain_at_max_batch": series["v100_tc"][-1] / series["v100"][-1],
        "tensor_core_gain_at_batch1": series["v100_tc"][0] / series["v100"][0],
        "p100_peak": series["p100"][-1],
        "v100_tc_peak": series["v100_tc"][-1],
    }
    result.notes.append(
        "paper: P100 5,753 -> 45,539 (7.9x); V100 7.5x; TC peak 86,519 "
        "(+1.3x at batch 1024, only 1.15x at batch 1); flat past 256"
    )
    return result
