"""Table 5 — search speed by cache location (batch 1024, m = n = 768,
FP16, Tesla P100, PCIe Gen3 x16).

Paper: GPU memory 45,539 img/s; host memory w/o pinned 17,619; host
memory w/ pinned 25,362 — the PCIe link is the bottleneck (Sec. 6.1).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.pcie import h2d_time_us
from ..tables import ExperimentResult, kernel_steps

__all__ = ["run"]

_PAPER = {"GPU memory": 45539, "Host memory w/o pinned": 17619, "Host memory w/ pinned": 25362}


def run(
    spec: DeviceSpec = TESLA_P100,
    batch: int = 1024,
    m: int = 768,
    n: int = 768,
    d: int = 128,
) -> ExperimentResult:
    config = EngineConfig(m=m, n=n, d=d, precision="fp16")
    compute = sum(us for _, us, _ in kernel_steps(spec, config, batch))
    # a host-resident batch pays its H2D copy ahead of the serial chain
    batch_bytes = batch * config.feature_matrix_bytes()
    rows = [
        ("GPU memory", 0.0),
        ("Host memory w/o pinned", h2d_time_us(spec, batch_bytes, pinned=False)),
        ("Host memory w/ pinned", h2d_time_us(spec, batch_bytes, pinned=True)),
    ]
    result = ExperimentResult(
        name=f"Table 5: hybrid cache speed, batch={batch}, m={m} n={n}, {spec.name}",
        headers=["Cache type", "Speed (images/s)", "paper (images/s)"],
    )
    speeds = {}
    for label, h2d in rows:
        speed = batch / (compute + h2d) * 1e6
        speeds[label] = speed
        result.rows.append([label, int(round(speed)), _PAPER[label]])
    result.summary = {
        "pinned_drop": 1.0 - speeds["Host memory w/ pinned"] / speeds["GPU memory"],
        "pageable_vs_pinned": speeds["Host memory w/o pinned"] / speeds["Host memory w/ pinned"],
    }
    result.notes.append("paper: pinned drop 44.3%; pageable a further ~30% below pinned")
    return result
