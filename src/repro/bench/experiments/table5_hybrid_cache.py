"""Table 5 — search speed by cache location (batch 1024, m = n = 768,
FP16, Tesla P100, PCIe Gen3 x16).

Paper: GPU memory 45,539 img/s; host memory w/o pinned 17,619; host
memory w/ pinned 25,362 — the PCIe link is the bottleneck (Sec. 6.1).
Each row is a timing-only sweep of one batch by the engine, its batch
GPU-resident or staged from host memory (:func:`repro.bench.tables.swept`).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ..tables import ExperimentResult, swept

__all__ = ["run"]

_PAPER = {"GPU memory": 45539, "Host memory w/o pinned": 17619, "Host memory w/ pinned": 25362}


def run(
    spec: DeviceSpec = TESLA_P100,
    batch: int = 1024,
    m: int = 768,
    n: int = 768,
    d: int = 128,
) -> ExperimentResult:
    config = EngineConfig(m=m, n=n, d=d, precision="fp16", batch_size=batch)
    rows = [  # (label, host, pinned)
        ("GPU memory", False, True),
        ("Host memory w/o pinned", True, False),
        ("Host memory w/ pinned", True, True),
    ]
    result = ExperimentResult(
        name=f"Table 5: hybrid cache speed, batch={batch}, m={m} n={n}, {spec.name}",
        headers=["Cache type", "Speed (images/s)", "paper (images/s)"],
    )
    speeds = {}
    for label, host, pinned in rows:
        speed = swept(spec, config, 1, host, pinned)[0].images_per_s
        speeds[label] = speed
        result.rows.append([label, int(round(speed)), _PAPER[label]])
    result.summary = {
        "pinned_drop": 1.0 - speeds["Host memory w/ pinned"] / speeds["GPU memory"],
        "pageable_vs_pinned": speeds["Host memory w/o pinned"] / speeds["Host memory w/ pinned"],
    }
    result.notes.append("paper: pinned drop 44.3%; pageable a further ~30% below pinned")
    return result
