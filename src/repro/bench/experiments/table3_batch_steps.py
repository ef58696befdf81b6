"""Table 3 — per-step times at batch 1 vs. batch 1024 (Algorithm 2,
FP16, m = n = 768, Tesla P100; batch-1024 times normalised per image).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ..tables import ExperimentResult, kernel_steps

__all__ = ["run"]

#: Table 3's row label for each step of the Algorithm-2 kernel's batch chain
ROWS = {
    "GEMM": "HGEMM/step1", "Top-2 sort": "Sort and Sqrt/step2&3", "sqrt": "Sort and Sqrt/step2&3",
    "D2H copy": "D2H memory copy/step4", "Post-processing": "Post-processing/CPU",
}


def table_rows(steps: list[tuple]) -> dict[str, float]:
    """A kernel's step list summed into Table 3's rows, in chain order."""
    rows: dict[str, float] = {}
    for _, us, step in steps:
        rows[ROWS[step]] = rows.get(ROWS[step], 0.0) + us
    return rows


def run(
    spec: DeviceSpec = TESLA_P100,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    small_batch: int = 1,
    large_batch: int = 1024,
) -> ExperimentResult:
    config = EngineConfig(m=m, n=n, d=d, precision="fp16")
    small = table_rows(kernel_steps(spec, config, small_batch))
    large = table_rows(kernel_steps(spec, config, large_batch))

    result = ExperimentResult(
        name=f"Table 3: batched Algorithm 2 step times (FP16, m={m} n={n}, {spec.name})",
        headers=["Execution step", f"BatchSize={small_batch} (us)",
                 f"BatchSize={large_batch} (us/img)"],
    )
    for step in small:  # the chain's steps, in order
        result.rows.append(
            [step, round(small[step] / small_batch, 2), round(large[step] / large_batch, 2)]
        )
    small_total = sum(small.values()) / small_batch
    large_total = sum(large.values()) / large_batch
    result.rows.append(["Total time (us)", round(small_total, 2), round(large_total, 2)])
    result.rows.append(
        ["Speed (images/s)", int(round(1e6 / small_total)), int(round(1e6 / large_total))]
    )
    result.summary = {
        "hgemm_reduction": 1.0 - (large["HGEMM/step1"] / large_batch) / (small["HGEMM/step1"] / small_batch),
        "sort_reduction": 1.0
        - (large["Sort and Sqrt/step2&3"] / large_batch) / (small["Sort and Sqrt/step2&3"] / small_batch),
        "speedup": small_total / large_total,
    }
    result.notes.append(
        "paper: HGEMM 26.11 -> 11.58, sort 70.69 -> 3.82, D2H 60.15 -> 2.72, "
        "post 16.85 -> 3.85; total 173.8 -> 21.96 us (5,753 -> 45,539 img/s)"
    )
    return result
