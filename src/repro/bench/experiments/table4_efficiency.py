"""Table 4 — GPU efficiency (Eq. 3) at batch 1024.

Paper: P100 45,539 img/s = 6.69 achieved TFLOPS = 35.8 % of 18.7;
V100 67,612 = 35.5 % of 28; V100 + tensor cores 86,519 = 11.4 % of 112.
HGEMM-only efficiency reaches 67.9 % / 65.7 % (Sec. 5.3).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, TESLA_V100
from ...metrics.throughput import gemm_flops_per_image, gpu_efficiency
from ..tables import ExperimentResult, images_per_s, kernel_steps

__all__ = ["run"]


def run(batch: int = 1024, m: int = 768, n: int = 768, d: int = 128) -> ExperimentResult:
    configs = [
        ("Tesla P100 card", TESLA_P100, False),
        ("Tesla V100 card w/o Tensor Core", TESLA_V100, False),
        ("Tesla V100 card w/ Tensor Core", TESLA_V100, True),
    ]
    result = ExperimentResult(
        name=f"Table 4: GPU efficiency, m={m} n={n} d={d}, batch={batch}",
        headers=["GPU type", "Speed (img/s)", "Achieved TFLOPS",
                 "Theoretical TFLOPS (FP16)", "Efficiency", "HGEMM-only eff."],
    )
    for label, spec, tc in configs:
        config = EngineConfig(m=m, n=n, d=d, precision="fp16", tensor_core=tc)
        steps = kernel_steps(spec, config, batch)
        speed = images_per_s(steps, batch)
        report = gpu_efficiency(spec, speed, m, n, d, "fp16", tc)
        hgemm_time = next(us for _, us, step in steps if step == "GEMM")
        hgemm_eff = (
            gemm_flops_per_image(m, n, d) * batch / (hgemm_time * 1e-6)
        ) / (spec.peak_tflops("fp16", tc) * 1e12)
        result.rows.append(
            [
                label,
                int(round(speed)),
                round(report.achieved_tflops, 2),
                report.theoretical_tflops,
                f"{report.efficiency:.1%}",
                f"{hgemm_eff:.1%}",
            ]
        )
        result.summary[label] = report.efficiency
    result.notes.append(
        "paper: 35.8% / 35.5% / 11.4% whole-pipeline; 67.9% / 65.7% HGEMM-only"
    )
    return result
