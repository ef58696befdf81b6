"""Table 1 — cuBLAS implementation performance (m = n = 768, d = 128,
Tesla P100, 10,000 cached reference matrices).

Columns: OpenCV CUDA baseline, Garcia et al. cuBLAS with insertion
sort, ours (register top-2 scan), ours + FP16.
"""

from __future__ import annotations

from ...baselines.opencv_cuda import CONTEXT_OVERHEAD_BYTES
from ...core.config import EngineConfig
from ...gpusim.device import TESLA_P100, DeviceSpec
from ..tables import ExperimentResult, kernel_steps

__all__ = ["run"]

PAPER_SPEEDS = {"CUDA (OpenCV)": 2012, "cuBLAS [9]": 3027, "cuBLAS (ours)": 6734, "cuBLAS+FP16 (ours)": 5917}

#: column -> the backend and precision the engine runs it with
COLUMNS = {
    "CUDA (OpenCV)": ("opencv", "fp32"),
    "cuBLAS [9]": ("garcia", "fp32"),
    "cuBLAS (ours)": ("algorithm1", "fp32"),
    "cuBLAS+FP16 (ours)": ("algorithm1", "fp16"),
}

#: Table 1's row label for each step of the Algorithm-1 kernel's per-image chain
ROWS = {
    "GEMM": "GEMM/step3", "add N_R": "Add N_R/step4", "Top-2 sort": "Top-2 sort/step5",
    "add N_Q + sqrt": "Add N_Q and Sqrt/step6&7", "D2H copy": "D2H copy/step8",
    "Post-processing": "Post-processing/CPU",
}


def run(
    spec: DeviceSpec = TESLA_P100,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    cached_references: int = 10_000,
) -> ExperimentResult:
    configs = {name: EngineConfig(m=m, n=n, d=d, backend=backend, precision=precision)
               for name, (backend, precision) in COLUMNS.items()}
    chains = {name: kernel_steps(spec, cfg) for name, cfg in configs.items()}
    columns = {name: {ROWS[step]: us for _, us, step in chain}
               for name, chain in chains.items() if name != "CUDA (OpenCV)"}
    totals = {name: sum(us for _, us, _ in chain) for name, chain in chains.items()}
    speeds = {name: 1e6 / total for name, total in totals.items()}
    memory_mb = {
        name: (cfg.feature_matrix_bytes() * cached_references + CONTEXT_OVERHEAD_BYTES) / 1e6
        for name, cfg in configs.items()
    }

    names = list(totals.keys())
    result = ExperimentResult(
        name=f"Table 1: cuBLAS 2-NN pipeline, m={m} n={n} d={d}, {spec.name}",
        headers=["Execution step"] + names,
    )
    for step in columns["cuBLAS (ours)"]:  # the chain's steps, in order
        result.rows.append(
            [step] + ["-" if name == "CUDA (OpenCV)" else round(columns[name][step], 2) for name in names]
        )
    result.rows.append(["Total time (us)"] + [round(totals[n_], 1) for n_ in names])
    result.rows.append(["Speed (images/s)"] + [int(round(speeds[n_])) for n_ in names])
    result.rows.append(["GPU memory (MB)"] + [int(round(memory_mb[n_])) for n_ in names])

    result.summary = {
        "scan_vs_insertion_sort_reduction": 1.0
        - columns["cuBLAS (ours)"]["Top-2 sort/step5"] / columns["cuBLAS [9]"]["Top-2 sort/step5"],
        "ours_vs_opencv_speedup": speeds["cuBLAS (ours)"] / speeds["CUDA (OpenCV)"],
        "fp16_memory_saving": 1.0 - memory_mb["cuBLAS+FP16 (ours)"] / memory_mb["cuBLAS (ours)"],
    }
    result.notes.append(
        "paper speeds: "
        + ", ".join(f"{k}={v}" for k, v in PAPER_SPEEDS.items())
    )
    return result
