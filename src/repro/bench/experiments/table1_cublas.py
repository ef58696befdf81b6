"""Table 1 — cuBLAS implementation performance (m = n = 768, d = 128,
Tesla P100, 10,000 cached reference matrices).

Columns: OpenCV CUDA baseline, Garcia et al. cuBLAS with insertion
sort, ours (register top-2 scan), ours + FP16.
"""

from __future__ import annotations

from ...baselines.cublas_garcia import garcia_memory_bytes
from ...baselines.opencv_cuda import opencv_memory_bytes, opencv_search_time_us
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.engine_model import GPUDevice
from ..chains import algorithm1_steps
from ..tables import ExperimentResult

__all__ = ["run"]

PAPER_SPEEDS = {"CUDA (OpenCV)": 2012, "cuBLAS [9]": 3027, "cuBLAS (ours)": 6734, "cuBLAS+FP16 (ours)": 5917}


def run(
    spec: DeviceSpec = TESLA_P100,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    cached_references: int = 10_000,
) -> ExperimentResult:
    cal = KernelCalibration.for_device(spec)
    device = GPUDevice(spec, cal)

    columns: dict[str, dict[str, float]] = {
        "cuBLAS [9]": algorithm1_steps(spec, cal, m, n, d, "fp32", "insertion"),
        "cuBLAS (ours)": algorithm1_steps(spec, cal, m, n, d, "fp32", "scan"),
        "cuBLAS+FP16 (ours)": algorithm1_steps(spec, cal, m, n, d, "fp16", "scan"),
    }
    opencv_total = opencv_search_time_us(device, m, n, d)
    totals = {"CUDA (OpenCV)": opencv_total}
    totals.update({name: sum(steps.values()) for name, steps in columns.items()})
    speeds = {name: 1e6 / total for name, total in totals.items()}
    memory_mb = {
        "CUDA (OpenCV)": opencv_memory_bytes(cached_references, m, d) / 1e6,
        "cuBLAS [9]": garcia_memory_bytes(cached_references, m, d, "fp32") / 1e6,
        "cuBLAS (ours)": garcia_memory_bytes(cached_references, m, d, "fp32") / 1e6,
        "cuBLAS+FP16 (ours)": garcia_memory_bytes(cached_references, m, d, "fp16") / 1e6,
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
