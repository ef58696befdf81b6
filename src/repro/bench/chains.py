"""Serial-chain timing compositions shared by the experiments.

Tables 1, 3, 5 and Fig. 4 all measure the single-stream pipeline where
every stage serialises (one CPU thread drives the GPU synchronously).
These helpers compose the calibrated kernel models into those chains at
the paper's dimensions.
"""

from __future__ import annotations

from ..gpusim.calibration import KernelCalibration
from ..gpusim.device import DeviceSpec
from ..gpusim.kernels import algorithm1_steps_us, dtype_bytes, knn_steps_us, postprocess_us
from ..gpusim.pcie import h2d_time_us

__all__ = ["algorithm1_steps", "algorithm2_steps", "chain_speed", "hybrid_speed"]

#: Table 1's row labels for the steps of ``algorithm1_steps_us``, in order
_TABLE1_ROWS = (
    "GEMM/step3", "Add N_R/step4", "Top-2 sort/step5", "Add N_Q and Sqrt/step6&7",
    "D2H copy/step8", "Post-processing/CPU",
)


def algorithm1_steps(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    dtype: str = "fp32",
    sort_kind: str = "scan",
) -> dict[str, float]:
    """Per-image step times (us) of Algorithm 1, Table 1 layout: the chain
    the engine charges per image, relabelled."""
    chain = algorithm1_steps_us(spec, cal, m, n, d, 2, dtype, sort_kind)
    return {row: us for row, (_, us, _) in zip(_TABLE1_ROWS, chain, strict=True)}


def algorithm2_steps(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    batch: int = 1,
    dtype: str = "fp16",
    tensor_core: bool = False,
) -> dict[str, float]:
    """Per-*batch* step times (us) of Algorithm 2, Table 3 layout."""
    gemm, scan, sqrt, d2h = (
        us for _, us, _ in knn_steps_us(spec, cal, batch, m, n, d, 2, dtype, tensor_core)
    )
    return {
        "HGEMM/step1": gemm,
        "Sort and Sqrt/step2&3": scan + sqrt,
        "D2H memory copy/step4": d2h,
        "Post-processing/CPU": postprocess_us(cal, batch, dtype, n),
    }


def chain_speed(steps: dict[str, float], batch: int = 1) -> float:
    """Images/s of a serial chain: ``batch / sum(steps)``."""
    total = sum(steps.values())
    if total <= 0:
        raise ValueError("chain must have positive duration")
    return batch / total * 1e6


def hybrid_speed(
    spec: DeviceSpec,
    cal: KernelCalibration,
    location: str,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    batch: int = 1024,
    dtype: str = "fp16",
) -> float:
    """Table 5: single-stream search speed by cache location.

    ``location``: "gpu", "host-pinned", or "host-pageable".  Host
    locations prepend the per-batch PCIe transfer to the serial chain.
    """
    steps = algorithm2_steps(spec, cal, m, n, d, batch, dtype)
    total = sum(steps.values())
    if location == "gpu":
        pass
    elif location in ("host-pinned", "host-pageable"):
        nbytes = batch * m * d * dtype_bytes(dtype)
        total += h2d_time_us(spec, nbytes, pinned=(location == "host-pinned"))
    else:
        raise ValueError(f"unknown location {location!r}")
    return batch / total * 1e6
