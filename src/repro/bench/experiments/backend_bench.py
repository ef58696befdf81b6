"""Backend sweep — every registered match kernel through the *real*
engine path (cache sweep, tombstones, stats), at Table 1's operating
point (m = n = 768, d = 128, Tesla P100).

Every backend runs end to end through
:class:`~repro.core.engine.TextureSearchEngine`.  This experiment
measures the engine-path throughput per backend and cross-checks the
Table 1 columns against their kernel's per-image serial chain (what
Table 1 adds up) and the paper's published speeds — the engine path
must reproduce the baseline columns within the repo's existing anchor
tolerances.
"""

from __future__ import annotations

import numpy as np

from ...baselines.opencv_cuda import CONTEXT_OVERHEAD_BYTES
from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...core.registry import canonical_backend
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.engine_model import GPUDevice
from ..tables import ExperimentResult, kernel_steps
from .table1_cublas import PAPER_SPEEDS

__all__ = ["run", "VARIANTS"]

#: (row label, backend, precision) — the Table 1 columns plus the
#: paper's own Algorithm-2 pipeline for context.
VARIANTS: list[tuple[str, str, str]] = [
    ("CUDA (OpenCV)", "opencv", "fp32"),
    ("cuBLAS [9]", "garcia", "fp32"),
    ("cuBLAS (ours)", "algorithm1", "fp32"),
    ("cuBLAS+FP16 (ours)", "algorithm1", "fp16"),
    ("RootSIFT (Alg. 2)", "algorithm2", "fp16"),
    ("LSH [15]", "lsh", "fp32"),
]

#: paper-speed anchor per row label (Table 1; Alg. 2 has no column).
_PAPER_BY_LABEL = {
    "CUDA (OpenCV)": PAPER_SPEEDS["CUDA (OpenCV)"],
    "cuBLAS [9]": PAPER_SPEEDS["cuBLAS [9]"],
    "cuBLAS (ours)": PAPER_SPEEDS["cuBLAS (ours)"],
    "cuBLAS+FP16 (ours)": PAPER_SPEEDS["cuBLAS+FP16 (ours)"],
}


def _synthetic_descriptors(count: int, d: int, seed: int) -> np.ndarray:
    """SIFT-like non-negative descriptors, L2 norm 512 per column."""
    rng = np.random.default_rng(seed)
    desc = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    desc /= np.maximum(np.linalg.norm(desc, axis=0, keepdims=True), 1e-9)
    return (desc * 512.0).astype(np.float32)


def run(
    backends: list[str] | None = None,
    spec: DeviceSpec = TESLA_P100,
    m: int = 768,
    n: int = 768,
    d: int = 128,
    n_references: int = 16,
    batch_size: int = 16,
    cached_references: int = 10_000,
) -> ExperimentResult:
    """Measure each backend's engine-path throughput.

    ``n_references`` only needs to cover a couple of batches — the
    simulated per-image cost is independent of the cache size (single
    stream, GPU-resident).  ``cached_references`` scales the reported
    memory column to Table 1's 10,000-image cache.
    """
    cal = KernelCalibration.for_device(spec)
    wanted = {canonical_backend(b) for b in backends} if backends else None
    variants = [v for v in VARIANTS if wanted is None or v[1] in wanted]
    if not variants:
        raise ValueError(f"no variant matches backends={backends!r}")

    result = ExperimentResult(
        name=f"Backend sweep (engine path): m={m} n={n} d={d}, {spec.name}",
        headers=["Backend", "precision", "engine img/s", "model img/s",
                 "delta %", "paper img/s", "memory (MB)"],
    )
    deltas: dict[str, float] = {}
    for label, backend, precision in variants:
        cfg = EngineConfig(
            m=m, n=n, d=d, backend=backend, precision=precision,
            batch_size=batch_size,
        )
        engine = TextureSearchEngine(cfg, device=GPUDevice(spec, cal))
        for i in range(n_references):
            engine.add_reference(f"ref{i}", _synthetic_descriptors(m, d, seed=1000 + i))
        search = engine.search(_synthetic_descriptors(n, d, seed=999))
        engine_speed = search.images_per_s
        # the Table 1 columns' per-image serial chain, as Table 1 adds it up
        model = None
        if label in PAPER_SPEEDS:
            model = 1e6 / sum(us for _, us, _ in kernel_steps(spec, cfg))
        delta = (engine_speed / model - 1.0) * 100.0 if model else None
        if model:
            deltas[label] = delta
        memory_mb = (
            cfg.feature_matrix_bytes() * cached_references + CONTEXT_OVERHEAD_BYTES
        ) / 1e6
        result.rows.append([
            label, precision, int(round(engine_speed)),
            int(round(model)) if model else "-",
            round(delta, 2) if delta is not None else "-",
            _PAPER_BY_LABEL.get(label, "-"),
            int(round(memory_mb)),
        ])

    result.summary = {f"engine_vs_model_delta_pct[{k}]": v for k, v in deltas.items()}
    result.notes.append(
        "engine img/s is measured through TextureSearchEngine's cache sweep; "
        "model img/s is the per-image serial chain (Table 1 methodology)."
    )
    return result
