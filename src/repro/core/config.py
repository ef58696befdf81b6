"""Engine configuration.

One dataclass gathers every optimization knob the paper studies, so the
benchmark harness can toggle them independently (Fig. 1 applies them
cumulatively; Tables 1-7 each vary one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["EngineConfig", "DEFAULT_SCALE_FACTOR"]

#: the paper's production scale factor (Sec. 4.2: "In real practice,
#: the scale factor is set to 2^-7").
DEFAULT_SCALE_FACTOR = 2.0**-7


@dataclass(frozen=True)
class EngineConfig:
    """Texture-search engine knobs.

    Attributes
    ----------
    d:
        Feature dimension (128 for SIFT, 64 for SURF).
    m / n:
        Reference / query features per image.  Symmetric extraction uses
        ``m == n`` (Secs. 4-6); the asymmetric optimum is ``m=384,
        n=768`` (Table 7).
    precision:
        ``"fp16"`` or ``"fp32"`` storage/compute for feature matrices.
    scale_factor:
        FP16 pre-scale (ignored for fp32).
    backend:
        Match-kernel backend name from :mod:`repro.core.registry`
        (``"algorithm2"``, ``"algorithm1"``, ``"garcia"``, ``"opencv"``,
        ``"lsh"``, ``"cascade"``, ...).
    normalization:
        Unit-norm mapping for the Algorithm-2 path: ``"rootsift"``
        (Hellinger, requires non-negative SIFT histograms) or ``"l2"``
        (plain normalisation, for signed descriptors such as SURF).
    batch_size:
        Reference images per batched GEMM (Sec. 5.2).
    tensor_core:
        Use tensor-core GEMM where the device supports it.
    ratio_threshold:
        Lowe ratio-test threshold.
    min_matches:
        Good matches required to declare two textures identical.
    streams:
        CUDA streams of the hybrid-cache overlap model (Sec. 6.2) — a
        simulated-clock quantity only.  How many host threads compute a
        sweep's tiles is the process's CPU count, not this (docs/architecture.md,
        "Host tile lanes").

    Two choices the paper never varies are not knobs: every kernel
    retrieves :data:`~repro.core.kernels.NEIGHBOURS` (two) neighbours
    for the ratio test, and the top-2 sort is the kernel's own — the
    register scan in ``"algorithm1"``, the insertion sort in
    ``"garcia"``.
    """

    d: int = 128
    m: int = 768
    n: int = 768
    precision: str = "fp16"
    scale_factor: float = DEFAULT_SCALE_FACTOR
    backend: str = "algorithm2"
    normalization: str = "rootsift"
    batch_size: int = 256
    tensor_core: bool = False
    ratio_threshold: float = 0.8
    min_matches: int = 8
    streams: int = 1

    def __post_init__(self) -> None:
        if self.d <= 0 or self.m <= 0 or self.n <= 0:
            raise ValueError("d, m, n must be positive")
        if self.precision not in ("fp16", "fp32"):
            raise ValueError(f"precision must be 'fp16' or 'fp32', got {self.precision!r}")
        if self.precision == "fp16" and not (self.scale_factor > 0):
            raise ValueError("scale_factor must be positive for fp16")
        if self.normalization not in ("rootsift", "l2"):
            raise ValueError(
                f"normalization must be 'rootsift' or 'l2', got {self.normalization!r}"
            )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not (0.0 < self.ratio_threshold < 1.0):
            raise ValueError("ratio_threshold must be in (0, 1)")
        if self.min_matches < 1:
            raise ValueError("min_matches must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        from .registry import canonical_backend

        # normalise case once; raises ValueError for unknown names
        object.__setattr__(self, "backend", canonical_backend(self.backend))

    @property
    def dtype(self) -> str:
        return self.precision

    @property
    def effective_scale(self) -> float:
        """Scale applied before FP16 conversion (1.0 in fp32 mode)."""
        return self.scale_factor if self.precision == "fp16" else 1.0

    def feature_matrix_bytes(self) -> int:
        """Bytes of one cached reference image under this configuration's
        kernel (:attr:`~repro.core.kernels.MatchKernel.image_nbytes`):
        Algorithm-1-family kernels also cache the squared-norm vector
        ``N_R``, the cascade its packed sign-bit codes.
        """
        from .registry import create_kernel

        return create_kernel(self).image_nbytes

    def with_updates(self, **kwargs) -> "EngineConfig":
        """Functional update helper (frozen dataclass)."""
        return replace(self, **kwargs)
