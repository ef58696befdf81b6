"""Match-kernel backend registry.

The engine's k-NN math is pluggable: every backend implements the
:class:`~repro.core.kernels.MatchKernel` interface and is registered
here under a short name.  :class:`~repro.core.config.EngineConfig`
selects one via its ``backend`` field, and
:class:`~repro.core.engine.TextureSearchEngine` asks this module for
the kernel instance at construction time.

Built-in backends
-----------------

``algorithm2``
    The paper's RootSIFT pipeline (batched GEMM, no norm vectors) —
    the default.
``algorithm1``
    The paper's cuBLAS pipeline with cached ``N_R`` norms.
``garcia``
    Garcia et al. [9]: Algorithm 1 with the original modified insertion
    sort (Table 1, column 2), now runnable through the full engine.
``opencv``
    The OpenCV CUDA ``knnMatch`` cost model (Table 1, column 1).
``lsh``
    Kusamura et al. LSH compression baseline: Hamming candidate filter
    plus exact re-ranking.
``cascade``
    Cascade-hashing binary prefilter: coarse-to-fine XOR/popcount
    Hamming tests over cached sign-bit codes prune candidates before
    the exact cuBLAS 2-NN pipeline runs on the survivors.

Registration is lazy — the mapping stores import paths, so importing
this module pulls in no kernel code and no baseline code.  A kernel
outside the registry runs by instance:
``TextureSearchEngine(config, kernel=...)``.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import EngineConfig
    from .kernels import MatchKernel

__all__ = [
    "available_backends",
    "canonical_backend",
    "create_kernel",
    "kernel_class",
]

#: backends: name -> (module, class).  Lazy so that config validation
#: never triggers heavyweight imports (or import cycles).
_BUILTIN: dict[str, tuple[str, str]] = {
    "algorithm2": ("repro.core.kernels", "Algorithm2Kernel"),
    "algorithm1": ("repro.core.kernels", "Algorithm1Kernel"),
    "garcia": ("repro.baselines.adapters", "GarciaKernel"),
    "opencv": ("repro.baselines.adapters", "OpenCVKernel"),
    "lsh": ("repro.baselines.adapters", "LshKernel"),
    "cascade": ("repro.core.cascade", "CascadeKernel"),
}


def available_backends() -> list[str]:
    """Canonical names of every registered backend."""
    return list(_BUILTIN)


def canonical_backend(name: str) -> str:
    """Lower-case a backend name; raise ``ValueError`` for unknown ones.

    The error lists every registered name, so a typo'd config points at
    the real menu.
    """
    name = str(name).lower()
    if name in _BUILTIN:
        return name
    raise ValueError(
        f"unknown backend {name!r}; registered backends: "
        f"{', '.join(available_backends())}"
    )


def kernel_class(name: str) -> type:
    """The kernel class registered under ``name`` (lazily imported)."""
    module_name, attr = _BUILTIN[canonical_backend(name)]
    return getattr(import_module(module_name), attr)


def create_kernel(config: "EngineConfig", name: str | None = None) -> "MatchKernel":
    """Instantiate (and config-validate) the kernel for ``config``."""
    backend = canonical_backend(name) if name is not None else config.backend
    cls = kernel_class(backend)
    cls.validate_config(config)
    return cls(config)
