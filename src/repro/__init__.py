"""repro — reproduction of "Exploring HW/SW Co-Optimizations for
Accelerating Large-scale Texture Identification on Distributed GPUs"
(Wang, Zhang, Li, Lin — ICPP '21).

Quickstart::

    import numpy as np
    from repro import TextureSearchEngine, EngineConfig

    engine = TextureSearchEngine(EngineConfig(m=384, n=768))
    engine.add_reference("brick-0", descriptors)   # (128, count) SIFT
    result = engine.search(query_descriptors)
    print(result.best().reference_id, result.images_per_s)

Subpackages
-----------
``repro.core``
    The paper's contribution: cuBLAS-style 2-NN (Algorithms 1 & 2),
    batching, asymmetric extraction, the composable search engine.
``repro.gpusim``
    Simulated GPU substrate (P100/V100 specs, calibrated cost models,
    one in-order queue per device, memory pools) — see DESIGN.md for the
    substitution rules.
``repro.blas`` / ``repro.fp16``
    GEMM layer with FP16 accumulation semantics; scale factors,
    overflow detection, compression error (Eq. 2).
``repro.features`` / ``repro.geometry``
    SIFT from scratch, RootSIFT, RANSAC geometric verification.
``repro.cache``
    Hybrid GPU+host FIFO cache (the sweep's multi-stream overlap lives
    in ``repro.core.engine``).
``repro.data`` / ``repro.metrics`` / ``repro.baselines``
    Synthetic tea-brick datasets, accuracy/efficiency metrics, OpenCV
    CUDA and Garcia-et-al. baselines.
``repro.distributed``
    The 14-GPU search service: sharding, Redis-like store, REST API.
``repro.bench``
    Experiment runners regenerating every table and figure.
"""

from .core import (
    Answer,
    AsymmetricExtractor,
    AsymmetricPolicy,
    EngineConfig,
    ImageMatch,
    KnnResult,
    Sweep,
    TextureSearchEngine,
)
from .distributed import DistributedSearchSystem, build_api
from .errors import (
    CacheCapacityError,
    DeviceOutOfMemoryError,
    HalfPrecisionOverflowError,
    ReproError,
)
from .features import SIFTConfig, SIFTExtractor
from .gpusim import GPUDevice, TESLA_P100, TESLA_V100

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "AsymmetricExtractor",
    "AsymmetricPolicy",
    "CacheCapacityError",
    "DeviceOutOfMemoryError",
    "DistributedSearchSystem",
    "EngineConfig",
    "GPUDevice",
    "HalfPrecisionOverflowError",
    "ImageMatch",
    "KnnResult",
    "ReproError",
    "SIFTConfig",
    "SIFTExtractor",
    "Sweep",
    "TESLA_P100",
    "TESLA_V100",
    "TextureSearchEngine",
    "__version__",
    "build_api",
]
