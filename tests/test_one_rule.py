"""One overlap rule and one byte count, as properties of the engine.

* **Overlap.** At S > 1 every swept batch hides its CPU post-processing
  behind the other streams' work (Sec. 6.2, Table 6); only the H2D copy is
  the host-staged batches' own.  So a GPU-resident sweep is never slower
  than a host-resident sweep of the same batches: ``max(h2d + busy / S,
  busy) >= busy``.
* **Bytes.** Capacity counts what the cache holds (Tables 1 and 5): an
  engine's ``capacity_images()`` is each cache level's budget floored on
  the bytes per image of a batch that engine sealed, whatever its kernel's
  parameters.
"""

from __future__ import annotations

import pytest

from repro.baselines.adapters import LshKernel
from repro.bench.tables import swept
from repro.core import EngineConfig, TextureSearchEngine
from repro.core.cascade import CascadeKernel
from repro.gpusim import GPUDevice
from repro.gpusim.device import DEVICE_REGISTRY
from tests.conftest import make_descriptors

#: every backend ``bench.tables.swept`` times (the cascade's prefilter it refuses)
SWEPT = [
    ("algorithm2", "fp16"), ("algorithm2", "fp32"), ("algorithm1", "fp16"), ("algorithm1", "fp32"),
    ("garcia", "fp16"), ("garcia", "fp32"), ("opencv", "fp32"), ("lsh", "fp32"),
]
#: every built-in backend with each precision its ``validate_config`` accepts
BACKENDS = SWEPT + [("cascade", "fp16"), ("cascade", "fp32")]


def config(backend: str, precision: str, **kwargs) -> EngineConfig:
    defaults = dict(m=96, n=128, batch_size=8, min_matches=8, scale_factor=0.25)
    return EngineConfig(**{**defaults, "backend": backend, "precision": precision, **kwargs})


@pytest.mark.parametrize("device", sorted(DEVICE_REGISTRY))
@pytest.mark.parametrize("streams", [2, 8])
@pytest.mark.parametrize("backend,precision", SWEPT)
def test_a_resident_sweep_is_at_least_as_fast_as_a_host_one(backend, precision, streams, device):
    cfg = config(backend, precision, streams=streams)
    spec = DEVICE_REGISTRY[device]
    resident, _ = swept(spec, cfg, 3)
    host, _ = swept(spec, cfg, 3, host=True)
    assert resident.images_searched == host.images_searched
    # equal when the host sweep is compute-bound, up to the last bit of the clock
    assert resident.images_per_s >= host.images_per_s * (1 - 1e-12)


def assert_capacity_counts_sealed_bytes(engine: TextureSearchEngine) -> None:
    """Enrol one full batch; capacity must floor each level on its bytes per image."""
    for image in range(engine.config.batch_size):
        engine.add_reference(f"ref{image}", make_descriptors(engine.config.m, seed=300 + image))
    (cached,) = engine.cache.batches()
    per_image = cached.batch.nbytes // cached.batch.size
    cache = engine.cache
    assert engine.capacity_images() == (
        cache.gpu_budget_bytes // per_image + cache.host_budget_bytes // per_image
    )


@pytest.mark.parametrize("backend,precision", BACKENDS)
def test_capacity_counts_the_bytes_a_sealed_batch_holds(backend, precision):
    cfg = config(backend, precision)
    engine = TextureSearchEngine(cfg, device=GPUDevice(DEVICE_REGISTRY["p100"]), host_cache_bytes=10**9)
    assert_capacity_counts_sealed_bytes(engine)
    assert cfg.feature_matrix_bytes() == engine.kernel.image_nbytes


@pytest.mark.parametrize("backend,kernel_class,n_bits", [("cascade", CascadeKernel, 512), ("lsh", LshKernel, 64)])
def test_capacity_reads_the_engines_own_kernel(backend, kernel_class, n_bits):
    cfg = config(backend, "fp32")
    engine = TextureSearchEngine(cfg, device=GPUDevice(DEVICE_REGISTRY["p100"]), host_cache_bytes=10**9,
                                 kernel=kernel_class(cfg, n_bits=n_bits))
    assert_capacity_counts_sealed_bytes(engine)
