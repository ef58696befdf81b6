"""The byte-free timing-only sweep the paper's stream tables read
(:func:`repro.bench.tables.swept`) against an engine that really holds
and really matches its references.

The real engine enrols seeded random references of the same shape
through ``add_reference`` and runs its search's compute scope; ``swept``
caches zero-stride batches and never runs the scope.  Both must read the
same clock, images and per-step µs, and their caches the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import tables
from repro.core import EngineConfig, TextureSearchEngine
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import pairs

BATCHES = 3
CONFIGS = [
    EngineConfig(m=96, n=128, batch_size=4, backend="algorithm2", precision="fp16"),
    EngineConfig(m=96, n=128, batch_size=4, backend="algorithm1", precision="fp32"),
]


def enrolled(config: EngineConfig, host: bool) -> tuple[TextureSearchEngine, object]:
    """An engine holding ``BATCHES`` full batches of seeded references —
    all host-resident with ``host`` — and its search of one seeded query."""
    rng = np.random.default_rng(7)
    probe = TextureSearchEngine(config).prepare_reference_matrix(
        rng.random((config.d, config.m), dtype=np.float32))
    nbytes = config.batch_size * sum(part.nbytes for part in probe if part is not None)
    engine = TextureSearchEngine(
        config, GPUDevice(TESLA_P100), host_cache_bytes=BATCHES * nbytes if host else 0,
        gpu_cache_bytes=nbytes if host else None)
    images = (BATCHES + host) * config.batch_size
    for i in range(images):
        engine.add_reference(f"ref{i}", rng.random((config.d, config.m), dtype=np.float32))
    if host:
        # the extra batch demoted the last real one to the host level; drop it
        for i in range(BATCHES * config.batch_size, images):
            engine.remove_reference(f"ref{i}")
    answer = engine.search(rng.random((config.d, config.n), dtype=np.float32))
    return engine, answer


@pytest.mark.parametrize("streams", [1, 8])
@pytest.mark.parametrize("host", [False, True], ids=["gpu", "host"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.backend}-{c.precision}")
def test_the_byte_free_sweep_reads_what_a_real_engine_charges(monkeypatch, config, host, streams):
    config = config.with_updates(streams=streams)
    built: list[TextureSearchEngine] = []

    class Recorded(TextureSearchEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(tables, "TextureSearchEngine", Recorded)
    sweep, step_us = tables.swept(TESLA_P100, config, BATCHES, host=host)
    real, answer = enrolled(config, host)
    (engine,) = built

    assert sweep.elapsed_us == answer.elapsed_us
    assert sweep.images_searched == answer.images_searched == BATCHES * config.batch_size
    assert step_us == real.stats.step_times_us
    assert ("H2D copy" in step_us) is host
    assert engine.cache.used_bytes == real.cache.used_bytes
    assert engine.cache.host_batches == real.cache.host_batches == (BATCHES if host else 0)
    cached = [c.batch for c in engine.cache.batches()]
    assert len(cached) == BATCHES
    for batch in cached:
        assert batch.tensor.strides == (0, 0, 0)
        assert (batch.norms is not None) is real.kernel.needs_norms
        assert batch.norms is None or batch.norms.strides == (0, 0)
    # the real engine computed its matches, the timing-only one none
    assert len(pairs(answer)) == BATCHES * config.batch_size
    assert pairs(sweep.answers[0]) == []


def test_a_prefilter_kernel_is_refused():
    """Byte-free batches hold no codes: the cascade's prefilter would prune
    every slot (16 of 16 here) and the sweep would time the prefilter
    alone, 58x faster than ``algorithm1``."""
    config = EngineConfig(m=96, n=128, batch_size=8, backend="cascade", precision="fp16")
    with pytest.raises(ValueError, match="prefilter"):
        tables.swept(TESLA_P100, config, 2)
