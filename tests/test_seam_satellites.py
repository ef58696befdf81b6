"""The fixes and the de-duplication that rode along with PR 18: a purged
batch is freed, a cluster's ``best()`` does not depend on shard order,
and Algorithm 2's per-batch cost chain is spelled once."""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from repro.core import EngineConfig, TextureSearchEngine, create_kernel
from repro.core.algorithm2 import knn_steps
from repro.core.engine import hidden_us, overlap_us
from repro.core.results import Answer, ImageMatch, Sweep
from repro.gpusim import GPUDevice, KernelCalibration, TESLA_P100, TESLA_V100
from repro.gpusim.kernels import (
    d2h_result_us, dtype_bytes, elementwise_us, gemm_us, postprocess_us, top2_scan_us,
)
from repro.gpusim.pcie import h2d_time_us
from tests.conftest import make_descriptors

# -- a purged batch is freed -----------------------------------------------


def test_a_batch_the_engine_purged_is_garbage():
    """Every slot tombstoned -> ``cache.remove`` — and nothing else may
    hold the batch (the builder used to keep every batch it emitted)."""
    cfg = EngineConfig(m=24, n=16, batch_size=2, min_matches=2, scale_factor=0.25)
    engine = TextureSearchEngine(cfg)
    for i in range(4):
        engine.add_reference(f"ref{i}", make_descriptors(24, seed=i))
    purged, kept = [weakref.ref(cached.batch) for cached in engine.cache.batches()]
    tensor = weakref.ref(purged().tensor)
    assert engine.remove_reference("ref0") and engine.remove_reference("ref1")
    gc.collect()
    assert len(engine.cache) == 1
    assert purged() is None and tensor() is None
    assert kept() is not None and engine.search(make_descriptors(16, seed=2)).images_searched == 2


# -- best() on a tie -------------------------------------------------------


def match(ref_id: str, score: int) -> ImageMatch:
    return ImageMatch(reference_id=ref_id, good_matches=score)


@pytest.mark.parametrize("order", [("b", "a"), ("a", "b")])
def test_a_cluster_tie_goes_to_the_smallest_id_whichever_shard_answered_first(order):
    shards = [[match(ref_id, 9), match(ref_id + "-low", 3)] for ref_id in order]
    result = Answer([m for shard in shards for m in shard], Sweep(elapsed_us=1.0, images_searched=4))
    assert result.best() is result.top(1)[0]
    assert result.best().reference_id == "a"


def test_no_match_has_no_best():
    assert Answer([], Sweep()).best() is None


# -- one spelling of Algorithm 2's cost chain ------------------------------

SHAPES = [
    (spec, m, n, batch, precision, tensor_core)
    for spec, m, n, batch, precision, tensor_core in itertools.product(
        (TESLA_P100, TESLA_V100), (96, 384, 768), (128, 768), (1, 8, 256, 1024),
        ("fp16", "fp32"), (False, True),
    )
    if not tensor_core or (precision == "fp16" and spec.tensor_tflops > 0)
]


def test_the_shapes_cover_both_cards_precisions_and_the_tensor_core():
    assert len(SHAPES) == 120 and sum(shape[-1] for shape in SHAPES) == 24


@pytest.mark.parametrize("spec", [TESLA_P100, TESLA_V100], ids=lambda spec: spec.name)
def test_every_spelling_is_the_parents_formula_bit_for_bit(spec):
    """The right-hand sides are the formulas as the parent commit spelled
    them, term by term, added left to right: what the engine charges and
    what its multi-stream overlap hides."""
    cal = KernelCalibration.for_device(spec)
    d, k = 128, 2
    for _, m, n, batch, precision, tc in (shape for shape in SHAPES if shape[0] is spec):
        gemm = gemm_us(spec, cal, m, n, d, batch, precision, tc)
        scan = top2_scan_us(spec, cal, m, batch * n, precision)
        sqrt = elementwise_us(spec, cal, k * batch * n, precision)
        d2h = d2h_result_us(spec, cal, n, batch, k, precision)
        post = postprocess_us(cal, batch, precision, n)
        # core/algorithm2.py::knn_steps — what the engine charges
        assert knn_steps(GPUDevice(spec, cal), batch, m, n, d, k, precision, tc) == [
            ("compute", gemm, "GEMM"), ("compute", scan, "Top-2 sort"),
            ("compute", sqrt, "sqrt"), ("d2h", d2h, "D2H copy"),
        ]
        # core/engine.py::hidden_us: the overlap's compute and D2H are the
        # kernel's step sums, its post-processing the kernel's CPU step
        steps = create_kernel(EngineConfig(m=m, n=n, d=d, precision=precision, tensor_core=tc)
                              ).batch_steps(GPUDevice(spec, cal), batch, 1)
        h2d = h2d_time_us(spec, batch * m * d * dtype_bytes(precision), True)
        busy = gemm + scan + sqrt + d2h
        assert hidden_us(2, h2d, steps) == h2d + busy + post - overlap_us(2, h2d, busy)
        if tc:
            continue  # the last two spellings have no tensor-core knob
        # core/kernels.py::Algorithm2Kernel.batch_steps, a group of one and of four
        # (what the query-batching ablation adds up)
        kernel = create_kernel(EngineConfig(m=m, n=n, d=d, precision=precision))
        for qb in (1, 4):
            assert kernel.batch_steps(GPUDevice(spec, cal), batch, qb) == [
                ("compute", gemm_us(spec, cal, m, qb * n, d, batch, precision), "GEMM"),
                ("compute", top2_scan_us(spec, cal, m, batch * qb * n, precision), "Top-2 sort"),
                ("compute", elementwise_us(spec, cal, 2 * batch * qb * n, precision), "sqrt"),
                ("d2h", d2h_result_us(spec, cal, qb * n, batch, 2, precision), "D2H copy"),
                ("cpu", postprocess_us(cal, batch * qb, precision, n), "Post-processing"),
            ]
