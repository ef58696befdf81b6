"""One exact-match plane: Algorithm 1 — and with it ``garcia``, the cascade's
survivors and ``opencv`` — runs on Algorithm 2's stacked tile plane, with
``N_R`` added to each tile before the scan and ``N_Q`` to the winners.

The oracle is Algorithm 1's per-image steps 3-8 as they were computed
before the plane took them over (one ``hgemm`` / ``sgemm`` per image),
kept verbatim.  The plane must equal it bit for bit at every tile size and
lane count: a per-image product and a stacked one are the same BLAS dot
products only while the library keeps one summation order per layout, so
this file also runs on the NumPy-floor CI leg.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.baselines import GarciaKernel
from repro.blas.gemm import hgemm, sgemm
from repro.core import EngineConfig, ImageMatch, TextureSearchEngine, knn_algorithm1
from repro.core import algorithm2 as algorithm2_module
from repro.core import kernels as kernels_module
from repro.core.algorithm1 import PreparedFeatures, prepare_reference
from repro.core.algorithm2 import _knn_columns
from repro.core.kernels import Algorithm1Kernel, PreparedQuery, ReferenceBatch
from repro.core.ratio_test import match_images
from repro.core.results import KnnResult
from repro.core.topk import functional_topk
from repro.errors import HalfPrecisionOverflowError
from tests.conftest import make_descriptors, noisy_copy

M, N, K = 24, 16, 2
SCALE = 2.0**-7


def parent_knn_algorithm1(reference: PreparedFeatures, query: PreparedFeatures, k: int = K) -> KnnResult:
    """Steps 3-8 of Algorithm 1 for one reference image, as the parent computed them."""
    dtype = reference.precision
    # Step 3: A = -2 R^T Q.
    if dtype == "fp16":
        a, overflow = hgemm(None, reference.values, query.values, alpha=1.0, transpose_a=True)
        if overflow:
            raise HalfPrecisionOverflowError(reference.scale, float(np.abs(a).max()))
        a = -2.0 * a
    else:
        a = sgemm(None, reference.values, query.values, alpha=-2.0, transpose_a=True)

    # Step 4: in-place row broadcast of N_R.
    a += reference.norms[:, None]

    # Step 5: column-parallel top-k (the scan and the insertion sort select alike).
    top_vals, top_idx = functional_topk(a, k)

    # Steps 6-7 (merged kernel): add N_Q to the k winners, sqrt.
    sq = top_vals + query.norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    distances = np.sqrt(sq, dtype=np.float32)
    if dtype == "fp16":
        distances /= np.float32(reference.scale)

    # Step 8: the k x n result (+ indices) is what reaches the host.
    return KnnResult(distances=distances, indices=top_idx.astype(np.int32))


def lanes(count: int):
    return mock.patch.object(algorithm2_module, "_usable_cpus", lambda: count)


def tile_budget(images_per_tile: int | None):
    """Tiles of that many images (``None``: the shipped budget)."""
    if images_per_tile is None:
        return nullcontext()
    return mock.patch.object(algorithm2_module, "_PRODUCT_TILE_BYTES", images_per_tile * M * N * 4)


def operands(sizes, precision: str, seed: int):
    """An Algorithm 1 stack of batches (slots consecutive from 0) and a query
    that is a noisy copy of its first image, both prepared in ``precision``."""
    scale = SCALE if precision == "fp16" else 1.0
    descriptors = [make_descriptors(M, seed=1000 * seed + i) for i in range(sum(sizes))]
    prepared = [prepare_reference(r, precision, scale) for r in descriptors]
    stack, first = [], 0
    for batch_id, size in enumerate(sizes):
        members = prepared[first : first + size]
        stack.append(ReferenceBatch(
            batch_id=batch_id, slots=np.arange(first, first + size, dtype=np.int64),
            tensor=np.stack([p.values for p in members]), norms=np.stack([p.norms for p in members])))
        first += size
    query = prepare_reference(noisy_copy(descriptors[0][:, :N], 25.0, seed=seed), precision, scale)
    return stack, query


def images_of(stack, query: PreparedFeatures) -> list[PreparedFeatures]:
    return [PreparedFeatures(values, norms, query.precision, query.scale)
            for batch in stack for values, norms in zip(batch.tensor, batch.norms)]


def config(precision: str, backend: str = "algorithm1") -> EngineConfig:
    return EngineConfig(m=M, n=N, batch_size=3, precision=precision, backend=backend,
                        scale_factor=SCALE, min_matches=1)


def plain(match: ImageMatch) -> tuple:
    return tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in dataclasses.astuple(match))


@pytest.mark.parametrize("lane_count", [1, 2])
@pytest.mark.parametrize("images_per_tile", [None, 1, 2, 4])
@pytest.mark.parametrize("sizes", [(3,), (2, 3), (1, 3, 2)])
@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_the_stacked_plane_is_algorithm_1_image_by_image(precision, sizes, images_per_tile, lane_count):
    stack, query = operands(sizes, precision, seed=len(sizes))
    norms = (np.concatenate([batch.norms for batch in stack]), query.norms)
    with lanes(lane_count), tile_budget(images_per_tile):
        dist, idx = _knn_columns(None, [b.tensor for b in stack], query.values, query.scale, K,
                                 precision, False, True, norms)
        values_only, none = _knn_columns(None, [b.tensor for b in stack], query.values, query.scale,
                                         K, precision, False, False, norms)
    assert none is None and values_only.tobytes() == dist.tobytes()  # no winners-only path
    for i, reference in enumerate(images_of(stack, query)):
        want = parent_knn_algorithm1(reference, query)
        assert dist[:, i * N : (i + 1) * N].tobytes() == want.distances.tobytes()
        assert idx[:, i * N : (i + 1) * N].tobytes() == want.indices.tobytes()


@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_the_thin_callers_are_the_plane(precision):
    stack, query = operands((4,), precision, seed=7)
    for reference in images_of(stack, query):
        want = parent_knn_algorithm1(reference, query)
        got = knn_algorithm1(None, reference, query)
        assert got.distances.tobytes() == want.distances.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()


@pytest.mark.parametrize("kernel_class", [Algorithm1Kernel, GarciaKernel])
@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_a_kernel_matches_every_slot_of_a_stack_as_algorithm_1(kernel_class, precision):
    stack, query = operands((3, 1, 2), precision, seed=11)
    kernel = kernel_class(config(precision))
    prepared = PreparedQuery(matrix=query.values, aux=query)
    with tile_budget(2):
        (got,) = kernel.match_batch_multi(None, stack, prepared)
    slots = [slot for batch in stack for slot in batch.slots.tolist()]
    want = [match_images(slot, parent_knn_algorithm1(reference, query), kernel.config.ratio_threshold)
            for slot, reference in zip(slots, images_of(stack, query))]
    assert [plain(m) for m in got] == [plain(m) for m in want]
    assert max(m.good_matches for m in got) > 0  # the query's own image matches


def test_only_survivors_are_stacked_and_the_pruned_are_empty(monkeypatch):
    stack, query = operands((3, 2, 3), "fp16", seed=5)
    kernel = Algorithm1Kernel(config("fp16"))
    prepared = PreparedQuery(matrix=query.values, aux=query)
    stacked = []
    real = kernels_module._knn_columns
    monkeypatch.setattr(kernels_module, "_knn_columns", lambda device, members, *rest: (
        stacked.append(sum(map(len, members))), real(device, members, *rest))[1])
    (full,) = kernel.match_batch_multi(None, stack, prepared)
    masks = [np.array([True, False, True]), np.zeros(2, dtype=bool), None]
    (pruned,) = kernel.match_batch_multi(None, stack, prepared, masks)
    kept = np.concatenate([np.ones(3, dtype=bool) if mask is None else mask for mask in masks])
    assert [plain(m) for m in pruned] == [
        plain(m if keep else ImageMatch(m.reference_id, 0)) for m, keep in zip(full, kept)]
    assert stacked == [8, 5]
    nobody = [np.zeros(batch.size, dtype=bool) for batch in stack]
    (empty,) = kernel.match_batch_multi(None, stack, prepared, nobody)
    assert [plain(m) for m in empty] == [plain(ImageMatch(m.reference_id, 0)) for m in full]
    assert len(stacked) == 2  # no plane call for a stack with no survivor


def test_an_opencv_engine_answers_as_an_algorithm1_fp32_engine():
    engines = [TextureSearchEngine(config("fp32", backend)) for backend in ("algorithm1", "opencv")]
    references = [make_descriptors(M, seed=40 + i) for i in range(7)]
    for engine in engines:
        for i, reference in enumerate(references):
            engine.add_reference(f"ref{i}", reference)
    for q in range(4):
        query = noisy_copy(references[2 * q][:, :N], 20.0 + 10 * q, seed=q)
        want, got = (engine.search(query) for engine in engines)
        assert [plain(m) for m in got.matches] == [plain(m) for m in want.matches]
        assert max(m.good_matches for m in want.matches) > 0

