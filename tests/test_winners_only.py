"""Frozen-oracle differential tests for the winners-only epilogue (PR 17).

``oracle_functional_topk``, ``oracle_fp16_gemm``, ``oracle_batched_hgemm``
and ``oracle_knn_columns`` are ``core/topk.py::functional_topk``,
``blas/gemm.py::{_fp16_gemm, batched_hgemm}`` and
``core/algorithm2.py::_knn_columns`` as of the commit before the change,
copied verbatim (only the ``def`` names, the calls between them and the
module the tile budget is read from changed): every product entry rounded
to the half grid, scaled by -2 and scanned with two masked ``argmin``
passes.  A caller that asks for no indices now gets its distances from the
k largest entries of the *unrounded* product, rounded afterwards; they must
be the oracle's bit for bit, on data built to tie, and anything outside the
argument's domain must still be the oracle's own path.
"""

from __future__ import annotations

import copy
import dataclasses
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import gemm as gemm_module
from repro.blas.gemm import FP16_MAX, _as_2d, query_major_product
from repro.core import (
    EngineConfig,
    TextureSearchEngine,
    algorithm2 as algorithm2_module,
    knn_algorithm2,
    knn_algorithm2_multiquery,
    query_batching as query_batching_module,
)
from repro.core.algorithm2 import _accumulator_peak, knn_steps
from repro.core.kernels import NEIGHBOURS
from repro.core.topk import functional_topk
from repro.data import SyntheticFeatureModel
from repro.errors import HalfPrecisionOverflowError
from repro.fp16.codec import FP16_MIN_NORMAL, is_nonneg_finite, round_trip_nonneg, upcast_nonneg
from repro.gpusim import GPUDevice, TESLA_P100, TESLA_V100
from tests.conftest import planned_tiles

# -- frozen oracles (verbatim from the parent commit) ----------------------


def _oracle_stable_topk(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.argsort(a, axis=0, kind="stable")[:k, :]
    return np.take_along_axis(a, idx, axis=0), idx


def oracle_functional_topk(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest ``k`` values (and row indices) of each column of ``a``.

    Deterministic tie-breaking: ties resolve to the lower row index,
    matching what a sequential scan produces.  For k ≪ m the selection
    is Sec. 4.1's ``k`` running minima: one ``argmin`` pass per winner
    (first occurrence = lower row), the winner masked with ``+inf``
    before the next pass and every masked entry put back before
    returning, so ``a`` is unchanged after the call (a read-only ``a``
    is copied first).  Columns are scanned fastest when contiguous in
    memory, i.e. when ``a`` is F-ordered.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected (m, columns), got shape {a.shape}")
    m, cols = a.shape
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if 4 * k >= m or a.dtype.kind != "f":
        # k is a sizable fraction of m (a stable full sort is both
        # simpler and no slower), or the dtype has no +inf to mask with.
        return _oracle_stable_topk(a, k)
    work = a if a.flags.writeable else a.copy()
    col = np.arange(cols)
    vals = np.empty((k, cols), dtype=a.dtype)
    idx = np.empty((k, cols), dtype=np.intp)
    found = 0
    try:
        for j in range(k):
            np.argmin(work, axis=0, out=idx[j])
            vals[j] = work[idx[j], col]
            found = j + 1
            work[idx[j], col] = np.inf
    finally:
        work[idx[:found], col] = vals[:found]
    # A winner that is not < +inf is a NaN (argmin's first pick, a
    # stable sort's last) or ties with the mask itself: those columns
    # take the sort's order.
    unordered = ~(vals < np.inf).all(axis=0)
    if unordered.any():
        vals[:, unordered], idx[:, unordered] = _oracle_stable_topk(a[:, unordered], k)
    return vals, idx


def oracle_fp16_gemm(
    product, a: np.ndarray, b: np.ndarray, alpha: float, tensor_core: bool, store_fp16: bool,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, bool]:
    """``(alpha * product(a, b) as float32, overflowed)`` from FP16
    operands: the one epilogue behind both entry points, which differ in
    the ``product`` that lays the result out (into its ``out``, if given).
    Callers that model plain HGEMM must treat ``overflowed=True`` outputs
    as saturated/invalid (the library raises, see :mod:`repro.fp16`).
    """
    a = a.astype(np.float16, copy=False)
    b = b.astype(np.float16, copy=False)
    # One scan of the stored bits per operand: no sign bit anywhere means
    # no negative product and no -0.0, and picks the codec over astype.
    nonneg = is_nonneg_finite(a) and is_nonneg_finite(b)
    if nonneg:
        a32, b32 = upcast_nonneg(a), upcast_nonneg(b)
    else:
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
    # What an FP32-accumulating engine produces; owned, so the rest is in place.
    exact = product(a32, b32, out=out)
    # fmin/fmax skip NaNs, so ``hi > x`` is ``np.any(exact > x)``.  Sums of
    # non-negative finite terms are never negative or NaN: one scan, not two.
    hi = np.fmax.reduce(exact, axis=None, initial=-np.inf)
    lo = 0.0 if nonneg else np.fmin.reduce(exact, axis=None, initial=np.inf)
    unstorable = bool(hi > FP16_MAX or lo < -FP16_MAX)
    if tensor_core or nonneg:
        # FP32 accumulation: only the final store can overflow.  Non-negative
        # operands: partial sums are monotone, so the final value is the max.
        overflow = unstorable
    else:
        # Conservative bound on the largest partial sum.
        bound = product(np.abs(a32), np.abs(b32))
        overflow = bool(np.fmax.reduce(bound, axis=None, initial=-np.inf) > FP16_MAX)
    if store_fp16:
        # Model FP16 rounding of the accumulator on the final result.
        # (The per-step rounding error is dominated by input
        # quantization for the d=128 sums used here.)
        if unstorable:
            np.clip(exact, -FP16_MAX, FP16_MAX, out=exact)
        if nonneg:  # no negative entry or -0.0: the codec's domain
            round_trip_nonneg(exact, min(hi, FP16_MAX))
        else:
            exact[...] = exact.astype(np.float16)
    if alpha != 1.0:
        exact *= np.float32(alpha)
        if abs(alpha) != 1.0 and not tensor_core:
            overflow = overflow or bool(np.any(np.abs(exact) > FP16_MAX))
    return exact, overflow


def oracle_batched_hgemm(
    device: Optional[GPUDevice],
    a_batch: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    tensor_core: bool = False,
    step: str = "GEMM",
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, bool]:
    """Batched FP16 GEMM: ``a_batch`` is ``(batch, k, m)`` reference
    matrices (features stored column-wise, as in Fig. 3); ``b`` is the
    shared ``(k, n)`` query matrix.  Returns ``(batch, m, n)`` products,
    the transposed view of the ``(batch, n, m)`` float32 ``out`` if given.

    This is the Sec. 5 batching optimization: the whole batch is charged
    as *one* GEMM call of ``batch`` times the work, which is where the
    data-reuse efficiency gain comes from.  ``device=None`` computes
    without charging: ``a_batch`` is then one tile of a batch whose
    single GEMM the caller has already charged.
    """
    a_batch = np.asarray(a_batch)
    if a_batch.ndim != 3:
        raise ValueError(f"a_batch must be (batch, k, m), got shape {a_batch.shape}")
    b = _as_2d(b, "b")
    batch, k, m = a_batch.shape
    if k != b.shape[0]:
        raise ValueError(f"inner-dimension mismatch: {a_batch.shape} vs {b.shape}")
    n = b.shape[1]
    if device is not None:
        device.gemm(m, n, k, batch=batch, dtype="fp16", tensor_core=tensor_core, step=step)
    return oracle_fp16_gemm(query_major_product, a_batch, b, alpha, tensor_core, store_fp16=True, out=out)


def oracle_knn_columns(
    device: Optional[GPUDevice],
    stack: Sequence[np.ndarray],
    columns: np.ndarray,
    scale: float,
    k: int,
    precision: str,
    tensor_core: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-4 for a *stack* — ``(batch_i, d, m)`` reference batches taken
    as the one batch they would concatenate to — against the ``(d, n)``
    columns of one query, or of several, concatenated.  ``device=None``
    computes only (the engine's sweep has charged each member as its own
    batch).  Returns ``(distances, indices)``, each ``(k, images * n)``,
    image-major in stack order.
    """
    d, m = stack[0].shape[1:]
    images = sum(len(refs) for refs in stack)
    n = columns.shape[1]
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if precision not in ("fp16", "fp32"):
        raise ValueError(f"precision must be 'fp16' or 'fp32', got {precision!r}")
    fp16 = precision == "fp16"
    if not fp16:
        columns = columns.astype(np.float32, copy=False)

    # Step 1: batched GEMM, charged as one fused call per batch (the Sec. 5
    # data reuse) and computed tile by tile: columns are independent, so steps
    # 1-2 of a tile are those of its batches restricted to its images.
    if device is not None:
        steps = knn_steps(device, images, m, n, d, k, precision, tensor_core)
        device.charge(steps[:1])
    tile = max(1, algorithm2_module._PRODUCT_TILE_BYTES // max(1, 4 * m * n))  # images
    scratch = np.empty((min(tile, images), n, m), dtype=np.float32)
    dist = np.empty((k, images * n), dtype=np.float32)
    top_idx = np.empty((k, images * n), dtype=np.int32)
    # A tile stops at an image boundary, not at a member's: inside one member
    # it is a view, across members a copy of this tile's operand only.
    flat = stack[0] if len(stack) == 1 else [image for refs in stack for image in refs]
    for start in range(0, images, tile):
        refs = np.asarray(flat[start : start + tile])
        out = scratch[: len(refs)]
        cols = slice(start * n, (start + len(refs)) * n)
        if fp16:
            a, overflow = oracle_batched_hgemm(None, refs, columns, tensor_core=tensor_core, out=out)
            if overflow:
                # error path only: name the first member whose own product overflows,
                # image by image — whatever the tile size and whatever shared its tile
                hot = next((member for member in stack for image in member if oracle_batched_hgemm(
                    None, image[None], columns, tensor_core=tensor_core)[1]), refs)
                raise HalfPrecisionOverflowError(scale, _accumulator_peak(hot, columns))
        else:
            a = query_major_product(refs.astype(np.float32, copy=False), columns, out=out)
        a *= np.float32(-2.0)
        # Step 2: one scan thread per (image, query-feature) column — on the
        # query-major product a zero-copy F-ordered view, each column
        # contiguous.  Only the winners leave the tile.
        scanned = np.transpose(a, (1, 0, 2)).reshape(m, len(refs) * n)
        dist[:, cols], top_idx[:, cols] = oracle_functional_topk(scanned, k)

    # Step 3: sqrt(const + A) in-register on the winners only; step 4: the gather.
    if device is not None:
        device.charge(steps[1:])
    dist += np.float32(2.0 * scale * scale if fp16 else 2.0)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    if fp16:
        dist /= np.float32(scale)
    return dist, top_idx


def parent_knn_columns(device, stack, columns, scale, k, precision, tensor_core, indices=True):
    """The oracle behind today's signature: the parent always found indices."""
    return oracle_knn_columns(device, stack, columns, scale, k, precision, tensor_core)


@contextmanager
def parent_kernels():
    """Every sweep inside runs the parent's ``_knn_columns``."""
    with mock.patch.object(algorithm2_module, "_knn_columns", parent_knn_columns), \
            mock.patch.object(query_batching_module, "_knn_columns", parent_knn_columns):
        yield


# -- helpers ---------------------------------------------------------------


def bits(x: np.ndarray) -> np.ndarray:
    """Bit pattern of a float32 array: distinguishes ±0.0, equates NaNs."""
    assert x.dtype == np.float32
    return np.ascontiguousarray(x).view(np.uint32)


def steps(device: GPUDevice) -> list[tuple[str, float, int]]:
    return [(r.name, r.total_us, r.calls) for r in device.profiler.records()]


def tile_budget(images_per_tile: Optional[int], m: int, columns: int):
    """Patch the module's tile budget to hold that many images' products
    (``None``: the shipped budget; 0: less than one image's)."""
    if images_per_tile is None:
        return nullcontext()
    return mock.patch.object(
        algorithm2_module, "_PRODUCT_TILE_BYTES", images_per_tile * m * columns * 4 or 1
    )


def split(references: np.ndarray, members: int) -> list[np.ndarray]:
    """``references`` as a stack of (at most) ``members`` non-empty batches."""
    cuts = np.linspace(0, len(references), min(members, len(references)) + 1).astype(int)
    return [references[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


# -- operands --------------------------------------------------------------

D = 8
PRECISIONS = {"fp16@2^-7": ("fp16", 2.0**-7), "fp16@0.25": ("fp16", 0.25),
              "fp16@1": ("fp16", 1.0), "fp32": ("fp32", 1.0)}


def random_operands(rng, images, m, n_queries, n, precision, scale):
    """Unit-norm non-negative columns times the scale: at 2^-7 every product
    is an FP16 subnormal."""
    dtype = np.float16 if precision == "fp16" else np.float32
    refs = rng.random((images, D, m), dtype=np.float32)
    queries = rng.random((n_queries, D, n), dtype=np.float32)
    refs = (refs / np.linalg.norm(refs, axis=1, keepdims=True) * scale).astype(dtype)
    queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True) * scale).astype(dtype)
    return refs, queries


def tied_operands(rng, images, m, n_queries, n, precision, scale):
    """Operands built to tie.  Reference feature ``j`` is ``scale * (g_j, t_j,
    0, ...)`` and a query column ``scale * (a, b * 2^-12, 0, ...)``, all exact
    in FP16, so the product ``scale^2 * (a g_j + b t_j 2^-12)`` is exact in
    FP32: a point ``g_j`` of the half grid plus ``t_j`` quarters (``a = 1``) or
    halves (``a = 1/2``) of one grid step.  ``g`` and ``t`` come from small
    alphabets, so a column holds exact duplicates (same ``g``, same ``t``),
    products that differ in FP32 and collide once rounded (same ``g``,
    ``t`` in {0, 1} of quarters), exact midpoints (``t = 2`` quarters or one
    half: ties-to-even decides) and, from zero-padded reference features and
    query columns, runs of zeros.  At 2^-7 ``g < 1``: all FP16 subnormals.
    """
    dtype = np.float16 if precision == "fp16" else np.float32
    levels = rng.choice(np.arange(8, 1024), size=4, replace=False) / 1024.0
    g = rng.choice(levels, size=(images, m)) + (0.0 if scale < 2.0**-6 else 1.0)
    refs = np.zeros((images, D, m), dtype=np.float64)
    refs[:, 0], refs[:, 1] = g, rng.integers(0, 4, size=(images, m))
    queries = np.zeros((n_queries, D, n), dtype=np.float64)
    queries[:, 0] = rng.choice([1.0, 0.5], size=(n_queries, n))
    queries[:, 1] = rng.integers(0, 2, size=(n_queries, n)) * 2.0**-12
    for image in refs:  # zero padding: the tail of an image's features ...
        image[:, m - rng.integers(0, m // 2 + 1):] = 0.0
    for query in queries:  # ... and of a query's
        query[:, n - rng.integers(0, n // 2 + 1):] = 0.0
    refs, queries = refs * scale, queries * scale
    assert np.array_equal(refs.astype(dtype), refs) and np.array_equal(queries.astype(dtype), queries)
    return refs.astype(dtype), queries.astype(dtype)


OPERANDS = {"random": random_operands, "tied": tied_operands}


# -- the winners-only sweep against the parent's ---------------------------


def check_against_the_parent(stack, queries, scale, k, precision, tensor_core, images_per_tile):
    """``knn_algorithm2_multiquery`` asked for no indices, asked for them and
    called as before, and ``knn_algorithm2``, against the parent's glue on a
    device of its own: distance bits, indices where there are any, simulated
    clock, profiler steps, operands untouched."""
    images = sum(len(member) for member in stack)
    m = stack[0].shape[2]
    n_queries, _, n = queries.shape
    kwargs = dict(scale=scale, k=k, precision=precision, tensor_core=tensor_core)
    case = f"{kwargs} images={images} m={m} Q={n_queries} n={n} per_tile={images_per_tile}"
    before = [member.tobytes() for member in stack], queries.tobytes()
    shape = (k, images, n_queries, n)
    with tile_budget(images_per_tile, m, n_queries * n):
        oracle_device = GPUDevice(TESLA_V100)
        q_all = np.transpose(queries, (1, 0, 2)).reshape(D, n_queries * n)
        dist, idx = oracle_knn_columns(oracle_device, stack, q_all, **kwargs)
        want = bits(dist.reshape(shape).transpose(1, 2, 0, 3))
        for indices in (False, True, None):
            device = GPUDevice(TESLA_V100)
            asked = {} if indices is None else {"indices": indices}
            got = knn_algorithm2_multiquery(device, stack, queries, **kwargs, **asked)
            assert got.distances.dtype == np.float32 and got.distances.flags.c_contiguous, case
            assert np.array_equal(bits(got.distances), want), (case, indices)
            if indices is False:
                assert got.indices is None, case
            else:
                assert got.indices.dtype == np.int32, case
                assert np.array_equal(got.indices, idx.reshape(shape).transpose(1, 2, 0, 3)), case
            assert device.synchronize() == oracle_device.synchronize() > 0, case
            assert steps(device) == steps(oracle_device), case
    with tile_budget(images_per_tile, m, n):
        dist, idx = oracle_knn_columns(GPUDevice(TESLA_V100), stack, queries[0], **kwargs)
        single = knn_algorithm2(GPUDevice(TESLA_V100), np.concatenate(stack), queries[0], **kwargs)
        assert np.array_equal(single.indices, idx.reshape(k, images, n).transpose(1, 0, 2)), case
        assert np.array_equal(
            bits(single.distances), bits(dist.reshape(k, images, n).transpose(1, 0, 2))
        ), case
    assert ([member.tobytes() for member in stack], queries.tobytes()) == before, case


@st.composite
def sweeps(draw):
    k = draw(st.sampled_from([2, 3]))
    return dict(
        k=k,
        m=draw(st.sampled_from([4, 8, 9, 12, 13, 24, 40])),  # 4k >= m below 9 (k=2) / 13 (k=3)
        n=draw(st.integers(1, 9)),
        images=draw(st.integers(1, 7)),
        members=draw(st.integers(1, 5)),
        n_queries=draw(st.integers(1, 4)),
        precision=draw(st.sampled_from(sorted(PRECISIONS))),
        tensor_core=draw(st.booleans()),
        images_per_tile=draw(st.sampled_from([None, 0, 1, 2, 3])),  # 2 and 3: a ragged last tile
        operands=draw(st.sampled_from(sorted(OPERANDS))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_distances_without_indices_are_the_parents_bit_for_bit(case):
    precision, scale = PRECISIONS[case["precision"]]
    refs, queries = OPERANDS[case["operands"]](
        np.random.default_rng(case["seed"]), case["images"], case["m"], case["n_queries"],
        case["n"], precision, scale,
    )
    check_against_the_parent(split(refs, case["members"]), queries, scale, case["k"], precision,
                             case["tensor_core"], case["images_per_tile"])


@pytest.mark.parametrize("label", [label for label in PRECISIONS if label != "fp32"])
def test_the_tied_operands_tie_the_way_they_claim(label):
    """The construction above is what gives the differential test its teeth:
    columns with exact duplicates among their winners, with FP32-distinct
    products that collide once rounded, and with exact half-grid midpoints."""
    _, scale = PRECISIONS[label]
    refs, queries = tied_operands(np.random.default_rng(3), 6, 40, 2, 9, "fp16", scale)
    product = np.einsum("idm,qdn->iqmn", refs.astype(np.float64), queries.astype(np.float64))
    exact = product.astype(np.float32)
    assert np.array_equal(exact, product)  # the FP32 accumulator holds every product exactly
    assert (exact.max() < FP16_MIN_NORMAL) == (scale == 2.0**-7)  # all-subnormal at the paper's scale
    rounded = exact.astype(np.float16).astype(np.float32)
    ranked, ranked_rounded = np.sort(exact, axis=2), np.sort(rounded, axis=2)  # rounding keeps the order
    assert (ranked[:, :, -1] == ranked[:, :, -2]).any()  # a duplicated maximum
    assert ((ranked[:, :, 1:] != ranked[:, :, :-1])
            & (ranked_rounded[:, :, 1:] == ranked_rounded[:, :, :-1])).any()
    up = np.nextafter(rounded, np.float32(np.inf)).astype(np.float16).astype(np.float32)
    down = np.nextafter(rounded, np.float32(-np.inf)).astype(np.float16).astype(np.float32)
    midpoint = (exact != rounded) & ((np.abs(exact - rounded) == np.abs(up - exact))
                                     | (np.abs(exact - rounded) == np.abs(exact - down)))
    assert midpoint.any() and (exact == 0).all(axis=2).any()  # ties-to-even cases; an all-zero column


# -- outside the argument's domain -----------------------------------------


@pytest.mark.parametrize("kind", ["signed", "negzero", "inf", "nan"])
def test_operands_with_a_sign_bit_inf_or_nan_take_the_parents_path(kind):
    rng = np.random.default_rng(23)
    for images_per_tile, tensor_core in ((None, False), (2, True), (1, False)):
        refs, queries = random_operands(rng, 5, 24, 2, 7, "fp16", 0.25)
        with np.errstate(invalid="ignore"):
            if kind == "signed":
                refs[1:4, ::2] *= -1
            elif kind == "negzero":
                refs[2, :, 3], queries[1, 0, 0] = -0.0, -0.0
            else:
                queries[0, 2, 4] = np.inf if kind == "inf" else np.nan
        seen = []
        for sweep in (oracle_knn_columns, algorithm2_module._knn_columns):
            device = GPUDevice(TESLA_V100)
            q_all = np.transpose(queries, (1, 0, 2)).reshape(D, -1)
            extra = {} if sweep is oracle_knn_columns else {"indices": False}
            with tile_budget(images_per_tile, 24, 14), np.errstate(invalid="ignore"):
                try:
                    dist, _ = sweep(device, split(refs, 2), q_all, 0.25, 2, "fp16", tensor_core, **extra)
                    seen.append((bits(dist).tobytes(), steps(device)))
                except HalfPrecisionOverflowError as error:
                    seen.append((error.scale, error.max_value, str(error), steps(device)))
        assert seen[0] == seen[1]
        assert (kind == "inf") == (len(seen[0]) == 4)  # an inf product is an overflow, today as before


def test_a_tile_of_other_operands_in_a_stack_of_good_ones_falls_back_alone():
    """The domain is decided tile by tile, from the data: in a stack whose
    middle tile carries a sign bit that tile comes back stored and flagged,
    its neighbours as unexamined accumulators."""
    refs, queries = random_operands(np.random.default_rng(29), 6, 24, 1, 7, "fp16", 0.25)
    refs[2, 0, 5] = -refs[2, 0, 5]
    flags = []
    for start in (0, 2, 4):
        tile = refs[start : start + 2]
        product, flag = gemm_module.batched_hgemm(None, tile, queries[0], store_fp16=False)
        stored = gemm_module.batched_hgemm(None, tile, queries[0])[0]
        exact = query_major_product(tile.astype(np.float32), queries[0].astype(np.float32))
        assert np.array_equal(bits(product), bits(exact if flag is None else stored))
        assert not np.array_equal(exact, stored)  # rounding is not a no-op on this data
        flags.append(flag)
    assert flags == [None, False, None]
    check_against_the_parent([refs], queries, 0.25, 2, "fp16", False, 2)


# -- overflow --------------------------------------------------------------


def overflow_seen(hot_image: int, indices: bool) -> list[tuple]:
    """``(scale, max_value, message)`` of the error and the device's steps,
    over three tilings and both accumulators."""
    refs = np.full((6, 128, 40), 0.01, dtype=np.float16)
    query = np.full((1, 128, 24), 0.01, dtype=np.float16)
    query[0, :, 7] = 200.0
    refs[hot_image, :, 11] = 200.0  # 128 * 200 * 200: far beyond 65 504
    refs[2, :, 0] = 30.0  # 128 * 30 * 200: a smaller overflow, in another tile
    seen = []
    for images_per_tile in (0, 2, None):  # six tiles, three, one
        for tensor_core in (False, True):
            device = GPUDevice(TESLA_V100)
            with tile_budget(images_per_tile, 40, 24), pytest.raises(HalfPrecisionOverflowError) as raised:
                knn_algorithm2_multiquery(
                    device, refs, query, scale=0.25, tensor_core=tensor_core, indices=indices
                )
            error = raised.value
            seen.append((error.scale, error.max_value, str(error),
                         [(name, calls) for name, _, calls in steps(device)]))
    return seen


@pytest.mark.parametrize("hot_image", [0, 3, 5], ids=["first_tile", "middle_tile", "last_tile"])
def test_overflow_is_the_parents_error_at_any_tiling(hot_image):
    with parent_kernels():
        want = overflow_seen(hot_image, indices=True)
    assert all(entry == want[0] for entry in want)
    assert want[0][:2] == (0.25, 128 * 200.0 * 200.0) and want[0][3] == [("GEMM", 1)]
    assert overflow_seen(hot_image, indices=False) == want == overflow_seen(hot_image, indices=True)


def test_a_product_at_the_limit_is_not_an_overflow_and_one_past_it_is():
    """The winners hold the tile's maximum: 65 504 itself is storable, the
    next FP32 product up is not — with and without indices alike."""
    refs = np.zeros((2, 2, 16), dtype=np.float16)
    query = np.zeros((1, 2, 3), dtype=np.float16)
    refs[1, 0, 9], query[0, 0, 1] = 255.875, 256.0  # 65 504 exactly
    for indices in (False, True):
        result = knn_algorithm2_multiquery(None, refs, query, scale=1.0, indices=indices)
        assert result.distances[1, 0, 0, 1] == 0.0  # sqrt(max(2 - 2 * 65 504, 0))
        refs[1, 1, 9], query[0, 1, 1] = 2.0**-8, 1.0  # + 2^-8: the next float32 up
        with pytest.raises(HalfPrecisionOverflowError) as raised:
            knn_algorithm2_multiquery(None, refs, query, scale=1.0, indices=indices)
        assert raised.value.max_value == np.float32(65504.0 + 2.0**-8) > FP16_MAX
        refs[1, 1, 9] = 0.0


# -- the engine ------------------------------------------------------------

PAPER = EngineConfig(m=384, n=768, batch_size=8, scale_factor=2.0**-7)
SERVICE = EngineConfig(m=96, n=128, batch_size=8, min_matches=8, scale_factor=0.25)


def build_engine(config: EngineConfig, references: int = 12) -> TextureSearchEngine:
    model = SyntheticFeatureModel(seed=7)
    engine = TextureSearchEngine(config, device=GPUDevice(TESLA_P100))
    for i in range(references):  # one full batch and a ragged one
        engine.add_reference(f"ref-{i}", model.capture(i, "reference").top(config.m).descriptors)
    engine.flush()
    return engine


def queries_for(config: EngineConfig, images: Sequence[int]) -> list[np.ndarray]:
    model = SyntheticFeatureModel(seed=7)
    return [model.capture(i, "query").top(config.n).descriptors for i in images]


def frozen(value):
    """A result as plain tuples, every field kept: arrays by dtype, shape and
    bytes (``==`` on a dataclass holding arrays is ambiguous)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple((f.name, frozen(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(frozen(item) for item in value)
    return value


def observed(engine, *results) -> tuple:
    """Everything searches leave behind, bits included."""
    device = engine.device
    return (frozen(results), copy.deepcopy(engine.stats), device.elapsed_us(), steps(device))


@pytest.mark.parametrize("routed", [False, True])
@pytest.mark.parametrize("config", [PAPER, SERVICE], ids=["paper", "service"])
def test_engine_results_are_the_parent_engines(config, routed):
    """``search`` and ``search_group`` at paper and service dimensions, over
    every reference or a candidate set that rules a whole batch out, against
    an engine whose sweeps run the parent's ``_knn_columns``: every field of
    every answer, simulated clock, ``EngineStats`` and profiler."""
    group = queries_for(config, (2, 5, 11))
    candidates = {"ref-2", "ref-5", "nobody"} if routed else None
    engine, parent = build_engine(config), build_engine(config)
    got_single = engine.search(group[1], candidate_ids=candidates)
    got_group = engine.search_group(group, candidate_ids=candidates)
    with parent_kernels():
        want_single = parent.search(group[1], candidate_ids=candidates)
        want_group = parent.search_group(group, candidate_ids=candidates)
    assert observed(engine, got_single, got_group) == observed(parent, want_single, want_group)
    assert got_single == want_single and got_group.answers == want_group.answers
    assert got_single.best().reference_id == "ref-5" and got_single.elapsed_us > 0
    assert sum(m.good_matches for r in got_group.answers for m in r.matches) > 0
    assert [len(r.matches) for r in got_group.answers] == [2 if routed else 12] * 3
    assert got_group.images_pruned == (4 if routed else 0)


# -- a pass pin that needs no clock ----------------------------------------


class SpyNumpy:
    """``numpy`` with the sizes ``fmax.reduce`` / ``fmin.reduce`` see written down."""

    class Ufunc:
        def __init__(self, ufunc, sizes):
            self.ufunc, self.sizes = ufunc, sizes

        def reduce(self, x, *args, **kwargs):
            self.sizes.append(np.size(x))
            return self.ufunc.reduce(x, *args, **kwargs)

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

    def __init__(self):
        self.reduced = []
        self.fmax, self.fmin = self.Ufunc(np.fmax, self.reduced), self.Ufunc(np.fmin, self.reduced)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("indices", [False, True])
def test_without_masks_nothing_but_the_gemm_and_the_two_scans_touches_a_tile(monkeypatch, indices):
    """During a search (which keeps counts, never masks or indices) the
    codec only ever sees the winners and the epilogue reduces nothing
    product-sized; the same plane asked for indices, as the paper's step 4
    ships them, rounds and scans every tile, as it always did."""
    engine = build_engine(PAPER, references=8)
    query = queries_for(PAPER, (5,))[0]
    engine.search(query)  # warm: lazy set-up is not what is pinned
    stack = [cached.batch.tensor for cached in engine.cache.batches()]
    matrix = engine.kernel.prepare_query(None, query).matrix
    rounded, spy = [], SpyNumpy()

    def recording(x, hi):
        rounded.append(x.size)
        round_trip_nonneg(x, hi)

    monkeypatch.setattr(gemm_module, "round_trip_nonneg", recording)
    monkeypatch.setattr(algorithm2_module, "round_trip_nonneg", recording)
    monkeypatch.setattr(gemm_module, "np", spy)
    scans = []
    real_topk = algorithm2_module.functional_topk
    monkeypatch.setattr(algorithm2_module, "functional_topk",
                        lambda a, *args, **kw: (scans.append(a.size), real_topk(a, *args, **kw))[1])
    if indices:
        knn_algorithm2_multiquery(None, stack, matrix[None], scale=PAPER.effective_scale,
                                  precision=PAPER.precision)
    else:
        assert engine.search(query).best().reference_id == "ref-5"
    image = PAPER.m * PAPER.n
    tiles = [size * image for size in planned_tiles(8, 4 * image)]
    # one selection per tile, on the tile, in whatever order the lanes finish
    assert sorted(scans) == sorted(tiles) and len(tiles) > 1
    if indices:
        assert sorted(rounded) == sorted(tiles) and sorted(spy.reduced) == sorted(tiles)
    else:
        assert sorted(rounded) == sorted(NEIGHBOURS * size // PAPER.m for size in tiles)  # the winners
        assert spy.reduced == []


# -- the NumPy properties the path stands on -------------------------------


def test_argmax_returns_the_first_occurrence_and_minus_inf_masks_it():
    a = np.asfortranarray(np.array([[1, 5, 0], [7, 5, 0], [7, 2, 0], [3, 5, 0]], dtype=np.float32))
    assert np.argmax(a, axis=0).tolist() == [1, 0, 0]
    a[np.argmax(a, axis=0), np.arange(3)] = -np.inf
    assert np.argmax(a, axis=0).tolist() == [2, 1, 1]
    assert np.array_equal(functional_topk(a.copy(), 1, largest=True)[0], [[7, 5, 0]])


def test_largest_k_is_values_only_with_multiplicity_and_consumes_its_input():
    rng = np.random.default_rng(41)
    for m, k in ((40, 2), (40, 3), (13, 3), (12, 3), (4, 2), (3, 3)):  # the last three: 4k >= m, a sort
        a = rng.integers(0, 5, size=(m, 17)).astype(np.float32)  # an alphabet of five: ties everywhere
        want = np.sort(a, axis=0)[::-1][:k]
        work = np.asfortranarray(a)
        got, idx = functional_topk(work, k, largest=True)
        assert idx is None and got.dtype == np.float32 and np.array_equal(got, want)
        if 4 * k < m:  # the winners, and only they, are left masked
            assert (work == -np.inf).sum(axis=0).tolist() == [k] * 17
            assert np.array_equal(np.sort(np.where(work == -np.inf, np.inf, work), axis=0)[: m - k],
                                  np.sort(a, axis=0)[: m - k])
        frozen = a.copy()
        frozen.flags.writeable = False
        assert np.array_equal(functional_topk(frozen, k, largest=True)[0], want)


def test_the_codec_on_a_strided_k_by_columns_array_is_astype():
    rng = np.random.default_rng(43)
    for hi in (2.0**-15, 2.0**-13, 1.0, FP16_MAX):
        base = rng.random((3, 50), dtype=np.float32) * np.float32(hi)
        for cut in (lambda x: x[:2, 7:40], lambda x: x[::2, ::3], lambda x: x.T[5:30, :2].T):
            want = bits(cut(base).astype(np.float16).astype(np.float32))
            target = cut(base.copy())
            assert not target.flags.c_contiguous
            round_trip_nonneg(target, float(target.max()))
            assert np.array_equal(bits(target), want)


# -- mutants: each must fail a check above ---------------------------------


def tied_case(seed: int = 5):
    refs, queries = tied_operands(np.random.default_rng(seed), 5, 40, 2, 9, "fp16", 0.25)
    return [refs], queries, 0.25, 2, "fp16", False, 2


def test_mutant_rounding_the_winners_half_up_is_caught(monkeypatch):
    def half_up(x, hi):
        exponent = np.maximum(np.floor(np.log2(np.maximum(x, 2.0**-30, dtype=np.float64))), -14)
        grid = 2.0 ** (exponent - 10)
        x[...] = np.floor(x / grid + 0.5) * grid

    check_against_the_parent(*tied_case())
    monkeypatch.setattr(algorithm2_module, "round_trip_nonneg", half_up)
    with pytest.raises(AssertionError):
        check_against_the_parent(*tied_case())


def test_mutant_taking_the_k_largest_distinct_values_is_caught(monkeypatch):
    real = algorithm2_module.functional_topk

    def distinct(a, k, largest=False):
        if not largest:
            return real(a, k)
        columns = [np.unique(column)[::-1] for column in a.T]
        return np.stack([np.resize(column, k) for column in columns], axis=1), None

    monkeypatch.setattr(algorithm2_module, "functional_topk", distinct)
    with pytest.raises(AssertionError):
        check_against_the_parent(*tied_case())


def test_mutant_skipping_the_winners_overflow_check_is_caught(monkeypatch):
    monkeypatch.setattr(algorithm2_module, "FP16_MAX", np.inf)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        overflow_seen(3, indices=False)
