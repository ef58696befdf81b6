"""Frozen-oracle differential tests for the host kernel diet (PR 13).

``oracle_functional_topk``, ``oracle_hgemm`` and ``oracle_batched_hgemm``
are the bodies of ``core/topk.py::functional_topk`` and
``blas/gemm.py::{_hgemm_product, hgemm, batched_hgemm}`` as of the commit
before the diet, copied verbatim (only the ``def`` names changed).  The
rewritten kernels must reproduce them bit for bit: values, indices,
products and overflow flags — the simulated numbers and the committed
verdicts were produced with these.

``oracle_knn_columns`` is ``core/algorithm2.py::_knn_columns`` as of the
commit before the tiled sweep (PR 15): the glue that materialised the
whole ``(batch, m, n)`` product, kept to pin the tiled loop at every
tile boundary.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.blas.gemm import FP16_MAX, _as_2d, batched_hgemm, hgemm, query_major_product
from repro.core import (
    EngineConfig,
    TextureSearchEngine,
    algorithm2 as algorithm2_module,
    functional_topk,
    knn_algorithm2,
    knn_algorithm2_multiquery,
)
from repro.core.batching import ReferenceBatch
from repro.core.kernels import Algorithm2Kernel
from repro.core.ratio_test import batch_ratio_test_masks
from repro.data import SyntheticFeatureModel
from repro.errors import HalfPrecisionOverflowError
from repro.fp16 import FP16_MIN_NORMAL
from repro.fp16.codec import round_trip_nonneg
from repro.gpusim import GPUDevice, TESLA_P100, TESLA_V100
from tests.conftest import planned_tiles, slot_matches

# -- frozen oracles (verbatim from the parent commit) ----------------------


def oracle_functional_topk(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest ``k`` values (and row indices) of each column of ``a``.

    Deterministic tie-breaking: ties resolve to the lower row index,
    matching what a sequential scan produces.  For k ≪ m the selection
    runs in O(m) per column via ``np.argpartition`` instead of a full
    sort; a raw partition alone breaks ties arbitrarily at the k-th
    value boundary, so rows tied with the k-th smallest value are
    re-selected by ascending row index before the final (k-sized) sort.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected (m, columns), got shape {a.shape}")
    m, _cols = a.shape
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if 4 * k >= m:
        # k is a sizable fraction of m: a stable full sort is both
        # simpler and no slower.
        idx = np.argsort(a, axis=0, kind="stable")[:k, :]
        return np.take_along_axis(a, idx, axis=0), idx
    # k << m fast path.  The k-th smallest value per column bounds the
    # selection; rows strictly below it are always in, and the remaining
    # slots go to the lowest-index rows *equal* to it.
    thresh = np.partition(a, k - 1, axis=0)[k - 1 : k, :]
    below = a < thresh
    at_thresh = a == thresh
    need = k - below.sum(axis=0)  # per column: at-threshold rows to keep
    take_at = at_thresh & (np.cumsum(at_thresh, axis=0) <= need[None, :])
    rows = np.arange(m)[:, None]
    candidates = np.where(below | take_at, rows, m)  # m = "not selected" sentinel
    sel = np.sort(np.partition(candidates, k - 1, axis=0)[:k, :], axis=0)
    vals = np.take_along_axis(a, sel, axis=0)
    # ascending row order in, stable sort by value out => among equal
    # values the lower row index still comes first.
    order = np.argsort(vals, axis=0, kind="stable")
    idx = np.take_along_axis(sel, order, axis=0)
    return np.take_along_axis(a, idx, axis=0), idx


def _oracle_hgemm_product(op_a: np.ndarray, b: np.ndarray, tensor_core: bool) -> tuple[np.ndarray, bool]:
    """FP16 product with accumulation-overflow detection.

    Returns ``(result_fp32, overflowed)``.  ``result`` is the value an
    FP32-accumulating engine would produce from FP16 operands; callers
    that model plain HGEMM must treat ``overflowed=True`` outputs as
    saturated/invalid (the library raises, see :mod:`repro.fp16`).
    """
    a16 = op_a.astype(np.float16)
    b16 = b.astype(np.float16)
    exact = a16.astype(np.float32) @ b16.astype(np.float32)
    if tensor_core:
        # FP32 accumulation: only the final store can overflow.
        overflow = bool(np.any(np.abs(exact) > FP16_MAX))
        return exact, overflow
    if np.all(a16 >= 0) and np.all(b16 >= 0):
        # Non-negative operands: partial sums are monotone, the max
        # intermediate is the final value.
        overflow = bool(np.any(exact > FP16_MAX))
    else:
        # Conservative bound on the largest partial sum.
        bound = np.abs(a16).astype(np.float32) @ np.abs(b16).astype(np.float32)
        overflow = bool(np.any(bound > FP16_MAX))
    # Model FP16 rounding of the accumulator on the final result.  (The
    # per-step rounding error is dominated by input quantization for the
    # d=128 sums used here.)
    result = np.clip(exact, -FP16_MAX, FP16_MAX).astype(np.float16).astype(np.float32)
    return result, overflow


def oracle_hgemm(
    device: GPUDevice,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    transpose_a: bool = False,
    tensor_core: bool = False,
    step: str = "GEMM",
) -> tuple[np.ndarray, bool]:
    """FP16 GEMM; returns ``(alpha * op(A) @ B as float32, overflowed)``."""
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {op_a.shape} @ {b.shape}")
    m, k = op_a.shape
    n = b.shape[1]
    device.gemm(m, n, k, batch=1, dtype="fp16", tensor_core=tensor_core, step=step)
    result, overflow = _oracle_hgemm_product(op_a, b, tensor_core)
    scaled = np.float32(alpha) * result
    if abs(alpha) != 1.0 and not tensor_core:
        overflow = overflow or bool(np.any(np.abs(scaled) > FP16_MAX))
    return scaled, overflow


def oracle_batched_hgemm(
    device: GPUDevice,
    a_batch: np.ndarray,
    b: np.ndarray,
    alpha: float = 1.0,
    tensor_core: bool = False,
    step: str = "GEMM",
) -> tuple[np.ndarray, bool]:
    """Batched FP16 GEMM: ``a_batch`` is ``(batch, k, m)`` reference
    matrices (features stored column-wise, as in Fig. 3); ``b`` is the
    shared ``(k, n)`` query matrix.  Returns ``(batch, m, n)`` products.

    This is the Sec. 5 batching optimization: the whole batch is charged
    as *one* GEMM call of ``batch`` times the work, which is where the
    data-reuse efficiency gain comes from.
    """
    a_batch = np.asarray(a_batch)
    if a_batch.ndim != 3:
        raise ValueError(f"a_batch must be (batch, k, m), got shape {a_batch.shape}")
    b = _as_2d(b, "b")
    batch, k, m = a_batch.shape
    if k != b.shape[0]:
        raise ValueError(f"inner-dimension mismatch: {a_batch.shape} vs {b.shape}")
    n = b.shape[1]
    device.gemm(m, n, k, batch=batch, dtype="fp16", tensor_core=tensor_core, step=step)
    a16 = a_batch.astype(np.float16)
    b16 = b.astype(np.float16)
    # (batch, m, k) @ (k, n) -> (batch, m, n), FP32 accumulate.
    exact = np.einsum(
        "bkm,kn->bmn", a16.astype(np.float32), b16.astype(np.float32), optimize=True
    )
    if tensor_core:
        overflow = bool(np.any(np.abs(exact) > FP16_MAX))
    elif np.all(a16 >= 0) and np.all(b16 >= 0):
        overflow = bool(np.any(exact > FP16_MAX))
    else:
        bound = np.einsum(
            "bkm,kn->bmn",
            np.abs(a16).astype(np.float32),
            np.abs(b16).astype(np.float32),
            optimize=True,
        )
        overflow = bool(np.any(bound > FP16_MAX))
    result = np.clip(exact, -FP16_MAX, FP16_MAX).astype(np.float16).astype(np.float32)
    return np.float32(alpha) * result, overflow


def oracle_on_a_tile(device, a_tile, b, out=None, store_fp16=True, nonneg=None, **kwargs):
    """The call ``_knn_columns`` makes since the tiled sweep — ``device=None``
    (it has charged the batch itself), a scratch ``out`` and, for a caller that
    wants indices, a stored product — answered by the oracle, which charges a
    throwaway device and allocates its own result.  The kernel hands over its
    operands already up-cast (``nonneg`` given); the oracle's own FP16 cast
    gets back the halves they hold."""
    assert device is None and store_fp16 and nonneg is not None
    return oracle_batched_hgemm(GPUDevice(TESLA_P100), a_tile, b, **kwargs)


# -- helpers ---------------------------------------------------------------


def bits(x: np.ndarray) -> np.ndarray:
    """Bit pattern of a float32 array: distinguishes ±0.0, equates NaNs."""
    assert x.dtype == np.float32
    return np.ascontiguousarray(x).view(np.uint32)


@pytest.fixture
def device() -> GPUDevice:
    return GPUDevice(TESLA_V100)  # the one with tensor cores


# -- functional_topk -------------------------------------------------------

TOPK_DTYPES = (np.float16, np.float32, np.float64, np.int32)
TOPK_KINDS = ("ties", "all_equal", "inf", "nan", "random")
TOPK_LAYOUTS = ("C", "F", "view", "readonly")


def topk_matrix(kind: str, dtype, m: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "ties":
        a = rng.integers(0, 4, size=(m, cols)).astype(dtype)  # value alphabet of 4
    elif kind == "all_equal":
        a = np.full((m, cols), 7, dtype=dtype)
    else:
        a = (rng.standard_normal((m, cols)) * 50).astype(dtype)
    if kind == "inf":
        a[rng.random((m, cols)) < 0.3] = np.inf
        a[rng.random((m, cols)) < 0.2] = -np.inf
        a[:, 0] = np.inf  # a column of nothing but the mask value
    elif kind == "nan":
        a[rng.integers(0, m, size=cols), np.arange(cols)] = np.nan  # one per column
    return a


def in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "view":  # neither C- nor F-contiguous
        base = np.zeros((2 * a.shape[0], a.shape[1] + 3), dtype=a.dtype)
        view = base[::2, 2:-1]
        view[...] = a
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        return view
    a = a.copy()
    if layout == "readonly":
        a.flags.writeable = False
    return a


@pytest.mark.parametrize("layout", TOPK_LAYOUTS)
@pytest.mark.parametrize("dtype", TOPK_DTYPES, ids=lambda d: np.dtype(d).name)
def test_topk_matches_the_frozen_oracle(dtype, layout):
    rng = np.random.default_rng(13)
    for kind, k, m in itertools.product(TOPK_KINDS, range(1, 6), (4, 8, 9, 12, 13, 16, 17, 20, 21, 40)):
        if k > m or (kind in ("inf", "nan") and np.dtype(dtype).kind != "f"):
            continue
        a = in_layout(topk_matrix(kind, dtype, m, 23, rng), layout)
        before = a.tobytes()
        want_vals, want_idx = oracle_functional_topk(a, k)
        got_vals, got_idx = functional_topk(a, k)
        case = f"{kind} k={k} m={m}"
        assert a.tobytes() == before, case
        assert got_vals.dtype == want_vals.dtype and got_idx.dtype == want_idx.dtype, case
        assert np.array_equal(got_idx, want_idx), case
        assert np.array_equal(got_vals, want_vals, equal_nan=True), case


def test_topk_leaves_the_callers_array_alone_when_a_pass_fails(monkeypatch):
    a = np.random.default_rng(2).random((40, 9)).astype(np.float32)
    before = a.copy()
    real_argmin, calls = np.argmin, []

    def failing_argmin(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # two winners are masked at this point
            raise MemoryError
        return real_argmin(*args, **kwargs)

    monkeypatch.setattr(np, "argmin", failing_argmin)
    with pytest.raises(MemoryError):
        functional_topk(a, 3)
    assert np.array_equal(a, before)


# -- hgemm / batched_hgemm -------------------------------------------------

GEMM_SHAPES = ((3, 16, 7, 5), (2, 128, 33, 17), (6, 128, 96, 128), (1, 128, 384, 768))
GEMM_KINDS = ("nonneg", "mixed", "overflow", "subnormal", "negzero")


def gemm_operands(kind: str, shape, dtype, rng: np.random.Generator):
    batch, k, m, n = shape
    a = rng.random((batch, k, m), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    if kind == "mixed":
        a, b = a - 0.5, b - 0.5
    elif kind == "overflow":  # products centred on 65504: about half lie beyond it
        gain = np.float32(np.sqrt(4 * FP16_MAX / k))
        a, b = a * gain, b * gain
    elif kind == "subnormal":  # unit-norm features at the paper's 2^-7 scale
        a = a / np.linalg.norm(a, axis=1, keepdims=True) * 2.0**-7
        b = b / np.linalg.norm(b, axis=0, keepdims=True) * 2.0**-7
    elif kind == "negzero":  # -0.0 >= 0: still the non-negative branch
        a[:, :, 0] = -0.0
        b[:, 0] = -0.0
    return a.astype(dtype), b.astype(dtype)


@pytest.mark.parametrize("kind", GEMM_KINDS)
@pytest.mark.parametrize("shape", GEMM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gemm_matches_the_frozen_oracle(device, shape, kind):
    rng = np.random.default_rng(31)
    for dtype, tensor_core, alpha in itertools.product(
        (np.float16, np.float32), (False, True), (1.0, -2.0)
    ):
        a, b = gemm_operands(kind, shape, dtype, rng)
        case = f"{np.dtype(dtype).name} tensor_core={tensor_core} alpha={alpha}"
        want, want_flag = oracle_batched_hgemm(device, a, b, alpha=alpha, tensor_core=tensor_core)
        got, got_flag = batched_hgemm(device, a, b, alpha=alpha, tensor_core=tensor_core)
        if alpha != 1.0 and not tensor_core:
            # the one intended difference: the scaled-overflow rule hgemm
            # always applied (see the regression test below)
            want_flag = want_flag or bool(np.any(np.abs(want) > FP16_MAX))
        assert got.shape == want.shape and got.dtype == want.dtype, case
        assert type(got_flag) is bool and got_flag == want_flag, case
        assert np.array_equal(bits(got), bits(want)), case
        if kind == "overflow":
            assert got_flag, case
        if kind == "subnormal":
            assert 0 < np.abs(got).max() < FP16_MIN_NORMAL * abs(alpha), case

        want, want_flag = oracle_hgemm(
            device, a[0], b, alpha=alpha, transpose_a=True, tensor_core=tensor_core
        )
        got, got_flag = hgemm(device, a[0], b, alpha=alpha, transpose_a=True, tensor_core=tensor_core)
        assert got.shape == want.shape and type(got_flag) is bool and got_flag == want_flag, case
        assert np.array_equal(bits(got), bits(want)), case


def test_gemm_untransposed_hgemm_matches_the_frozen_oracle(device):
    rng = np.random.default_rng(5)
    a = rng.random((33, 128), dtype=np.float32).astype(np.float16)
    b = (rng.random((128, 17), dtype=np.float32) - 0.25).astype(np.float16)
    for tensor_core in (False, True):
        want, want_flag = oracle_hgemm(device, a, b, tensor_core=tensor_core)
        got, got_flag = hgemm(device, a, b, tensor_core=tensor_core)
        assert got_flag == want_flag and np.array_equal(bits(got), bits(want))


def test_batched_hgemm_applies_the_scaled_overflow_rule(device):
    """Products in (32 752, 65 504] overflow FP16 once scaled by -2:
    ``hgemm`` always said so, ``batched_hgemm`` never looked."""
    a = np.full((2, 4, 3), 100.0, dtype=np.float16)
    b = np.full((4, 5), 100.0, dtype=np.float16)  # every product is 40 000
    assert oracle_batched_hgemm(device, a, b, alpha=-2.0)[1] is False  # the bug
    fused, fused_flag = batched_hgemm(device, a, b, alpha=-2.0)
    for i in range(a.shape[0]):
        single, single_flag = hgemm(device, a[i], b, alpha=-2.0, transpose_a=True)
        assert single_flag is True and fused_flag is True
        assert np.array_equal(bits(fused[i]), bits(single))
    assert batched_hgemm(device, a, b, alpha=-1.0)[1] is False
    assert batched_hgemm(device, a, b, alpha=-2.0, tensor_core=True)[1] is False


# -- the FP16 rounding helper ----------------------------------------------


def test_round_to_fp16_is_the_astype_round_trip_on_every_fp16_boundary():
    half_bits = np.arange(0x8000, dtype=np.uint16)  # no sign bit: the codec's domain
    halves = half_bits.view(np.float16)
    grid = halves[np.isfinite(halves)].astype(np.float32)  # ascending from +0.0
    midpoints = (grid[:-1] + grid[1:]) / np.float32(2)  # exact: 12 significant bits
    centres = np.concatenate([grid, midpoints])
    values = np.concatenate([
        centres,
        np.nextafter(centres, np.float32(np.inf)),
        np.nextafter(centres, np.float32(-np.inf)),
    ])
    values = values[~np.signbit(values) & (values <= FP16_MAX)]
    assert values.dtype == np.float32 and values.size > 190_000

    def check(x: np.ndarray) -> None:
        want = bits(x.astype(np.float16).astype(np.float32))
        got = x.copy()
        round_trip_nonneg(got, float(x.max()))
        assert np.array_equal(bits(got), want)

    subnormal = values[values < FP16_MIN_NORMAL]
    assert subnormal.size > 6_000 and subnormal.min() == 0 and subnormal.max() > 6.1e-5
    check(subnormal)  # hi < 2^-14: the constant 0.75
    check(values)  # a constant per element, from its exponent field


# -- above the kernels -----------------------------------------------------


@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_knn_distances_and_indices_match_the_old_glue(device, precision):
    """Steps 1-4 in place on the query-major product against the old
    out-of-place arithmetic on the oracles' row-major one."""
    rng = np.random.default_rng(17)
    scale = 0.25 if precision == "fp16" else 1.0
    dtype = np.float16 if precision == "fp16" else np.float32
    refs = rng.random((5, 128, 40), dtype=np.float32)
    refs = (refs / np.linalg.norm(refs, axis=1, keepdims=True) * scale).astype(dtype)
    queries = rng.random((3, 128, 24), dtype=np.float32)
    queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True) * scale).astype(dtype)
    q_all = np.transpose(queries, (1, 0, 2)).reshape(128, -1)

    if precision == "fp16":
        prod, overflow = oracle_batched_hgemm(device, refs, q_all)
        assert not overflow
        const = 2.0 * scale * scale
    else:
        prod = np.einsum("bkm,kn->bmn", refs, q_all, optimize=True)
        const = 2.0
    a = -2.0 * prod
    top_vals, top_idx = oracle_functional_topk(np.transpose(a, (1, 0, 2)).reshape(40, -1), 2)
    dist = np.sqrt(np.maximum(top_vals + np.float32(const), 0.0), dtype=np.float32)
    if precision == "fp16":
        dist /= np.float32(scale)
    want_dist = dist.reshape(2, 5, 3, 24).transpose(1, 2, 0, 3)
    want_idx = top_idx.reshape(2, 5, 3, 24).transpose(1, 2, 0, 3)

    multi = knn_algorithm2_multiquery(device, refs, queries, scale=scale, precision=precision)
    assert multi.indices.dtype == np.int32 and multi.distances.dtype == np.float32
    assert np.array_equal(multi.indices, want_idx)
    assert np.array_equal(bits(multi.distances), bits(want_dist))
    for q in range(3):
        single = knn_algorithm2(device, refs, queries[q], scale=scale, precision=precision)
        assert np.array_equal(single.indices, want_idx[:, q])
        assert np.array_equal(bits(single.distances), bits(want_dist[:, q]))


def test_match_masks_and_indices_are_those_of_the_oracles_at_paper_scale(monkeypatch):
    """``verdict_digest`` hashes ids and good-match counts only; at the
    paper's 2^-7 scale 384 rows fall on ~640 fp16 levels, so subnormal
    ties are the common case and the matched *indices* are what a
    changed tie-break would move first.  The kernel keeps counts only:
    the masks and indices are the plane's, asked for indices, on the same
    batch and queries, and the kernel's counts are the masks' sums."""
    config = EngineConfig(m=384, n=768, batch_size=8, scale_factor=2.0**-7)
    kernel = Algorithm2Kernel(config)
    model = SyntheticFeatureModel(seed=7)
    tensor = np.stack([
        kernel.prepare_reference(model.capture(i, "reference").top(config.m).descriptors)[0]
        for i in range(8)
    ])
    batch = ReferenceBatch(batch_id=0, slots=np.arange(8), tensor=tensor)
    queries = [model.capture(i, "query").top(config.n).descriptors for i in (2, 5)]
    group = kernel.prepare_query_many(None, queries)

    def plane():
        winners = knn_algorithm2_multiquery(None, batch.tensor, group.matrix, scale=config.effective_scale,
                                            precision=config.precision)
        masks = batch_ratio_test_masks(winners.distances, config.ratio_threshold)  # (images, Q, n)
        return masks, [winners.indices[:, q, 0][masks[:, q]] for q in range(len(queries))]

    got_masks, got_indices = plane()
    device = GPUDevice(TESLA_P100)
    single = kernel.match_batch(device, batch, kernel.prepare_query(device, queries[0]))
    groups = kernel.match_batch_multi(device, batch, group)
    monkeypatch.setattr(algorithm2_module, "functional_topk", oracle_functional_topk)
    monkeypatch.setattr(algorithm2_module, "batched_hgemm", oracle_on_a_tile)
    want_masks, want_indices = plane()

    assert np.array_equal(got_masks, want_masks) and want_masks.any()
    for got, want in zip(got_indices, want_indices, strict=True):
        assert np.array_equal(got, want)
    counts = want_masks.sum(axis=-1)  # the kernel's winners-only counts are the oracle's
    for q, matches in enumerate(slot_matches(batch, single) + slot_matches(batch, groups)):
        assert [(m.reference_id, m.good_matches) for m in matches] == [
            (slot, int(counts[slot, max(q - 1, 0)])) for slot in range(8)]


# -- the tiled sweep (PR 15) -----------------------------------------------


def oracle_knn_columns(device, references, columns, scale, k, precision, tensor_core):
    """``core/algorithm2.py::_knn_columns`` as of the commit before the
    tiled sweep, verbatim: one product for the whole batch, swept whole."""
    batch, d, m = references.shape
    n = columns.shape[1]
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")

    # Step 1: batched GEMM (one fused call => the Sec. 5 data reuse).
    if precision == "fp16":
        a, overflow = batched_hgemm(
            device, references, columns, alpha=1.0, tensor_core=tensor_core
        )
        if overflow:
            raise HalfPrecisionOverflowError(scale, float(np.abs(a).max()))
        const = 2.0 * scale * scale
    elif precision == "fp32":
        device.gemm(m, n, d, batch=batch, dtype="fp32", step="GEMM")
        a = query_major_product(
            references.astype(np.float32, copy=False), columns.astype(np.float32, copy=False)
        )
        const = 2.0
    else:
        raise ValueError(f"precision must be 'fp16' or 'fp32', got {precision!r}")
    a *= np.float32(-2.0)

    # Step 2: one scan thread per (image, query-feature) column — on the
    # query-major product a zero-copy F-ordered view, each column contiguous.
    device.top2_scan(m, batch * n, dtype=precision, step="Top-2 sort")
    dist, top_idx = functional_topk(np.transpose(a, (1, 0, 2)).reshape(m, batch * n), k)

    # Step 3: sqrt(const + A) in-register on the winners only.
    device.elementwise(k * batch * n, dtype=precision, step="sqrt")
    dist += np.float32(const)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    if precision == "fp16":
        dist /= np.float32(scale)

    # Step 4: batched result gather.
    device.d2h_result(n, batch=batch, k=k, dtype=precision)
    return dist, top_idx.astype(np.int32)


def knn_operands(kind: str, precision: str, shape, rng: np.random.Generator):
    """``(references, queries, scale)``: unit-norm columns times the scale."""
    batch, m, n_queries, n = shape
    draw = rng.standard_normal if kind == "signed" else rng.random
    refs = draw((batch, 128, m), dtype=np.float32)
    queries = draw((n_queries, 128, n), dtype=np.float32)
    scale = 1.0 if precision == "fp32" else 2.0**-7 if kind == "subnormal" else 0.25
    dtype = np.float32 if precision == "fp32" else np.float16
    refs = (refs / np.linalg.norm(refs, axis=1, keepdims=True) * scale).astype(dtype)
    queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True) * scale).astype(dtype)
    return refs, queries, scale


def steps(device: GPUDevice) -> list[tuple[str, float, int]]:
    return [(r.name, r.total_us, r.calls) for r in device.profiler.records()]


def count_calls(monkeypatch, name: str) -> list:
    """Count the sweep's calls of ``algorithm2_module.<name>``."""
    calls, real = [], getattr(algorithm2_module, name)
    monkeypatch.setattr(
        algorithm2_module, name, lambda *args, **kw: (calls.append(1), real(*args, **kw))[1]
    )
    return calls


def check_against_the_untiled_sweep(refs, queries, scale, k, precision, tensor_core):
    """Both entry points against the parent glue on a device of its own:
    values, indices, simulated clock, profiler steps, operands untouched."""
    batch, _, m = refs.shape
    n_queries, _, n = queries.shape
    case = f"k={k} tensor_core={tensor_core} Q={n_queries}"
    before = refs.tobytes(), queries.tobytes()
    kwargs = dict(scale=scale, k=k, precision=precision, tensor_core=tensor_core)

    def oracle(columns):
        device = GPUDevice(TESLA_V100)
        dist, idx = oracle_knn_columns(device, refs, columns, **kwargs)
        return dist, idx, device

    device = GPUDevice(TESLA_V100)
    multi = knn_algorithm2_multiquery(device, refs, queries, **kwargs)
    dist, idx, oracle_device = oracle(np.transpose(queries, (1, 0, 2)).reshape(128, -1))
    shape = (k, batch, n_queries, n)
    assert multi.indices.dtype == np.int32 and multi.distances.dtype == np.float32, case
    assert np.array_equal(multi.indices, idx.reshape(shape).transpose(1, 2, 0, 3)), case
    assert np.array_equal(
        bits(multi.distances), bits(dist.reshape(shape).transpose(1, 2, 0, 3))
    ), case
    assert device.synchronize() == oracle_device.synchronize() > 0, case
    assert steps(device) == steps(oracle_device), case

    device = GPUDevice(TESLA_V100)
    single = knn_algorithm2(device, refs, queries[0], **kwargs)
    dist, idx, oracle_device = oracle(queries[0])
    shape = (k, batch, n)
    assert np.array_equal(single.indices, idx.reshape(shape).transpose(1, 0, 2)), case
    assert np.array_equal(
        bits(single.distances), bits(dist.reshape(shape).transpose(1, 0, 2))
    ), case
    assert device.synchronize() == oracle_device.synchronize() > 0, case
    assert steps(device) == steps(oracle_device), case
    assert (refs.tobytes(), queries.tobytes()) == before, case


#: images per tile -> tiles for a batch of five at one lane; None leaves the
#: module's budget alone (one tile), 0 is a budget smaller than a single image's
#: product.  More lanes may split a call further (``_tile_starts``).
TILINGS = {"one_image_per_tile": (1, 5), "ragged_last_tile": (2, 3),
           "budget_below_one_image": (0, 5), "one_tile": (None, 1)}


@pytest.mark.parametrize("kind", ["nonneg", "signed", "subnormal"])
@pytest.mark.parametrize("precision", ["fp16", "fp32"])
@pytest.mark.parametrize("tiling", TILINGS)
def test_tiled_sweep_matches_the_untiled_glue(monkeypatch, tiling, precision, kind):
    images_per_tile, tiles = TILINGS[tiling]
    rng = np.random.default_rng(15)
    for n_queries, k, tensor_core in itertools.product((1, 3), (1, 2, 3), (False, True)):
        refs, queries, scale = knn_operands(kind, precision, (5, 40, n_queries, 24), rng)
        with monkeypatch.context() as patch:
            scans = count_calls(patch, "functional_topk")
            if images_per_tile is not None:
                budget = images_per_tile * 40 * n_queries * 24 * 4 or 1
                patch.setattr(algorithm2_module, "_PRODUCT_TILE_BYTES", budget)
            image = 40 * n_queries * 24 * 4
            assert len(algorithm2_module._tile_starts(5, image, 1)) == tiles
            knn_algorithm2_multiquery(
                GPUDevice(TESLA_V100), refs, queries, scale=scale, precision=precision
            )
            assert len(scans) == len(planned_tiles(5, image))
            check_against_the_untiled_sweep(refs, queries, scale, k, precision, tensor_core)


def test_consecutive_sweeps_of_different_shapes_share_nothing(monkeypatch):
    monkeypatch.setattr(algorithm2_module, "_PRODUCT_TILE_BYTES", 2 * 40 * 24 * 4)
    rng = np.random.default_rng(4)
    for shape in ((5, 40, 1, 24), (3, 56, 2, 9), (7, 12, 1, 40), (5, 40, 1, 24)):
        refs, queries, scale = knn_operands("nonneg", "fp16", shape, rng)
        check_against_the_untiled_sweep(refs, queries, scale, 2, "fp16", False)


def test_engine_search_at_paper_dimensions_is_the_same_at_any_tiling(monkeypatch):
    config = EngineConfig(m=384, n=768, batch_size=8, scale_factor=2.0**-7)
    model = SyntheticFeatureModel(seed=7)
    query = model.capture(5, "query").top(config.n).descriptors

    def search():
        engine = TextureSearchEngine(config)
        for i in range(12):  # one full batch and a ragged one
            engine.add_reference(f"ref-{i}", model.capture(i, "reference").top(config.m).descriptors)
        engine.flush()
        scans = count_calls(monkeypatch, "functional_topk")
        return engine.search(query), len(scans)

    image = 384 * 768 * 4
    as_shipped, scans = search()
    # three images of 1.2 MB per tile, and since the stacked sweep (PR 16) a
    # tile runs on into the next batch: 3+3+3+3 up to four lanes, where per batch it
    # was 3+3+2 and 3+1
    assert scans == len(planned_tiles(12, image))
    assert as_shipped.best().reference_id == "ref-5" and as_shipped.elapsed_us > 0
    for budget in (1 << 30, image):  # at one lane: one tile, twelve
        monkeypatch.setattr(algorithm2_module, "_PRODUCT_TILE_BYTES", budget)
        result, scans = search()
        assert scans == len(planned_tiles(12, image))
        assert result == as_shipped  # matches, counts and elapsed_us, field by field


def test_the_batch_product_is_never_materialised(monkeypatch):
    """Peak traced memory is, per lane (at most two here), a workspace (a
    product tile and the tile's fp32 operand) and the round trip's constants,
    then the query's operand and the winners — not the 18.9 MB ``(16, 384,
    768)`` fp32 product."""
    usable = algorithm2_module._usable_cpus
    monkeypatch.setattr(algorithm2_module, "_usable_cpus", lambda: min(2, usable()))
    rng = np.random.default_rng(6)
    refs, queries, scale = knn_operands("nonneg", "fp16", (16, 384, 1, 768), rng)
    device = GPUDevice(TESLA_P100)
    knn_algorithm2(device, refs, queries[0], scale=scale)  # imports, lazy set-up
    image = 384 * 768 * 4
    starts = algorithm2_module._tile_starts(16, image, algorithm2_module._usable_cpus())
    assert 1 <= starts.step < 16  # under 1.18 MB a paper image, the budget's tile is one image
    lanes = min(algorithm2_module._usable_cpus(), len(starts))
    workspace = starts.step * (image + 128 * 384 * 4)  # a product tile and the tile's fp32 operand
    codec = image  # the round trip's per-image constants, one image's worth reused
    query = 128 * 768 * 4  # the query's fp32 operand, made once a call
    outputs = 2 * (2 * 16 * 768 * 4) * 2  # (k, batch*n) winners, then the (batch, k, n) results
    tracemalloc.start()
    try:
        knn_algorithm2(device, refs, queries[0], scale=scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    allowed = lanes * (workspace + codec) + query + outputs + 256 * 1024  # + top-k and small change
    assert peak < allowed < 16 * image * 3 / 4


def test_batched_hgemm_on_an_already_charged_tile(device):
    """``device=None`` charges nothing and ``out`` is where the product lands."""
    rng = np.random.default_rng(8)
    a, b = gemm_operands("nonneg", (3, 128, 33, 17), np.float16, rng)
    want, want_flag = batched_hgemm(device, a, b)
    out = np.empty((4, 17, 33), dtype=np.float32)
    got, got_flag = batched_hgemm(None, a, b, out=out[:3])
    assert got_flag == want_flag and np.array_equal(bits(got), bits(want))
    assert np.shares_memory(got, out) and np.array_equal(bits(out[:3].transpose(0, 2, 1)), bits(want))
    assert [record.calls for record in device.profiler.records()] == [1]


# -- overflow --------------------------------------------------------------


@pytest.mark.parametrize("hot_image", [0, 3, 5], ids=["first_tile", "middle_tile", "last_tile"])
def test_overflow_error_reports_the_unclipped_batch_wide_magnitude(monkeypatch, hot_image):
    refs = np.full((6, 128, 40), 0.01, dtype=np.float16)
    query = np.full((128, 24), 0.01, dtype=np.float16)
    query[:, 7] = 200.0
    refs[hot_image, :, 11] = 200.0  # 128 * 200 * 200: far beyond 65 504
    refs[2, :, 0] = 30.0  # 128 * 30 * 200: a smaller overflow, in another tile
    seen = []
    for budget in (1, 2 * 40 * 24 * 4, 4 << 20):  # six tiles, three, one
        monkeypatch.setattr(algorithm2_module, "_PRODUCT_TILE_BYTES", budget)
        for tensor_core in (False, True):
            device = GPUDevice(TESLA_V100)
            with pytest.raises(HalfPrecisionOverflowError) as raised:
                knn_algorithm2(device, refs, query, scale=0.25, tensor_core=tensor_core)
            error = raised.value
            seen.append((error.scale, error.max_value, str(error)))
            assert [(name, calls) for name, _, calls in steps(device)] == [("GEMM", 1)]
    assert set(seen) == {seen[0]}
    scale, max_value, message = seen[0]
    assert scale == 0.25 and max_value == 128 * 200.0 * 200.0 > FP16_MAX
    assert "5.12e+06" in message and "65504 exceeds" not in message


def test_negative_overflow_of_a_signed_product_is_flagged_and_clipped(device):
    """Only ``lo`` sees it: signed operands keep both product reductions."""
    a = np.full((2, 16, 5), 0.5, dtype=np.float16)
    b = np.full((16, 3), 0.5, dtype=np.float16)
    a[1, :, 2], b[:, 1] = -200.0, 200.0  # one product of 16 * -40 000
    for tensor_core in (False, True):
        product, overflow = batched_hgemm(device, a, b, tensor_core=tensor_core)
        assert overflow is True
        assert product[1, 2, 1] == -FP16_MAX == product.min() and product.max() == 16 * 0.5 * 200
        assert hgemm(device, a[1], b, transpose_a=True, tensor_core=tensor_core)[1] is True
