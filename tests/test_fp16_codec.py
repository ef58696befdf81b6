"""The vectorised FP16 codec is NumPy's converter, bit for bit.

``repro.fp16.codec`` replaces ``astype`` on the GEMM epilogue's hot
path, so its contract is equality with ``astype`` on its whole domain —
exhaustively where the domain is small — and the epilogue must still
take ``astype`` for everything outside it.  The GEMM reference below is
the epilogue's arithmetic with every conversion done by ``astype``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.blas import gemm
from repro.blas.gemm import batched_hgemm, hgemm, query_major_product
from repro.core import EngineConfig
from repro.core.kernels import Algorithm2Kernel
from repro.fp16 import FP16_MAX, FP16_MIN_NORMAL
from repro.fp16.codec import is_nonneg_finite, round_trip_nonneg, upcast_nonneg
from repro.gpusim import GPUDevice, TESLA_V100
from tests.conftest import make_descriptors


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint32)


def astype_round_trip(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float16).astype(np.float32)


#: every non-negative finite half: +0.0, the 1 023 subnormals, the normals up to 65 504
NONNEG_HALVES = np.arange(0x7C00, dtype=np.uint16).view(np.float16)


def rounded(x: np.ndarray) -> np.ndarray:
    got = x.copy()
    round_trip_nonneg(got, float(x.max()))
    return got


# -- constants and the domain test -----------------------------------------


def test_constants_are_numpys_and_defined_once():
    from repro.blas import FP16_MAX as from_blas
    from repro.fp16 import convert

    assert FP16_MAX == 65504.0 == from_blas == convert.FP16_MAX == gemm.FP16_MAX
    assert FP16_MIN_NORMAL == 2.0**-14 and not hasattr(gemm, "FP16_MIN_NORMAL")
    for module in (gemm, convert):  # imported, not redefined
        assert "np.finfo" not in open(module.__file__).read()


def test_domain_test_admits_exactly_the_non_negative_finite_halves():
    assert NONNEG_HALVES.size == 31_744 and is_nonneg_finite(NONNEG_HALVES)
    assert is_nonneg_finite(np.zeros((0, 4), dtype=np.float16))
    assert is_nonneg_finite(NONNEG_HALVES.reshape(124, 256).T)  # any strides
    for outside in (-0.0, -6e-8, -1.0, np.inf, -np.inf, np.nan):
        mixed = NONNEG_HALVES.copy()
        mixed[12_345] = outside
        assert not is_nonneg_finite(mixed), outside


# -- the up-cast -----------------------------------------------------------


def test_upcast_equals_astype_on_every_non_negative_finite_half():
    got = upcast_nonneg(NONNEG_HALVES)
    assert got.dtype == np.float32 and got.shape == NONNEG_HALVES.shape
    assert np.array_equal(bits(got), bits(NONNEG_HALVES.astype(np.float32)))


def test_upcast_keeps_shape_on_strided_input_and_leaves_it_alone():
    stack = NONNEG_HALVES[: 4 * 16 * 31].reshape(4, 16, 31)
    before = stack.copy()
    for view in (stack, stack.transpose(0, 2, 1), stack[:, ::2, 1:], stack[1].T):
        got = upcast_nonneg(view)
        assert got.shape == view.shape
        assert np.array_equal(bits(got), bits(view.astype(np.float32)))
    assert np.array_equal(stack.view(np.uint16), before.view(np.uint16))


# -- the round trip --------------------------------------------------------


def probe_values() -> np.ndarray:
    """Every half, every midpoint between neighbours (the ties), and the
    fp32 neighbours of both at 1, 2 and 4 096 ulps, kept inside [0, 65504]."""
    grid = NONNEG_HALVES.astype(np.float32)
    midpoints = (grid[:-1] + grid[1:]) / np.float32(2)  # exact: 12 significant bits
    centres = np.concatenate([grid, midpoints]).view(np.uint32).astype(np.int64)
    offsets = np.array([0, 1, -1, 2, -2, 4096, -4096], dtype=np.int64)
    patterns = (centres[:, None] + offsets[None, :]).ravel()
    top = int(np.float32(FP16_MAX).view(np.uint32))
    return patterns[(patterns >= 0) & (patterns <= top)].astype(np.uint32).view(np.float32)


def test_round_trip_equals_astype_on_every_half_midpoint_and_neighbour():
    values = probe_values()
    assert values.size > 440_000 and values.min() == 0 and values.max() == FP16_MAX
    want = astype_round_trip(values)
    assert np.array_equal(bits(rounded(values)), bits(want))
    # ties went to even both ways: up on odd mantissas, down on even ones
    grid = NONNEG_HALVES.astype(np.float32)
    ties = (grid[:-1] + grid[1:]) / np.float32(2)
    tied = rounded(ties)
    assert np.array_equal(tied[0::2], grid[:-1][0::2])
    assert np.array_equal(tied[1::2], grid[1:][1::2])


def test_round_trip_at_the_subnormal_normal_seam():
    seam = np.float32(FP16_MIN_NORMAL)
    around = seam.view(np.uint32) + np.arange(-20_000, 20_001, dtype=np.int64)
    values = around.astype(np.uint32).view(np.float32)
    assert values[0] < seam < values[-1]
    assert np.array_equal(bits(rounded(values)), bits(astype_round_trip(values)))
    below = values[values < seam]  # all subnormal: the constant-c branch
    assert np.array_equal(bits(rounded(below)), bits(astype_round_trip(below)))


def test_round_trip_at_the_top_of_the_range_and_after_the_clip():
    top = np.float32(FP16_MAX)
    values = (top.view(np.uint32) - np.arange(0, 5_000, dtype=np.uint32)).view(np.float32)
    assert np.array_equal(bits(rounded(values)), bits(astype_round_trip(values)))
    beyond = np.array([65504.004, 65519.99, 65520.0, 1e9, np.inf, 3.0], dtype=np.float32)
    want = astype_round_trip(np.clip(beyond, -FP16_MAX, FP16_MAX))
    np.clip(beyond, -FP16_MAX, FP16_MAX, out=beyond)  # what the epilogue does first
    round_trip_nonneg(beyond, FP16_MAX)
    assert np.array_equal(bits(beyond), bits(want)) and beyond.max() == FP16_MAX


def test_round_trip_with_exact_zeros_among_normals():
    """Zero-padded query columns: whole zero columns next to normal ones."""
    rng = np.random.default_rng(8)
    x = (rng.random((6, 96, 128), dtype=np.float32) * np.float32(0.06)).astype(np.float32)
    x[:, :, 100:] = 0.0
    x[2] = 0.0
    assert x.max() > FP16_MIN_NORMAL
    assert np.array_equal(bits(rounded(x)), bits(astype_round_trip(x)))
    zeros = np.zeros((3, 5), dtype=np.float32)
    round_trip_nonneg(zeros, 0.0)
    assert not zeros.any() and not np.signbit(zeros).any()


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.uint32,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=17),
        elements=st.integers(0, int(np.float32(FP16_MAX).view(np.uint32))),
    )
)
def test_round_trip_equals_astype_on_random_fp32_patterns(patterns):
    values = patterns.view(np.float32)
    assert np.array_equal(bits(rounded(values)), bits(astype_round_trip(values)))


def test_round_trip_writes_the_transposed_product_view_in_place():
    rng = np.random.default_rng(2)
    a32 = rng.random((5, 128, 33), dtype=np.float32) * np.float32(0.02)
    b32 = rng.random((128, 17), dtype=np.float32) * np.float32(0.02)
    product = query_major_product(a32, b32)
    assert product.shape == (5, 33, 17) and not product.flags.c_contiguous
    buffer = product.base if product.base is not None else product
    want = astype_round_trip(product)
    round_trip_nonneg(product, float(product.max()))
    assert np.array_equal(bits(product), bits(want))
    assert np.shares_memory(product, buffer)
    assert np.array_equal(bits(buffer.transpose(0, 2, 1)), bits(want))


# -- the GEMM epilogue on top of it ----------------------------------------


def reference_fp16_gemm(product, a, b, alpha, tensor_core, store_fp16):
    """``blas/gemm.py::_fp16_gemm`` with every conversion done by ``astype``."""
    a32 = a.astype(np.float16).astype(np.float32)
    b32 = b.astype(np.float16).astype(np.float32)
    exact = np.array(product(a32, b32))
    unstorable = bool(np.any(exact > FP16_MAX) or np.any(exact < -FP16_MAX))
    nonneg = bool(a32.min(initial=0.0) >= 0 and b32.min(initial=0.0) >= 0)
    if tensor_core or nonneg:
        overflow = unstorable
    else:
        overflow = bool(np.any(product(np.abs(a32), np.abs(b32)) > FP16_MAX))
    if store_fp16:
        exact = astype_round_trip(np.clip(exact, -FP16_MAX, FP16_MAX))
    if alpha != 1.0:
        exact = exact * np.float32(alpha)
        if abs(alpha) != 1.0 and not tensor_core:
            overflow = overflow or bool(np.any(np.abs(exact) > FP16_MAX))
    return exact, overflow


def check_both_entry_points(a, b, case):
    """``batched_hgemm`` on the stack and ``hgemm`` on its first image
    against the reference: values, overflow flag, simulated time."""
    for tensor_core, alpha in itertools.product((False, True), (1.0, -2.0)):
        label = f"{case} tensor_core={tensor_core} alpha={alpha}"
        device, ref_device = GPUDevice(TESLA_V100), GPUDevice(TESLA_V100)
        got, flag = batched_hgemm(device, a, b, alpha=alpha, tensor_core=tensor_core)
        batch, k, m = a.shape
        ref_device.gemm(m, b.shape[1], k, batch=batch, dtype="fp16", tensor_core=tensor_core)
        want, want_flag = reference_fp16_gemm(
            query_major_product, a, b, alpha, tensor_core, store_fp16=True
        )
        assert type(flag) is bool and flag == want_flag, label
        assert np.array_equal(bits(got), bits(want)), label
        assert device.synchronize() == ref_device.synchronize(), label

        got, flag = hgemm(device, a[0], b, alpha=alpha, transpose_a=True, tensor_core=tensor_core)
        want, want_flag = reference_fp16_gemm(
            np.matmul, a[0].T, b, alpha, tensor_core, store_fp16=not tensor_core
        )
        assert flag == want_flag and np.array_equal(bits(got), bits(want)), label


@pytest.mark.parametrize("scale_factor", [2.0**-7, 0.25, 1.0])
def test_gemm_equals_the_astype_reference_on_prepared_features(scale_factor):
    """Engine-prepared RootSIFT operands with zero-padded columns: all
    subnormal products at 2^-7, subnormals, normals and zeros at 0.25, 1.0."""
    cfg = EngineConfig(m=40, n=48, batch_size=4, scale_factor=scale_factor)
    kernel = Algorithm2Kernel(cfg)
    a = np.stack(
        [kernel.prepare_reference(make_descriptors(33, seed=70 + i))[0] for i in range(4)]
    )
    b = kernel.query_matrix(make_descriptors(30, seed=90))
    assert a.dtype == b.dtype == np.float16 and not b[:, 30:].any()
    assert is_nonneg_finite(a) and is_nonneg_finite(b)
    check_both_entry_points(a, b, f"scale={scale_factor}")


def outside_the_codec(kind: str, rng: np.random.Generator):
    a = rng.random((3, 16, 9), dtype=np.float32).astype(np.float16)
    b = rng.random((16, 7), dtype=np.float32).astype(np.float16)
    if kind == "negative":
        a[0, 3, 4] = -0.5
    elif kind == "negzero":
        b[2, 5] = -0.0
    elif kind == "inf":
        a[0, 0, 0] = np.inf
    elif kind == "neginf":
        b[1, 1] = -np.inf
    elif kind == "nan":
        a[0, 15, 8] = np.nan
    elif kind == "signed":  # SURF-style Haar sums, L2-normalised
        a = (rng.standard_normal((3, 16, 9)) / 4).astype(np.float16)
        b = (rng.standard_normal((16, 7)) / 4).astype(np.float16)
    elif kind == "overflow":  # non-negative and finite, products beyond 65 504
        a, b = a * np.float16(200), b * np.float16(200)
    return a, b


@pytest.mark.parametrize(
    "kind", ["negative", "negzero", "inf", "neginf", "nan", "signed", "overflow"]
)
def test_gemm_takes_numpys_converter_outside_the_codecs_domain(kind, monkeypatch):
    a, b = outside_the_codec(kind, np.random.default_rng(17))
    calls = []
    for name in ("upcast_nonneg", "round_trip_nonneg"):
        real = getattr(gemm, name)
        monkeypatch.setattr(
            gemm, name, lambda *args, _real=real, _name=name: (calls.append(_name), _real(*args))[1]
        )
    with np.errstate(invalid="ignore", over="ignore"):
        check_both_entry_points(a, b, kind)
    if kind == "overflow":  # in the domain: clipped, then rounded by the codec
        assert "upcast_nonneg" in calls and "round_trip_nonneg" in calls
    else:
        assert calls == []
