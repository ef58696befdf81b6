"""Analytic kernel cost models.

Each function returns the simulated duration (microseconds) of one GPU
kernel or CPU stage, given the workload shape and a device calibration.
The *functional* counterparts (the NumPy code that computes the actual
numbers) live next to the algorithms in :mod:`repro.blas` and
:mod:`repro.core`; keeping cost and function separate lets the tests
check each independently.

Shapes follow the paper's notation: ``d`` feature dimension (128 for
SIFT), ``m`` reference features per image, ``n`` query features, and
``batch`` reference images processed per GEMM (Sec. 5).
"""

from __future__ import annotations

from .calibration import KernelCalibration
from .device import DeviceSpec
from .pcie import d2h_result_time_us

__all__ = [
    "dtype_bytes",
    "gemm_us",
    "hamming_us",
    "top2_scan_us",
    "insertion_sort_us",
    "elementwise_us",
    "norm_vector_us",
    "d2h_result_us",
    "result_bytes",
    "postprocess_us",
    "knn_steps_us",
    "algorithm1_steps_us",
]

_DTYPE_BYTES = {"fp16": 2, "fp32": 4}


def dtype_bytes(dtype: str) -> int:
    """Bytes per element for a simulator dtype string."""
    try:
        return _DTYPE_BYTES[dtype]
    except KeyError:
        raise ValueError(f"unknown dtype {dtype!r}; expected 'fp16' or 'fp32'") from None


def _check_shape(**dims: int) -> None:
    for name, value in dims.items():
        if int(value) <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def gemm_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int,
    n: int,
    k: int,
    batch: int = 1,
    dtype: str = "fp16",
    tensor_core: bool = False,
) -> float:
    """Time of a (possibly batched) ``m x k @ k x n`` GEMM.

    ``t = launch + flops / (peak * efficiency(flops))`` with the
    saturating efficiency curve of :class:`GemmCalibration` — small
    matrices cannot fill the SMs (Sec. 5.2: batch-1 achieves 0.87 of
    18.7 TFLOPS), large batches approach the ceiling (67.9 % on P100).
    """
    _check_shape(m=m, n=n, k=k, batch=batch)
    flops = 2.0 * m * n * k * batch
    peak = spec.peak_tflops(dtype, tensor_core) * 1e12
    eff = cal.gemm(dtype, tensor_core).efficiency(flops)
    return spec.kernel_launch_us + flops / (peak * eff) * 1e6


def hamming_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int,
    n: int,
    words: int,
    batch: int = 1,
) -> float:
    """Time of the bucketed XOR/popcount Hamming prefilter.

    Compares ``n`` query signatures against ``m`` reference signatures
    per image over ``batch`` images, each signature ``words`` packed
    uint64 words.  Integer-ALU bound at scale (XOR + ``__popc`` +
    accumulate per word-pair), with the :class:`HammingCalibration`
    occupancy ramp for small candidate sets and a bandwidth wall on the
    signature reads.  This is the cost the cascade backend pays *before*
    the GEMM — the prune is cheap, not free.
    """
    _check_shape(m=m, n=n, words=words, batch=batch)
    ham = cal.hamming
    iops = ham.int_ops_per_word * m * n * words * batch
    peak = spec.fp32_tflops * 1e12 * ham.peak_int_fraction
    eff = ham.efficiency(iops)
    compute_bound = iops / (peak * eff) * 1e6
    bytes_read = (m + n) * words * 8 * batch
    bw_bound = bytes_read / (spec.mem_bandwidth_gbs * ham.bw_fraction * 1e9) * 1e6
    return spec.kernel_launch_us + max(compute_bound, bw_bound)


def top2_scan_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int,
    columns: int,
    dtype: str = "fp16",
) -> float:
    """Time of the register-resident top-2 scan over ``columns`` columns
    of ``m`` elements each (``columns = n * batch``).

    One thread per column; latency-bound per-element cost at low
    occupancy (FP16 pays the half-intrinsic penalty, Sec. 4.2), capped
    below by the bandwidth wall once resident threads saturate.
    """
    _check_shape(m=m, columns=columns)
    scan = cal.scan
    parallel = scan.effective_parallelism(columns)
    latency_bound = m * columns * scan.cost_ns(dtype) * 1e-3 / parallel  # ns -> us
    bytes_read = m * columns * dtype_bytes(dtype)
    bw_bound = bytes_read / (spec.mem_bandwidth_gbs * scan.bw_fraction * 1e9) * 1e6
    return spec.kernel_launch_us + max(latency_bound, bw_bound)


def insertion_sort_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    m: int,
    columns: int,
    dtype: str = "fp32",
) -> float:
    """Time of the Garcia et al. [9] modified insertion sort baseline.

    Keeps a sorted k-list in *memory* rather than registers, paying
    repeated loads/stores per element (Sec. 4.1 profiles it at 67 % of
    the whole pipeline).  Same occupancy model as the scan with a much
    larger per-element cost.
    """
    _check_shape(m=m, columns=columns)
    scan = cal.scan
    parallel = scan.effective_parallelism(columns)
    per_elem_ns = cal.insertion_sort_ns * (
        scan.cost_ns(dtype) / scan.cost_fp32_ns
    )  # same relative dtype penalty as the scan
    latency_bound = m * columns * per_elem_ns * 1e-3 / parallel
    # ~5.5x the scan's memory traffic (sorted-list shuffles), same wall.
    bytes_touched = 5.5 * m * columns * dtype_bytes(dtype)
    bw_bound = bytes_touched / (spec.mem_bandwidth_gbs * scan.bw_fraction * 1e9) * 1e6
    return spec.kernel_launch_us + max(latency_bound, bw_bound)


def elementwise_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    elements: int,
    dtype: str = "fp16",
    rw_factor: float = 1.0,
) -> float:
    """Bandwidth-bound elementwise kernel (row add, sqrt, scale, ...).

    ``rw_factor`` counts effective streamed bytes per element; in-place
    read-modify-write kernels stream each cache line once (factor 1).
    Anchored on Table 1 step 4 (add N_R over 768x768: 8.94 us FP32).
    """
    _check_shape(elements=elements)
    bytes_touched = elements * dtype_bytes(dtype) * rw_factor
    eff = cal.elementwise_eff(dtype)
    return spec.kernel_launch_us + bytes_touched / (spec.mem_bandwidth_gbs * eff * 1e9) * 1e6


def norm_vector_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    features: int,
    d: int,
    dtype: str = "fp16",
) -> float:
    """Squared-L2-norm vector kernel (steps 1-2 of Algorithm 1).

    Reads ``features x d`` once, writes ``features`` scalars.
    """
    _check_shape(features=features, d=d)
    bytes_touched = features * d * dtype_bytes(dtype) + features * dtype_bytes(dtype)
    eff = cal.elementwise_eff(dtype)
    return spec.kernel_launch_us + bytes_touched / (spec.mem_bandwidth_gbs * eff * 1e9) * 1e6


def result_bytes(n: int, batch: int, k: int = 2, dtype: str = "fp16") -> int:
    """Bytes of the step-8 result: k x n distances + k x n int32 indices."""
    _check_shape(n=n, batch=batch, k=k)
    return batch * (k * n * dtype_bytes(dtype) + k * n * 4)


def d2h_result_us(
    spec: DeviceSpec,
    cal: KernelCalibration,
    n: int,
    batch: int,
    k: int = 2,
    dtype: str = "fp16",
) -> float:
    """Time to gather the top-k result sub-matrix back to the host."""
    nbytes = result_bytes(n, batch, k, dtype)
    return d2h_result_time_us(spec, nbytes, cal.d2h_result_latency_us, cal.d2h_result_gbs)


def postprocess_us(
    cal: KernelCalibration,
    batch: int,
    dtype: str = "fp16",
    n: int = 768,
) -> float:
    """CPU post-processing (ratio test + edge removal) per *batch*.

    Per-image cost decays toward :attr:`post_floor_us` as batching lets
    the host exploit more parallelism (Table 3: 16.85 us -> 3.85 us/img);
    the FP16 path pays a conversion surcharge (Sec. 4.2: +36.3 %).
    The per-image cost scales with the number of query features ``n``
    relative to the paper's 768-feature anchor.
    """
    _check_shape(batch=batch, n=n)
    batch1 = cal.post_batch1_fp16_us if dtype == "fp16" else cal.post_batch1_fp32_us
    parallel = min(float(batch), cal.post_parallel_cap)
    per_image = cal.post_floor_us + (batch1 - cal.post_floor_us) / parallel
    return per_image * batch * (n / 768.0)


def knn_steps_us(
    spec: DeviceSpec, cal: KernelCalibration, batch: int, m: int, n: int, d: int,
    k: int = 2, dtype: str = "fp16", tensor_core: bool = False,
) -> list[tuple[str, float, str]]:
    """Algorithm 2's steps 1-4 for one ``(batch, d, m)`` reference batch
    against ``n`` query columns, as ``(engine, us, profiler step)`` — the
    one spelling of the chain: the engine charges it
    (``GPUDevice.charge``), the analytic models add its durations up."""
    return [
        ("compute", gemm_us(spec, cal, m, n, d, batch, dtype, tensor_core), "GEMM"),
        ("compute", top2_scan_us(spec, cal, m, batch * n, dtype), "Top-2 sort"),
        ("compute", elementwise_us(spec, cal, k * batch * n, dtype), "sqrt"),
        ("d2h", d2h_result_us(spec, cal, n, batch, k, dtype), "D2H copy"),
    ]


def algorithm1_steps_us(
    spec: DeviceSpec, cal: KernelCalibration, m: int, n: int, d: int,
    k: int = 2, dtype: str = "fp16", sort_kind: str = "scan",
) -> list[tuple[str, float, str]]:
    """Algorithm 1's steps 3-8 and the host post-processing for one ``(d, m)``
    reference image against ``n`` query columns, as ``(engine, us, profiler
    step)``: Table 1's per-image chain, spelled once (the scan or Garcia et
    al.'s insertion sort)."""
    if sort_kind == "scan":
        sort = top2_scan_us(spec, cal, m, n, dtype)
    elif sort_kind == "insertion":
        sort = insertion_sort_us(spec, cal, m, n, dtype)
    else:
        raise ValueError(f"sort_kind must be 'scan' or 'insertion', got {sort_kind!r}")
    return [
        ("compute", gemm_us(spec, cal, m, n, d, 1, dtype), "GEMM"),
        ("compute", elementwise_us(spec, cal, m * n, dtype), "add N_R"),
        ("compute", sort, "Top-2 sort"),
        ("compute", elementwise_us(spec, cal, k * n, dtype), "add N_Q + sqrt"),
        ("d2h", d2h_result_us(spec, cal, n, 1, k, dtype), "D2H copy"),
        ("cpu", postprocess_us(cal, 1, dtype, n), "Post-processing"),
    ]
