"""Algorithm 2: RootSIFT-simplified 2-NN over a *batch* of references.

With unit-norm RootSIFT features, ``rho^2 = 2 - 2 r.q`` — the norm
vectors of Algorithm 1 vanish and the pipeline collapses to four steps::

    1. A = -2 R^T Q            (batched GEMM over the reference batch)
    2. top-2 of each column    (register scan)
    3. sqrt(2 + A) on winners  (merged, in-register)
    4. ship 2 x n x batch results to the host

For FP16 with scale factor ``s``, the stored features are ``s * r`` so
``A = -2 s^2 r.q`` and the constant becomes ``2 s^2``; distances are
divided by ``s`` in step 3.

Given the norms, the same plane is Algorithm 1's ``N_R + N_Q - 2 R^T Q``:
a tile adds ``N_R`` to the rounded ``-2A`` before the scan, and step 3
adds ``N_Q`` to the winners in place of ``2 s^2``.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..blas.gemm import FP16_MAX, batched_hgemm, query_major_product
from ..errors import HalfPrecisionOverflowError
from ..fp16.codec import round_trip_nonneg
from ..gpusim.engine_model import GPUDevice
from ..gpusim.kernels import knn_steps_us
from .results import KnnResult
from .topk import functional_topk

__all__ = ["BatchKnnResult", "knn_algorithm2"]


@dataclass
class BatchKnnResult:
    """Top-k results for every reference image of one batch.

    ``distances``/``indices`` have shape ``(batch, k, n)``.
    """

    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.distances.shape != self.indices.shape:
            raise ValueError("distances/indices shape mismatch")
        if self.distances.ndim != 3:
            raise ValueError(f"expected (batch, k, n), got {self.distances.shape}")

    @property
    def batch(self) -> int:
        return self.distances.shape[0]

    def image(self, i: int) -> KnnResult:
        """The per-image result, as Algorithm 1 would have produced it."""
        return KnnResult(distances=self.distances[i], indices=self.indices[i])


# Step 1's product is made, rounded and scanned one tile of whole images at a
# time, in one reused buffer of at most this many bytes (a single image's
# product if that is larger).  Measured: docs/architecture.md, "The tiled sweep".
_PRODUCT_TILE_BYTES = 4 << 20


# The tiles of one call run on lanes, one per CPU this process may use: lane 0 is the
# caller, the others borrow a thread of one module pool (it starts none until the first
# submit).  NumPy drops the GIL in the SGEMM and the scans, and tiles are column-disjoint,
# so no bit depends on the lane count.  Measured: docs/architecture.md, "Host tile lanes".
def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, so ``taskset`` counts)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_LANES = ThreadPoolExecutor(_usable_cpus(), "tile-lane")


def _fresh_lanes() -> None:
    """A forked child inherits the pool's bookkeeping but none of its threads:
    it would queue work nobody runs.  It starts a pool of its own instead."""
    global _LANES
    _LANES = ThreadPoolExecutor(_usable_cpus(), "tile-lane")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lanes)


def _tile_starts(images: int, image_bytes: int, lanes: int) -> range:
    """Where a call's tiles start; ``step`` is the tile, in images.  A tile holds at most
    ``_PRODUCT_TILE_BYTES`` of product (one image if that is larger) and at most
    ``ceil(images / lanes)`` images, so no tile is larger than an even share of the lanes'
    work and a call the budget fits in one tile still runs on more than one lane.  At one
    lane the budget alone decides."""
    budget = max(1, _PRODUCT_TILE_BYTES // max(1, image_bytes))
    return range(0, images, max(1, min(budget, -(-images // lanes))))


def _accumulator_peak(references: np.ndarray, columns: np.ndarray) -> float:
    """Largest magnitude a partial sum of the whole batch's GEMM can reach
    (``|R|^T |Q|``: the FP32 accumulator itself for non-negative operands).
    For the overflow error only: image by image, whatever the tile size."""
    q = np.abs(columns.astype(np.float32))
    return max(float(np.fmax.reduce(np.abs(r.astype(np.float32)).T @ q, axis=None)) for r in references)


def knn_steps(device: GPUDevice, batch, m, n, d, k, precision, tensor_core) -> list[tuple]:
    """Steps 1-4 of one ``(batch, d, m)`` reference batch against ``n`` query
    columns, pre-costed for :meth:`GPUDevice.charge`: pure in the shapes.
    The engine's FP32 path ignores ``tensor_core``."""
    return knn_steps_us(device.spec, device.cal, batch, m, n, d, k, precision,
                        precision == "fp16" and tensor_core)


def _knn_columns(
    device: Optional[GPUDevice],
    stack: Sequence[np.ndarray],
    columns: np.ndarray,
    scale: float,
    k: int,
    precision: str,
    tensor_core: bool,
    indices: bool = True,
    norms: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Steps 1-4 for a *stack* — ``(batch_i, d, m)`` reference batches taken
    as the one batch they would concatenate to — against the ``(d, n)``
    columns of one query, or of several, concatenated.  ``device=None``
    computes only (the engine's sweep has charged each member as its own
    batch).  Returns ``(distances, indices)``, each ``(k, images * n)``,
    image-major in stack order; ``indices=False`` returns ``None`` for them
    and lets a tile select on its unrounded product (docs/architecture.md,
    "The winners-only epilogue").  The tiles (:func:`_tile_starts`) run on
    ``min(usable CPUs, tiles)`` lanes, each with its own workspace; the call
    joins every lane before it returns or raises.

    ``norms`` makes it Algorithm 1: ``(N_R, N_Q)``, the stack's ``(images,
    m)`` and the columns' ``(n,)`` squared norms as stored, added in
    Algorithm 1's step order, so each image's answer is
    :func:`knn_algorithm1`'s bit for bit.
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
    cpus = _usable_cpus()  # read once: the plan and the submits see the same count
    starts = _tile_starts(images, 4 * m * n, cpus)
    tile = starts.step  # images
    width = min(tile, images)
    lanes = min(cpus, len(starts))
    dtype, product = stack[0].dtype, 4 * width * n * m
    room = width * d * m * dtype.itemsize if len(stack) > 1 else 0
    dist = np.empty((k, images * n), dtype=np.float32)
    top_idx = np.empty((k, images * n), dtype=np.int32) if indices else None
    # Values alone survive selecting before rounding; 4k >= m is a sort either way.  Adding
    # each row's N_R after rounding is not monotone in the unrounded product.
    unrounded = not indices and 4 * k < m and norms is None
    offsets = np.cumsum([0] + [len(refs) for refs in stack]).tolist()  # where members start

    def lane() -> None:
        # One allocation a lane a call — the scratch its tiles reuse and, behind it, room for a
        # tile that crosses members: apart, they and the GEMM's up-cast are trimmed off the heap
        # and faulted back in on every call (docs/architecture.md, "One functional plane per
        # gather").  A tile writes only its own columns of dist / top_idx.
        workspace = np.empty(product + room, dtype=np.uint8)
        scratch = workspace[:product].view(np.float32).reshape(width, n, m)
        crossing = workspace[product:].view(dtype).reshape(-1, d, m)
        for start in unclaimed:
            stop = min(start + tile, images)
            # A tile stops at an image boundary, not at a member's: inside one member
            # it is a view, across members a copy of this tile's operand only.
            first, last = bisect_right(offsets, start) - 1, bisect_right(offsets, stop - 1) - 1
            refs = stack[first][start - offsets[first] : stop - offsets[first]]
            if first != last:
                parts = [refs] + [stack[i][: stop - offsets[i]] for i in range(first + 1, last + 1)]
                refs = np.concatenate(parts, out=crossing[: stop - start])
            out = scratch[: len(refs)]
            cols = slice(start * n, (start + len(refs)) * n)
            if fp16:
                a, overflow = batched_hgemm(None, refs, columns, tensor_core=tensor_core, out=out,
                                            store_fp16=not unrounded)
            else:
                a = query_major_product(refs.astype(np.float32, copy=False), columns, out=out)
                overflow = False
            # Step 2: one scan thread per (image, query-feature) column — on the
            # query-major product a zero-copy F-ordered view, each column
            # contiguous.  Only the winners leave the tile.
            scanned = np.transpose(a, (1, 0, 2)).reshape(m, len(refs) * n)
            unexamined = overflow is None
            if unexamined:
                # The unrounded accumulator of non-negative operands.  Rounding and x-2 are
                # monotone: its k largest, rounded, are the k smallest of the rounded -2A with
                # multiplicity, the first of them the maxima the overflow rule asks about.
                won = functional_topk(scanned, k, largest=True)[0]
                peak = float(won[0].max())
                overflow = peak > FP16_MAX
            if overflow:
                # error path only: name the first member whose own product overflows,
                # image by image — whatever the tile size and whatever shared its tile
                hot = next((member for member in stack for image in member if batched_hgemm(
                    None, image[None], columns, tensor_core=tensor_core)[1]), refs)
                raise HalfPrecisionOverflowError(scale, _accumulator_peak(hot, columns))
            if unexamined:
                round_trip_nonneg(won, peak)
                won *= np.float32(-2.0)
            else:
                scanned *= np.float32(-2.0)
                if norms is not None:  # Algorithm 1's step 4: + N_R, on the product's layout
                    out += norms[0][start:stop, None, :]
                won, won_idx = functional_topk(scanned, k)
                if indices:
                    top_idx[:, cols] = won_idx
            dist[:, cols] = won

    # Every lane claims the next unclaimed tile when it finishes one (a range iterator's next()
    # holds the GIL), so a lane whose CPU is taken leaves its share to the others instead of
    # holding the call back.  Lane 0 is this thread, alone when lanes == 1.
    unclaimed = iter(starts)
    others = [_LANES.submit(lane) for _ in range(1, lanes)]
    try:
        lane()
    finally:
        wait(others)  # no lane touches a buffer once control leaves
    for other in others:
        other.result()

    # Step 3: sqrt(const + A) in-register on the winners only (Algorithm 1: + N_Q);
    # step 4: the gather.
    if device is not None:
        device.charge(steps[1:])
    per_column = dist.reshape(k, images, n)
    per_column += np.float32(2.0 * scale * scale if fp16 else 2.0) if norms is None else norms[1]
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    if fp16:
        dist /= np.float32(scale)
    return dist, top_idx


def knn_algorithm2(
    device: GPUDevice,
    references: np.ndarray,
    query: np.ndarray,
    scale: float = 1.0,
    k: int = 2,
    precision: str = "fp16",
    tensor_core: bool = False,
) -> BatchKnnResult:
    """Batched RootSIFT 2-NN.

    Parameters
    ----------
    references:
        ``(batch, d, m)`` stack of reference feature matrices, already
        in engine precision (FP16 values pre-scaled by ``scale``).
    query:
        ``(d, n)`` query matrix in the same precision/scale.
    """
    references = np.asarray(references)
    query = np.asarray(query)
    if references.ndim != 3:
        raise ValueError(f"references must be (batch, d, m), got {references.shape}")
    if query.ndim != 2 or query.shape[0] != references.shape[1]:
        raise ValueError(
            f"query {query.shape} does not match references {references.shape}"
        )
    dist, idx = _knn_columns(device, [references], query, scale, k, precision, tensor_core)
    shape = (k, references.shape[0], query.shape[1])
    return BatchKnnResult(
        distances=np.ascontiguousarray(dist.reshape(shape).transpose(1, 0, 2)),
        indices=np.ascontiguousarray(idx.reshape(shape).transpose(1, 0, 2)),
    )
