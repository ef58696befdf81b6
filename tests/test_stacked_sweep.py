"""Frozen-oracle differential tests for the stacked sweep (PR 16).

``ParentEngine._execute_sweep``, ``ParentKernel.match_batch`` /
``match_batch_multi`` and ``oracle_knn_columns`` /
``oracle_knn_algorithm2`` / ``oracle_knn_algorithm2_multiquery`` are the
bodies of ``core/engine.py``, ``core/kernels.py``, ``core/algorithm2.py``
and ``core/query_batching.py`` as of the commit before the stacked
sweep, copied verbatim (the ``tests/test_kernel_diet.py`` method: only
the ``def`` names, the sweep's docstring and the module the tile budget
is read from changed — and the multi-stream block, which applies today's
overlap rule to the batches the loop swept; ``keep_masks``, an option the
engine no longer has, is cut with the mask and index fields of
``ImageMatch``).  There every sealed batch is charged *and*
computed inside the sweep loop, through five cost-model calls and one
kernel call each.  The split sweep — charge every batch in the loop,
compute all of them in one pass whose tiles run across batch boundaries
— must reproduce it bit for bit: matches, ``elapsed_us``,
``step_times_us``, the device clock, the profiler and ``EngineStats``.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Iterable, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.gemm import batched_hgemm, query_major_product
from repro.cache.hybrid import CachedBatch, CacheLocation
from repro.baselines.opencv_cuda import DIST_KERNEL_EFF_FP32
from repro.core import EngineConfig, TextureSearchEngine, algorithm2 as algorithm2_module, functional_topk, registry
from repro.core.algorithm2 import BatchKnnResult, _accumulator_peak
from repro.core.engine import _TRACER
from repro.core.kernels import NEIGHBOURS, Algorithm2Kernel, PreparedQuery
from repro.core.query_batching import MultiQueryResult
from repro.core.ratio_test import batch_ratio_test_masks, match_images_batch
from repro.core.results import ImageMatch, Sweep
from repro.errors import HalfPrecisionOverflowError
from repro.gpusim import GPUDevice, TESLA_P100
from repro.obs import current_deadline, deadline_scope
from repro.gpusim.kernels import insertion_sort_us
from repro.gpusim.pcie import h2d_time_us
from repro.core.engine import hidden_us
from tests.conftest import DEAD_PREFIX, arrays, make_descriptors, noisy_copy, pairs, planned_tiles, slot_ids

# -- frozen oracles (verbatim from the parent commit) ----------------------


def _SweepOutcome(per_query_matches, images, elapsed_us, images_skipped=0, images_pruned=0,
                  cascade_pruned=0) -> Sweep:
    """The parent's sweep outcome, in today's shape."""
    return Sweep(
        elapsed_us=elapsed_us, images_searched=images, images_skipped=images_skipped,
        images_pruned=images_pruned, cascade_pruned=cascade_pruned,
        deadline_expired=images_skipped > 0,
    ).carrying(map(arrays, per_query_matches))


def oracle_knn_columns(
    device: GPUDevice,
    references: np.ndarray,
    columns: np.ndarray,
    scale: float,
    k: int,
    precision: str,
    tensor_core: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-4 for a ``(batch, d, m)`` reference stack against the
    ``(d, n)`` columns of one query — or of several, concatenated.
    Returns ``(distances, indices)``, each ``(k, batch * n)``, image-major.
    """
    batch, d, m = references.shape
    n = columns.shape[1]
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if precision not in ("fp16", "fp32"):
        raise ValueError(f"precision must be 'fp16' or 'fp32', got {precision!r}")
    fp16 = precision == "fp16"
    if not fp16:
        columns = columns.astype(np.float32, copy=False)

    # Step 1: batched GEMM, charged as one fused call (the Sec. 5 data reuse)
    # and computed tile by tile: columns are independent, so steps 1-2 of a
    # tile are those of the whole batch restricted to its images.
    tc = fp16 and tensor_core
    device.gemm(m, n, d, batch=batch, dtype=precision, tensor_core=tc, step="GEMM")
    tile = max(1, algorithm2_module._PRODUCT_TILE_BYTES // (4 * m * n))  # images; the charge rejected empty shapes
    scratch = np.empty((min(tile, batch), n, m), dtype=np.float32)
    dist = np.empty((k, batch * n), dtype=np.float32)
    top_idx = np.empty((k, batch * n), dtype=np.int32)
    for start in range(0, batch, tile):
        refs = references[start : start + tile]
        out = scratch[: len(refs)]
        cols = slice(start * n, (start + len(refs)) * n)
        if fp16:
            a, overflow = batched_hgemm(None, refs, columns, tensor_core=tensor_core, out=out)
            if overflow:
                raise HalfPrecisionOverflowError(scale, _accumulator_peak(references, columns))
        else:
            a = query_major_product(refs.astype(np.float32, copy=False), columns, out=out)
        a *= np.float32(-2.0)
        # Step 2: one scan thread per (image, query-feature) column — on the
        # query-major product a zero-copy F-ordered view, each column
        # contiguous.  Only the winners leave the tile.
        scanned = np.transpose(a, (1, 0, 2)).reshape(m, len(refs) * n)
        dist[:, cols], top_idx[:, cols] = functional_topk(scanned, k)
    device.top2_scan(m, batch * n, dtype=precision, step="Top-2 sort")

    # Step 3: sqrt(const + A) in-register on the winners only.
    device.elementwise(k * batch * n, dtype=precision, step="sqrt")
    dist += np.float32(2.0 * scale * scale if fp16 else 2.0)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    if fp16:
        dist /= np.float32(scale)

    # Step 4: batched result gather.
    device.d2h_result(n, batch=batch, k=k, dtype=precision)
    return dist, top_idx


def oracle_knn_algorithm2(
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
    dist, idx = oracle_knn_columns(device, references, query, scale, k, precision, tensor_core)
    shape = (k, references.shape[0], query.shape[1])
    return BatchKnnResult(
        distances=np.ascontiguousarray(dist.reshape(shape).transpose(1, 0, 2)),
        indices=np.ascontiguousarray(idx.reshape(shape).transpose(1, 0, 2)),
    )


def oracle_knn_algorithm2_multiquery(
    device: GPUDevice,
    references: np.ndarray,
    queries: np.ndarray,
    scale: float = 1.0,
    k: int = 2,
    precision: str = "fp16",
    tensor_core: bool = False,
) -> MultiQueryResult:
    """Batched-reference x batched-query 2-NN.

    ``references`` is ``(batch, d, m)``; ``queries`` is ``(Q, d, n)``.
    Functionally equivalent to running Algorithm 2 once per query, but
    charged as one fused GEMM + one wide scan.
    """
    references = np.asarray(references)
    queries = np.asarray(queries)
    if references.ndim != 3 or queries.ndim != 3:
        raise ValueError("references must be (batch, d, m) and queries (Q, d, n)")
    if references.shape[1] != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: references d={references.shape[1]}, "
            f"queries d={queries.shape[1]}"
        )
    batch, d = references.shape[:2]
    n_queries, _, n = queries.shape
    # Column-concatenate queries: (d, Q*n).
    q_all = np.transpose(queries, (1, 0, 2)).reshape(d, n_queries * n)
    dist, idx = oracle_knn_columns(device, references, q_all, scale, k, precision, tensor_core)
    shape = (k, batch, n_queries, n)
    return MultiQueryResult(
        distances=np.ascontiguousarray(dist.reshape(shape).transpose(1, 2, 0, 3)),
        indices=np.ascontiguousarray(idx.reshape(shape).transpose(1, 2, 0, 3)),
    )


class ParentKernel(Algorithm2Kernel):
    """``Algorithm2Kernel.match_batch`` / ``match_batch_multi`` as of the parent
    commit: two bodies, each charging and computing one batch."""

    def match_batch(self, device, batch, query):
        cfg = self.config
        result = oracle_knn_algorithm2(
            device,
            batch.tensor,
            query.matrix,
            scale=cfg.effective_scale,
            k=NEIGHBOURS,
            precision=cfg.precision,
            tensor_core=cfg.tensor_core,
        )
        device.cpu_postprocess(batch.size, cfg.precision, cfg.n)
        # one vectorised ratio-test/count pass over the whole batch
        return match_images_batch(batch.slots.tolist(), result.distances, cfg.ratio_threshold)

    def match_batch_multi(self, device, batch, query):
        cfg = self.config
        n_queries = query.n_queries
        result = oracle_knn_algorithm2_multiquery(
            device,
            batch.tensor,
            query.matrix,
            scale=cfg.effective_scale,
            k=NEIGHBOURS,
            precision=cfg.precision,
            tensor_core=cfg.tensor_core,
        )
        device.cpu_postprocess(batch.size * n_queries, cfg.precision, cfg.n)
        # one vectorised ratio-test/count pass over the whole
        # (batch, n_queries) group, instead of per-pair calls
        masks = batch_ratio_test_masks(result.distances, cfg.ratio_threshold)
        counts = masks.sum(axis=-1)  # (batch, n_queries)
        groups: list[list[ImageMatch]] = []
        for q in range(n_queries):
            groups.append(
                [
                    ImageMatch(reference_id=int(batch.slots[i]), good_matches=int(counts[i, q]))
                    for i in range(batch.size)
                ]
            )
        return groups


class ParentEngine(TextureSearchEngine):
    def _execute_sweep(
        self,
        query: PreparedQuery,
        n_queries: int,
        batches: Iterable[CachedBatch] | None = None,
        record_stats: bool = True,
        honor_deadline: bool = True,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> _SweepOutcome:
        """``TextureSearchEngine._execute_sweep`` as of the parent commit: every
        batch charged *and* computed inside the loop."""
        cfg = self.config
        deadline = current_deadline() if honor_deadline else None
        profile_before = self.device.profiler.as_dict() if record_stats else {}
        sweep_cm = (
            _TRACER.span(
                "engine.sweep", layer="engine",
                backend=self.kernel.name, queries=n_queries,
            )
            if _TRACER.enabled
            else nullcontext()
        )
        with sweep_cm as sweep_span:
            start_us = self.device.synchronize()
            per_query: list[list[ImageMatch]] = [[] for _ in range(n_queries)]
            images = 0
            images_skipped = 0
            images_pruned = 0
            cascade_pruned = 0
            charged_at_us = start_us
            prefilter_active = (
                self.kernel.has_prefilter and query.matrix.ndim == 2
            )
            source = self.cache.batches() if batches is None else batches
            traced = _TRACER.enabled
            for cached in source:
                if candidate_ids is not None and not any(
                    slot_id in candidate_ids for slot_id in slot_ids(self, cached.batch)
                ):
                    # no nominee lives here: the batch is never staged
                    # or compared, and no simulated time is charged.
                    images_pruned += cached.batch.size
                    continue
                if deadline is not None and deadline.expired:
                    # an expired deadline stops the sweep: remaining
                    # batches are never staged or compared.
                    images_skipped += cached.batch.size
                    continue
                batch = cached.batch
                resident = cached.location is not CacheLocation.HOST
                survivors = None
                if prefilter_active:
                    # the prefilter runs on the small cached codes before
                    # any feature staging; its popcount cost is charged.
                    survivors = self.kernel.prefilter_batch(self.device, batch, query)
                    if survivors is not None:
                        cascade_pruned += batch.size - int(survivors.sum())
                fully_pruned = survivors is not None and not survivors.any()
                if record_stats:
                    (self._sweep_hit if resident else self._sweep_miss).inc()
                batch_cm = (
                    _TRACER.span(
                        "cache.batch", layer="cache",
                        batch_id=batch.batch_id, images=batch.size,
                        location=cached.location.value,
                    )
                    if traced
                    else nullcontext()
                )
                with batch_cm:
                    if not resident and not fully_pruned:
                        # one H2D per reference batch per *sweep* — a query
                        # group shares the transfer, it is not paid per query
                        self.device.h2d(batch.nbytes, pinned=self.cache.pinned)
                        self._h2d_bytes.inc(batch.nbytes)
                    if fully_pruned:
                        # no survivor: the batch never transfers and the
                        # exact stage is skipped outright.
                        groups = [self._pruned_matches(batch)]
                    elif query.matrix.ndim == 3:  # a prepared query *group*
                        groups = self.kernel.match_batch_multi(self.device, batch, query)
                    elif survivors is not None:
                        groups = [
                            self.kernel.match_batch(
                                self.device, batch, query,
                                survivors=survivors,
                            )
                        ]
                    else:
                        groups = [self.kernel.match_batch(self.device, batch, query)]
                    # tombstone filtering: resolve the batch's dead slots once
                    # (kernels emit one match per slot, in slot order), then
                    # drop them from every query's list by index, naming the rest.
                    ids = slot_ids(self, batch)
                    alive = [
                        i for i, slot_id in enumerate(ids)
                        if not slot_id.startswith(DEAD_PREFIX)
                        and (candidate_ids is None or slot_id in candidate_ids)
                    ]
                    for q, matches in enumerate(groups):
                        matches = [matches[i] for i in alive]
                        for i, match in zip(alive, matches):
                            match.reference_id = ids[i]
                        per_query[q].extend(matches)
                    images += batch.size
                if deadline is not None:
                    # charge per batch (non-mutating clock read) so the
                    # expiry check above sees this batch's cost.
                    now_us = self.device.elapsed_us()
                    deadline.charge(now_us - charged_at_us)
                    charged_at_us = now_us
            elapsed = self.device.synchronize() - start_us

            if cfg.streams > 1:
                # The overlap rule (Sec. 6.2) over the batches the loop
                # swept — the nominated ones, up to the ``images`` swept
                # before any cut: the steps charged them all, and the H2D
                # of those staged from the host.
                h2d_us, steps, walked = 0.0, [], 0
                for cached in self.cache.batches():
                    nominated = candidate_ids is None or any(
                        slot_id in candidate_ids for slot_id in slot_ids(self, cached.batch))
                    if nominated and walked < images:
                        walked += cached.batch.size
                        if cached.location is CacheLocation.HOST:
                            h2d_us += h2d_time_us(self.device.spec, cached.batch.nbytes, self.cache.pinned)
                        steps += self.kernel.batch_steps(self.device, cached.batch.size, n_queries)
                elapsed -= hidden_us(cfg.streams, h2d_us, steps)

            if record_stats:
                self.stats.searches += n_queries
                self.stats.images_compared += images * n_queries
                self.stats.total_search_us += elapsed
                self._sweeps.inc()
                self._sweep_us.observe(elapsed)
                for name, total in self.device.profiler.as_dict().items():
                    delta = total - profile_before.get(name, 0.0)
                    if delta:
                        self.stats.step_times_us[name] = (
                            self.stats.step_times_us.get(name, 0.0) + delta
                        )
                        self._step_us.labels(step=name).observe(delta)
            if images_skipped:
                self._deadline_sweeps.inc()
            if images_pruned and record_stats:
                self._images_pruned.inc(images_pruned)
            if cascade_pruned and record_stats:
                self._cascade_pruned.inc(cascade_pruned)
            if sweep_span is not None:
                sweep_span.set(sim_elapsed_us=elapsed, images=images,
                               images_skipped=images_skipped,
                               images_pruned=images_pruned,
                               cascade_pruned=cascade_pruned)
        return _SweepOutcome(
            per_query_matches=per_query,
            images=images,
            elapsed_us=elapsed,
            images_skipped=images_skipped,
            images_pruned=images_pruned,
            cascade_pruned=cascade_pruned,
        )

# -- helpers ---------------------------------------------------------------

M, N, BATCH = 24, 16, 4


def config(precision: str = "fp16", **kwargs) -> EngineConfig:
    defaults = dict(m=M, n=N, batch_size=BATCH, min_matches=2, scale_factor=0.25)
    return EngineConfig(**{**defaults, "precision": precision, **kwargs})


def build(engine_class, cfg, host: bool, seals, dead, kernel_class=None):
    """An engine on a device of its own whose cache went through ``seals``
    (references added, then a flush, per entry — so every partial size) and
    the removal of the ``dead`` ids.  ``host`` leaves room for one batch on
    the device: the rest of the sweep is host-resident."""
    kwargs = {}
    if host:
        batch_bytes = cfg.batch_size * cfg.feature_matrix_bytes()
        kwargs = dict(gpu_cache_bytes=batch_bytes, host_cache_bytes=64 * batch_bytes)
    if kernel_class is not None:
        kwargs["kernel"] = kernel_class(cfg)
    engine = engine_class(cfg, device=GPUDevice(TESLA_P100.with_memory(10**8)), **kwargs)
    image = 0
    for count in seals:
        for _ in range(count):
            engine.add_reference(f"ref{image}", make_descriptors(M, seed=500 + image))
            image += 1
        engine.flush()
    for image in dead:
        engine.remove_reference(f"ref{image}")
    return engine


def both(cfg, host, seals, dead):
    """The split sweep and the parent's, on identically built engines."""
    return (build(TextureSearchEngine, cfg, host, seals, dead),
            build(ParentEngine, cfg, host, seals, dead, kernel_class=ParentKernel))


def query_for(image: int, seed: int) -> np.ndarray:
    return noisy_copy(make_descriptors(M, seed=500 + image)[:, :N], 6.0, seed=seed)


def observed(engine, group) -> tuple:
    """Everything a search leaves behind, bits included."""
    shared = (group.elapsed_us, group.images_searched, group.partial, group.images_skipped,
              group.images_pruned, group.cascade_pruned)
    matches = [pairs(result) for result in group.answers]
    assert all(
        (r.elapsed_us, r.images_searched, r.partial, r.images_skipped, r.images_pruned,
         r.cascade_pruned) == shared for r in group.answers
    )
    device = engine.device
    return (shared, matches, copy.deepcopy(engine.stats), device.elapsed_us(),
            [(r.name, r.total_us, r.calls) for r in device.profiler.records()])


def tile_budget(images_per_tile: Optional[int], n_queries: int):
    """Patch the module's tile budget to hold that many images' products
    (``None``: the shipped budget, one tile here at one lane)."""
    if images_per_tile is None:
        return nullcontext()
    return mock.patch.object(
        algorithm2_module, "_PRODUCT_TILE_BYTES", images_per_tile * M * n_queries * N * 4
    )


# -- the split sweep against the parent's ----------------------------------


@st.composite
def sweeps(draw):
    host = draw(st.booleans())  # more than one batch, or nothing is demoted to the host
    seals = draw(st.lists(st.integers(1, BATCH + 2), min_size=3 if host else 1, max_size=7))
    total = sum(seals)
    nominees = st.sets(st.integers(0, total + 1), min_size=1, max_size=total)
    return dict(
        seals=seals,
        dead=sorted(draw(st.sets(st.integers(0, total - 1), max_size=total // 2))),
        candidates=draw(st.none() | st.none() | nominees),
        groups=draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)),
        precision=draw(st.sampled_from(["fp16", "fp32"])),
        host=host,
        images_per_tile=draw(st.sampled_from([None, 1, 2, 3, 5])),
        cut=draw(st.none() | st.floats(0.05, 0.95)),
    )


@settings(max_examples=150, deadline=None)
@given(sweeps())
def test_split_sweep_is_the_parents_sweep_bit_for_bit(case):
    cfg = config(case["precision"], streams=2 if case["host"] else 1)
    candidates = None if case["candidates"] is None else {f"ref{i}" for i in case["candidates"]}
    engine, parent = both(cfg, case["host"], case["seals"], case["dead"])
    for search, n_queries in enumerate(case["groups"]):
        queries = [query_for((3 * search + q) % sum(case["seals"]), seed=q) for q in range(n_queries)]
        kwargs = dict(candidate_ids=candidates)
        budget = None
        if case["cut"] is not None:
            # a deadline that expires part of the way through the parent's full sweep
            full = build(ParentEngine, cfg, case["host"], case["seals"], case["dead"], ParentKernel)
            budget = case["cut"] * full.search_group(queries, **kwargs).elapsed_us
        seen = []
        for side in (engine, parent):
            with tile_budget(case["images_per_tile"], n_queries):
                with deadline_scope(budget) if budget is not None else nullcontext() as deadline:
                    seen.append((observed(side, side.search_group(queries, **kwargs)),
                                 deadline and deadline.spent_us))
        assert seen[0] == seen[1]


def test_the_cut_sweep_is_a_prefix_of_the_full_one():
    """The property the deadline documents, on a stack: what was swept
    before the cut matches the full sweep's prefix bit for bit."""
    engine, _ = both(config(), False, [2, 1, 3, 2, 1], [4])
    queries = [query_for(1, seed=3), query_for(6, seed=4)]
    full = engine.search_group(queries)
    with deadline_scope(0.5 * full.elapsed_us):
        cut = engine.search_group(queries)
    assert cut.partial and 0 < cut.images_searched < full.images_searched
    for part, whole in zip(cut.answers, full.answers, strict=True):
        assert 0 < len(pairs(part)) < len(pairs(whole))
        for got, want in zip(pairs(part), pairs(whole)):  # the prefix
            assert got == want


# -- counts that need no clock ---------------------------------------------


def count_calls(monkeypatch, name: str) -> list:
    calls, real = [], getattr(algorithm2_module, name)
    monkeypatch.setattr(
        algorithm2_module, name, lambda *args, **kw: (calls.append(args), real(*args, **kw))[1]
    )
    return calls


def test_one_gemm_per_tile_not_per_batch(monkeypatch):
    """Five partial batches, eleven images: one ``batched_hgemm`` and one
    top-k per tile of the plan, not per batch — at one lane one call at the
    shipped budget and ``ceil(11 / t)`` at ``t`` images a tile — while the
    device is still charged five batches."""
    seals = [3, 1, 2, 4, 1]
    query = query_for(5, seed=9)
    for images_per_tile in (None, 4, 2, 1):
        engine = build(TextureSearchEngine, config(), False, seals, [])
        with monkeypatch.context() as patch, tile_budget(images_per_tile, 1):
            tiles = planned_tiles(11, M * N * 4)
            gemms = count_calls(patch, "batched_hgemm")
            scans = count_calls(patch, "functional_topk")
            result = engine.search(query)
        assert len(gemms) == len(scans) == len(tiles)
        assert all(args[0] is None for args in gemms)  # computed, never charged, here
        assert sum(args[1].shape[0] for args in gemms) == 11
        assert sorted(args[1].shape[0] for args in gemms) == sorted(tiles)  # any lane order
        assert result.images_searched == 11 and result.best().reference_id == "ref5"
        steps = {r.name: r.calls for r in engine.device.profiler.records()}
        assert steps == dict.fromkeys(
            ["GEMM", "Top-2 sort", "sqrt", "D2H copy", "Post-processing"], len(seals)
        )


def test_a_tile_is_up_cast_into_the_lanes_workspace_and_an_fp32_one_inside_a_batch_is_a_view(
        monkeypatch):
    """At one lane and three images a tile (3 + 3 + 2 over two batches of four):
    every fp16 tile's operand is the float32 up-cast of its images, written into
    the lane's one workspace, never a new array; an fp32 tile inside one batch is
    a view of it, and one across batches a copy into that workspace."""
    monkeypatch.setattr(algorithm2_module, "_usable_cpus", lambda: 1)
    for precision, product, views in (("fp16", "batched_hgemm", [False] * 3),
                                      ("fp32", "query_major_product", [True, False, True])):
        engine = build(TextureSearchEngine, config(precision), False, [4, 4], [])
        tensors = [cached.batch.tensor for cached in engine.cache.batches()]
        images, calls, real = np.concatenate(tensors), [], getattr(algorithm2_module, product)
        operand = 1 if product == "batched_hgemm" else 0
        with monkeypatch.context() as patch, tile_budget(3, 1):
            patch.setattr(algorithm2_module, product, lambda *args, **kw: (
                calls.append((args[operand], args[operand].copy())), real(*args, **kw))[1])
            engine.search(query_for(0, seed=1))
        assert [len(held) for _, held in calls] == [3, 3, 2]
        for (refs, held), start, view in zip(calls, (0, 3, 6), views):
            assert held.dtype == np.float32
            assert np.array_equal(held, images[start : start + len(held)].astype(np.float32))
            assert any(np.shares_memory(refs, tensor) for tensor in tensors) == view
        workspace = [refs for (refs, _), view in zip(calls, views) if not view]
        assert all(np.shares_memory(refs, workspace[0]) for refs in workspace)  # one a lane


#: every built-in backend with each precision its ``validate_config`` accepts
BACKENDS = [
    ("algorithm2", "fp16"), ("algorithm2", "fp32"), ("algorithm1", "fp16"), ("algorithm1", "fp32"),
    ("garcia", "fp16"), ("garcia", "fp32"), ("cascade", "fp16"), ("cascade", "fp32"),
    ("opencv", "fp32"), ("lsh", "fp32"),
]


def typed_charges(device: GPUDevice, kernel, size: int, n_queries: int) -> None:
    """The typed operations the parent's sweep made to match ``size`` images
    of a batch against ``n_queries`` queries: Algorithm 2's five per batch,
    every other backend's chain per image (its kernel's loop, as it was)."""
    cfg = kernel.config
    m, n, d, k, dtype = cfg.m, cfg.n, cfg.d, NEIGHBOURS, cfg.precision
    if cfg.backend == "algorithm2":
        width = n_queries * n
        device.gemm(m, width, d, batch=size, dtype=dtype, step="GEMM")
        device.top2_scan(m, size * width, dtype=dtype, step="Top-2 sort")
        device.elementwise(k * size * width, dtype=dtype, step="sqrt")
        device.d2h_result(width, batch=size, k=k, dtype=dtype)
        device.cpu_postprocess(size * n_queries, dtype, n)
        return
    for _ in range(size * n_queries):
        if cfg.backend == "opencv":
            flops = 2.0 * m * n * d
            device.submit("compute", device.spec.kernel_launch_us + flops / (
                device.spec.fp32_tflops * 1e12 * DIST_KERNEL_EFF_FP32) * 1e6, step="distance kernel")
            device.charge([("compute", insertion_sort_us(device.spec, device.cal, m, n, "fp32"), "Top-2 sort")])
        elif cfg.backend == "lsh":
            device.elementwise(n * m * kernel.codec.n_words, dtype="fp32", step="Hamming filter")
            device.elementwise(2 * n * min(kernel.n_candidates, m) * d, dtype="fp32", step="re-rank")
        else:  # Algorithm 1's steps 3-8: algorithm1, garcia, cascade
            device.gemm(m, n, d, batch=1, dtype=dtype, step="GEMM")
            device.elementwise(m * n, dtype=dtype, step="add N_R")
            if cfg.backend == "garcia":
                device.charge([("compute", insertion_sort_us(device.spec, device.cal, m, n, dtype), "Top-2 sort")])
            else:
                device.top2_scan(m, n, dtype=dtype, step="Top-2 sort")
            device.elementwise(k * n, dtype=dtype, step="add N_Q + sqrt")
        device.d2h_result(n, batch=1, k=k, dtype=dtype)
        device.cpu_postprocess(1, dtype, n)


def test_batch_steps_are_the_typed_operations_costs():
    """For every registered backend the pre-costed list is the typed charges
    the parent's sweep made, value for value; a batch with nothing left to
    compare (a prefilter emptied it) charges nothing."""
    assert sorted({backend for backend, _ in BACKENDS}) == sorted(registry._BUILTIN)
    records = lambda device: [(r.name, r.total_us, r.calls) for r in device.profiler.records()]
    for backend, precision in BACKENDS:
        kernel = registry.create_kernel(config(precision, backend=backend))
        groups = (1, 2, 4) if kernel.supports_multiquery else (1,)
        for size, n_queries in ((size, q) for size in (1, 3, 4) for q in groups):
            listed, typed = GPUDevice(TESLA_P100), GPUDevice(TESLA_P100)
            steps = kernel.batch_steps(listed, size, n_queries)
            assert isinstance(steps, list)
            listed.charge(steps)
            typed_charges(typed, kernel, size, n_queries)
            assert records(listed) == records(typed), (backend, precision, size, n_queries)
            assert listed.synchronize() == typed.synchronize() > 0
        if not kernel.supports_multiquery:
            assert kernel.batch_steps(GPUDevice(TESLA_P100), 0, 1) == []


# -- overflow --------------------------------------------------------------


def sparse(columns: int, dims: slice, seed: int) -> np.ndarray:
    """Descriptors that live in ``dims`` only: zero product with any other support."""
    out = np.zeros((128, columns), dtype=np.float32)
    out[dims] = make_descriptors(columns, seed=seed)[dims]
    return out


@pytest.mark.parametrize("images_per_tile", [None, 1, 2, 5])
def test_overflow_names_the_first_overflowing_batch_whatever_shared_its_tile(images_per_tile):
    """Batch 2 of 3 overflows (a half match: product ~ s^2 / 2); batch 3 would
    overflow further (the query itself: s^2).  Reported: batch 2's own peak,
    as the parent's per-batch sweep does, at any tile size — and the stats of
    the engine do not move."""
    cfg = config(scale_factor=512.0)  # s^2 = 262 144 > 65 504
    low, high = slice(0, 64), slice(64, 128)
    query = sparse(N, low, seed=1)
    half = query.copy()
    half[high] = make_descriptors(N, seed=2)[high]  # half the mass off the query's support
    pad = lambda d: np.concatenate([d, sparse(M - N, high, seed=3)], axis=1)
    errors = []
    for engine_class, kernel_class in ((TextureSearchEngine, None), (ParentEngine, ParentKernel)):
        engine = build(engine_class, cfg, False, [], [], kernel_class)
        for ref_id, descriptors in (
            ("cold0", sparse(M, high, seed=4)), ("cold1", sparse(M, high, seed=5)), (None, None),
            ("cold2", sparse(M, high, seed=6)), ("half", pad(half)), (None, None),
            ("same", pad(query)), (None, None),
        ):
            if ref_id is None:
                engine.flush()
            else:
                engine.add_reference(ref_id, descriptors)
        before = copy.deepcopy(engine.stats)
        with tile_budget(images_per_tile, 1), pytest.raises(HalfPrecisionOverflowError) as raised:
            engine.search(query)
        assert engine.stats == before
        errors.append((raised.value.scale, raised.value.max_value, str(raised.value)))
    assert errors[0] == errors[1]
    batches = [cached.batch.tensor for cached in engine.cache.batches()]
    columns = engine.kernel.query_matrix(query)
    peaks = [_accumulator_peak(tensor, columns) for tensor in batches]
    assert peaks[0] < 65504 < peaks[1] < peaks[2]
    assert errors[0][1] == peaks[1]
