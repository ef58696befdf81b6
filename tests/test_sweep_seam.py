"""Frozen-oracle differential tests for the sweep seam (PR 18).

``ParentEngine.verify`` / ``_execute_sweep`` / ``_pruned_matches`` and
``ParentCascadeKernel.match_batch`` are the bodies of ``core/engine.py``
and ``core/cascade.py`` as of the commit before the seam moved, copied
verbatim (the ``tests/test_stacked_sweep.py`` method: only the class they
hang off, the sweep's docstring and its multi-stream block — today's
overlap rule over the batches it swept — changed, and ``keep_masks``, an
option the engine no longer has, is cut with the mask and index fields of
``ImageMatch``; since every kernel is
pre-costed, the sweep reads the parent's ``batch_steps`` — ``None`` but
for Algorithm 2 — through :func:`parent_batch_steps` and computes what
it charged through ``tests/test_fused_gather.py``'s
``parent_swept_matches``).  There ``verify`` was a
sweep over a transient one-image batch with its stats, deadline and
cache switched off by parameter, the engine built the zero-match entries
of a fully pruned batch itself, and the cascade kernel carried its own
copy of Algorithm 1's match loop.  Now ``verify`` calls the kernel
directly, every kernel's ``match_batch`` takes ``survivors`` and reports
no good match for what the mask rules out, and the tracer owns
its off switch — and nothing observable may have moved: verdicts,
matches, ``elapsed_us``, the device clock, the profiler's rows,
``EngineStats`` and every engine counter.
"""

from __future__ import annotations

import copy
import json
from contextlib import nullcontext
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hybrid import CachedBatch, CacheLocation
from repro.core import EngineConfig, TextureSearchEngine, registry
from repro.core.algorithm1 import PreparedFeatures, knn_algorithm1
from repro.core.batching import ReferenceBatch
from repro.core.cascade import CascadeKernel, _CascadeQuery
from repro.core.engine import _TRACER
from repro.baselines.adapters import GarciaKernel
from repro.core.kernels import NEIGHBOURS, Algorithm1Kernel, PreparedQuery
from repro.core.ratio_test import match_images
from repro.core.results import ImageMatch
from repro.distributed import DistributedSearchSystem
from repro.gpusim import GPUDevice, TESLA_P100
from repro.obs import current_deadline, deadline_scope, default_tracer
from repro.obs.tracing import RequestTracer
from repro.gpusim.pcie import h2d_time_us
from repro.core.engine import hidden_us
from repro.routing import RouterPolicy
from tests.conftest import make_descriptors, noisy_copy, slot_ids
from tests.test_fused_gather import parent_swept_matches
from tests.test_stacked_sweep import BATCH, M, N, _SweepOutcome, config, observed, query_for

# -- frozen oracles (verbatim from the parent commit) ----------------------


class ParentCascadeKernel(CascadeKernel):
    """``CascadeKernel.match_batch`` as of the parent commit: its own copy
    of Algorithm 1's loop, building the pruned slots' entries itself."""

    def match_batch(self, device, batch, query, survivors=None):
        cfg = self.config
        features = query.aux.features if isinstance(query.aux, _CascadeQuery) else query.aux
        matches = []
        for i in range(batch.size):
            if survivors is not None and not survivors[i]:
                # Hamming-pruned: no GEMM, no scan, no post-processing.
                matches.append(ImageMatch(reference_id=int(batch.slots[i]), good_matches=0))
                continue
            ref = PreparedFeatures(
                values=batch.tensor[i],
                norms=batch.norms[i],
                precision=cfg.precision,
                scale=cfg.effective_scale,
            )
            knn = knn_algorithm1(
                device, ref, features, k=NEIGHBOURS, sort_kind=self.sort_kind
            )
            device.cpu_postprocess(1, cfg.precision, cfg.n)
            matches.append(match_images(int(batch.slots[i]), knn, cfg.ratio_threshold))
        return matches


class ParentAlgorithm1Kernel(Algorithm1Kernel):
    """``Algorithm1Kernel`` as of the parent commit: the same loop."""

    match_batch = ParentCascadeKernel.match_batch


class ParentGarciaKernel(GarciaKernel):
    match_batch = ParentCascadeKernel.match_batch


#: the parent's kernels that matched inside the sweep loop, by backend
PARENT_KERNELS = {
    "algorithm1": ParentAlgorithm1Kernel, "garcia": ParentGarciaKernel, "cascade": ParentCascadeKernel,
}


def parent_batch_steps(kernel, device, size, n_queries):
    """What the parent's ``kernel.batch_steps`` returned: a list for the kernels
    pre-costed then, ``None`` for those that matched inside the loop."""
    if isinstance(kernel, tuple(PARENT_KERNELS.values())):
        return None
    return kernel.batch_steps(device, size, n_queries)


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
        """``TextureSearchEngine._execute_sweep`` as of the parent commit: the one
        batch loop ``verify`` ran on too, with the engine deciding what a pruned
        slot reports."""
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
            swept: list[tuple[ReferenceBatch, list | None]] = []
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
                shape = (batch.size, n_queries)
                if shape not in self._batch_steps:
                    self._batch_steps[shape] = parent_batch_steps(self.kernel, self.device, *shape)
                steps = self._batch_steps[shape]
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
                    elif steps is not None:
                        # charged now, computed with the rest of the sweep
                        self.device.charge(steps)
                        groups = None
                    elif query.matrix.ndim == 3:  # a prepared query *group*
                        groups = self.kernel.match_batch_multi(self.device, batch, query)
                    else:
                        kept = {} if survivors is None else {"survivors": survivors}
                        match = self.kernel.match_batch
                        groups = [match(self.device, batch, query, **kept)]
                    swept.append((batch, groups))
                    images += batch.size
                if deadline is not None:
                    # charge per batch (non-mutating clock read) so the
                    # expiry check above sees this batch's cost.
                    now_us = self.device.elapsed_us()
                    deadline.charge(now_us - charged_at_us)
                    charged_at_us = now_us
            per_query = parent_swept_matches(self, swept, query, n_queries, candidate_ids)
            elapsed = self.device.synchronize() - start_us

            if cfg.streams > 1:
                # The overlap rule (Sec. 6.2) over the batches the loop swept:
                # the steps charged their surviving slots (the prefilter re-run
                # on a throwaway device), and the H2D of those staged from the host.
                location = {cached.batch.batch_id: cached.location for cached in self.cache.batches()}
                h2d_us, steps = 0.0, []
                for batch, _ in swept:
                    surviving = batch.size
                    if prefilter_active:
                        mask = self.kernel.prefilter_batch(GPUDevice(self.device.spec), batch, query)
                        surviving = batch.size if mask is None else int(mask.sum())
                    if surviving:
                        if location.get(batch.batch_id) is CacheLocation.HOST:  # verify's batch is in no cache
                            h2d_us += h2d_time_us(self.device.spec, batch.nbytes, self.cache.pinned)
                        steps += self.kernel.batch_steps(self.device, surviving, n_queries)
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

    def _pruned_matches(self, batch: ReferenceBatch) -> list[ImageMatch]:
        """Zero-match entries for a fully Hamming-pruned batch — one per
        slot, in slot order, so the tombstone/candidate filtering below
        treats them exactly like kernel output."""
        return [ImageMatch(reference_id=slot_id, good_matches=0) for slot_id in batch.slots.tolist()]

    def verify(
        self,
        reference_descriptors: np.ndarray,
        query_descriptors: np.ndarray,
    ) -> tuple[bool, int]:
        """One-to-one verification: ``(same_texture, good_matches)``."""
        cfg = self.config
        ref_matrix, norms = self.prepare_reference_matrix(reference_descriptors)
        aux = self.kernel.reference_aux(ref_matrix) if self.kernel.needs_aux else None
        query = self.kernel.prepare_query(self.device, query_descriptors)
        transient = ReferenceBatch(
            batch_id=-1,
            slots=np.zeros(1, dtype=np.int64),
            tensor=ref_matrix[None, ...],
            norms=norms[None, ...] if norms is not None else None,
            aux=aux[None, ...] if aux is not None else None,
        )
        outcome = self._execute_sweep(
            query,
            n_queries=1,
            batches=[CachedBatch(batch=transient, location=CacheLocation.GPU)],
            record_stats=False,
            honor_deadline=False,  # a 1:1 verification is never sheddable
        )
        match = outcome.answers[0].matches[0]
        return match.good_matches >= cfg.min_matches, match.good_matches


# -- helpers ---------------------------------------------------------------

#: every built-in backend, with the precisions its ``validate_config`` takes
BACKENDS = [
    ("algorithm2", "fp16"), ("algorithm2", "fp32"), ("algorithm1", "fp16"), ("algorithm1", "fp32"),
    ("garcia", "fp16"), ("garcia", "fp32"), ("cascade", "fp16"), ("cascade", "fp32"),
    ("opencv", "fp32"), ("lsh", "fp32"),
]


def test_every_registered_backend_is_covered():
    assert sorted({backend for backend, _ in BACKENDS}) == sorted(registry._BUILTIN)
    for backend in registry._BUILTIN:
        for precision in ("fp16", "fp32"):
            try:
                registry.create_kernel(config(precision, backend=backend))
            except ValueError:
                assert (backend, precision) not in BACKENDS
            else:
                assert (backend, precision) in BACKENDS


def build(engine_class, cfg, host, seals, dead):
    """An engine on a device of its own whose cache went through ``seals``
    (references added, then a flush, per entry) and the removal of the
    ``dead`` ids.  ``host`` leaves room for one full batch on the device
    (features, FP32-widened norms, codes): the rest is host-resident."""
    kwargs = {}
    if host:
        batch_bytes = cfg.batch_size * (cfg.feature_matrix_bytes() + 4 * cfg.m)
        kwargs = dict(gpu_cache_bytes=batch_bytes, host_cache_bytes=64 * batch_bytes)
    if engine_class is ParentEngine and cfg.backend in PARENT_KERNELS:
        kwargs["kernel"] = PARENT_KERNELS[cfg.backend](cfg)
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


def pair(backend, precision, host=False, seals=(3, 4, 2), dead=()):
    """This tree's engine and the parent's, identically built."""
    cfg = config(precision, backend=backend, streams=2 if host else 1)
    return build(TextureSearchEngine, cfg, host, seals, dead), build(ParentEngine, cfg, host, seals, dead)


def engine_counters(engine) -> str:
    """Every ``repro_engine_*`` / ``repro_cache_sweep_*`` series of the
    engine's registry, as text."""
    snapshot = engine.obs.registry.snapshot()
    return json.dumps(
        {name: series for name, series in snapshot.items()
         if name.startswith(("repro_engine_", "repro_cache_sweep_"))},
        sort_keys=True,
    )


def clock_and_profile(engine) -> tuple:
    device = engine.device
    return device.elapsed_us(), [(r.name, r.total_us, r.calls) for r in device.profiler.records()]


def impostor(seed: int = 9999) -> np.ndarray:
    return make_descriptors(N, seed=seed)


# -- verify is what it was, and not a sweep --------------------------------


@pytest.mark.parametrize("backend,precision", BACKENDS)
def test_verify_is_the_parents_verify(backend, precision):
    engine, parent = pair(backend, precision)
    reference = make_descriptors(M, seed=77)
    seen = []
    for side in (engine, parent):
        side.search(query_for(1, seed=5))  # stats and counters worth not moving
        stats, counters = copy.deepcopy(side.stats), engine_counters(side)
        verdicts = [side.verify(reference, noisy_copy(reference[:, :N], 6.0, seed=3)),
                    side.verify(reference, impostor())]
        with deadline_scope(0.0) as expired:  # a 1:1 verification is never sheddable
            verdicts.append(side.verify(reference, noisy_copy(reference[:, :N], 6.0, seed=3)))
        assert expired.spent_us == 0.0
        assert verdicts[2] == verdicts[0]
        assert side.stats == stats and engine_counters(side) == counters
        assert len(side.cache) == 3  # the transient batch was never cached
        seen.append((verdicts, clock_and_profile(side)))
    assert seen[0] == seen[1]
    (same, count), (other, _) = seen[0][0][:2]
    assert same and count >= engine.config.min_matches and not other


@pytest.fixture
def tracer():
    """The process-wide request tracer, with no spans before the test and
    reset and off after it."""
    tracer = default_tracer()
    tracer.reset()
    yield tracer
    tracer.reset()
    tracer.disable()


def test_verify_opens_no_sweep_span(tracer):
    """The one intended difference (docs/observability.md): a verify is
    not a sweep, so a traced one emits no engine.sweep / cache.batch."""
    engine, parent = pair("algorithm2", "fp16")
    reference = make_descriptors(M, seed=77)
    tracer.enable()
    engine.verify(reference, reference[:, :N])
    assert tracer.spans == []
    parent.verify(reference, reference[:, :N])
    assert [span.name for span in tracer.spans] == ["cache.batch", "engine.sweep"]


# -- the cascade: the kernel reports what it pruned ------------------------


@pytest.mark.cascade
@pytest.mark.parametrize("precision", ["fp16", "fp32"])
def test_a_pruned_pair_verifies_false_without_a_gemm(precision):
    engine, parent = pair("cascade", precision)
    reference = make_descriptors(M, seed=77)
    profiles = []
    for side in (engine, parent):
        assert side.verify(reference, impostor()) == (False, 0)
        profiles.append(clock_and_profile(side))
        steps = {name for name, _, _ in profiles[-1][1]}
        assert "Hamming prefilter" in steps
        assert not steps & {"GEMM", "Top-2 sort", "add N_R", "Post-processing", "D2H copy"}
    assert profiles[0] == profiles[1]


@pytest.mark.cascade
@pytest.mark.parametrize("tombstoned", [False, True])
def test_a_host_batch_with_no_survivor_is_not_staged_and_reports_empty_matches(tombstoned):
    """A host batch whose every slot the prefilter rules out is never staged
    and reports no good match; a deleted reference among those slots is
    dropped from the answer like any tombstone."""
    dead = (5,) if tombstoned else ()
    seen = []
    for side in pair("cascade", "fp32", host=True, seals=(4, 4, 3), dead=dead):
        assert sum(c.location is CacheLocation.HOST for c in side.cache.batches()) == 2
        h2d_before = side.obs.registry.value("repro_engine_h2d_bytes_total")
        result = side.search_group([impostor()])
        assert side.obs.registry.value("repro_engine_h2d_bytes_total") == h2d_before
        assert result.images_searched == result.cascade_pruned == 11
        steps = {r.name: r.calls for r in side.device.profiler.records()}
        assert "H2D copy" not in steps and "GEMM" not in steps
        matches = result.answers[0].matches
        assert [m.reference_id for m in matches] == [f"ref{i}" for i in range(11) if i not in dead]
        assert [m.good_matches for m in matches] == [0] * (11 - len(dead))
        seen.append(observed(side, result))
    assert seen[0] == seen[1]


@pytest.mark.cascade
@pytest.mark.parametrize("host", [False, True])
def test_partial_survivors_skip_exactly_the_pruned_slots_charges(host):
    seen = []
    for side in pair("cascade", "fp32", host=host, seals=(4, 4, 3)):
        misses = side.obs.registry.get("repro_cache_sweep_lookups_total").labels(result="miss")
        misses_before = misses.value
        result = side.search_group([query_for(5, seed=2)])
        survivors = result.images_searched - result.cascade_pruned
        assert 0 < survivors < result.images_searched == 11
        steps = {r.name: r.calls for r in side.device.profiler.records()}
        assert steps["GEMM"] == steps["Post-processing"] == steps["D2H copy"] == survivors
        # the one batch holding a survivor is staged, whole; the others never are
        assert steps.get("H2D copy", 0) == (1 if host else 0)
        assert misses.value - misses_before == (2 if host else 0)
        assert result.answers[0].best().reference_id == "ref5"
        seen.append(observed(side, result))
    assert seen[0] == seen[1]


# -- the per-batch path against the parent's -------------------------------


@st.composite
def per_batch_sweeps(draw):
    host = draw(st.booleans())
    seals = draw(st.lists(st.integers(1, BATCH + 1), min_size=3 if host else 1, max_size=5))
    total = sum(seals)
    nominees = st.sets(st.integers(0, total + 1), min_size=1, max_size=total)
    return dict(
        backend=draw(st.sampled_from(["algorithm1", "cascade"])),
        precision=draw(st.sampled_from(["fp16", "fp32"])),
        host=host,
        seals=seals,
        dead=sorted(draw(st.sets(st.integers(0, total - 1), max_size=total // 2))),
        candidates=draw(st.none() | st.none() | nominees),
        # a reference's own noisy copy (partial survivors) or an impostor (none)
        queries=draw(st.lists(st.none() | st.integers(0, total - 1), min_size=1, max_size=2)),
        cut=draw(st.none() | st.floats(0.05, 0.95)),
    )


@settings(max_examples=60, deadline=None)
@given(per_batch_sweeps())
def test_the_per_batch_sweep_is_the_parents_bit_for_bit(case):
    args = (case["backend"], case["precision"], case["host"], case["seals"], case["dead"])
    candidates = None if case["candidates"] is None else {f"ref{i}" for i in case["candidates"]}
    kwargs = dict(candidate_ids=candidates)
    engine, parent = pair(*args)
    for search, image in enumerate(case["queries"]):
        query = impostor(seed=4000 + search) if image is None else query_for(image, seed=search)
        budget = None
        if case["cut"] is not None:
            # a deadline that expires part of the way through the parent's full sweep
            budget = case["cut"] * pair(*args)[1].search(query, **kwargs).elapsed_us
        seen = []
        for side in (engine, parent):
            counters = engine_counters(side)
            with deadline_scope(budget) if budget is not None else nullcontext() as deadline:
                group = side.search_group([query], **kwargs)
            seen.append((observed(side, group), deadline and deadline.spent_us,
                         counters != engine_counters(side)))
        assert seen[0] == seen[1]


# -- the tracer owns its off switch ----------------------------------------


def test_a_disabled_span_is_one_reentrant_nestable_no_op():
    tracer = RequestTracer()
    outer = tracer.span("outer", layer="web", attempt=1)
    assert outer is tracer.span("other")  # one shared context, no state
    with outer as a:
        with tracer.span("inner") as b, outer as again:
            assert a is b is again is None
        with outer as after:
            assert after is None
    assert tracer.spans == [] and tracer.current() is None
    tracer.enable()
    with tracer.span("live", layer="web", attempt=2) as span:
        assert span.attrs == {"attempt": 2} and tracer.current() is span
        with outer as stale:  # handed out while disabled: still the no-op
            assert stale is None and tracer.current() is span
    assert [s.name for s in tracer.spans] == ["live"]


def routed_cluster():
    cfg = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)
    system = DistributedSearchSystem(3, cfg, router_policy=RouterPolicy(kind="ivf", n_lists=6))
    refs = {f"r{i}": make_descriptors(32, seed=700 + i) for i in range(18)}
    for ref_id, descriptors in refs.items():
        system.add(ref_id, descriptors)
    return system, [noisy_copy(refs[r], sigma=8.0) for r in ("r5", "r11")]


def test_an_enabled_trace_of_a_routed_search_has_the_parents_shape(monkeypatch, tracer):
    shapes = []
    for parent in (False, True):
        with monkeypatch.context() as patch:
            if parent:
                patch.setattr(TextureSearchEngine, "_execute_sweep", ParentEngine._execute_sweep)
            system, queries = routed_cluster()
            tracer.reset()
            tracer.enable()
            assert system.search(queries[0], nprobe=1).routed
            system.search_group(queries, nprobe=2)
            tracer.disable()
        shapes.append([tracer.trace_shape(trace_id) for trace_id in tracer.traces()])
        sweeps = [s for s in tracer.spans if s.name == "engine.sweep"]
        assert sweeps and all(
            s.attrs.keys() >= {"backend", "queries", "sim_elapsed_us", "images", "images_pruned"}
            for s in sweeps
        )
        shapes.append([(s.name, sorted(s.attrs)) for s in tracer.spans])
    assert len(shapes[0]) == 2 and any(name == "cache.batch" for _, _, name in shapes[0][0])
    assert shapes[:2] == shapes[2:]
