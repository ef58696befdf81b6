"""The texture search engine — the paper's contributions, composed.

:class:`TextureSearchEngine` owns one simulated GPU, a hybrid feature
cache, an engine configuration and one *match kernel* (the pluggable
k-NN backend, see :mod:`repro.core.kernels` and
:mod:`repro.core.registry`), and exposes the paper's two tasks:

* :meth:`verify` — one-to-one verification of a (reference, query) pair;
* :meth:`search` — one-to-many search of a query against every cached
  reference image, batch by batch.

Every optimization is a config knob (precision, backend, batch size,
sort kind, streams, asymmetric m/n), so the benchmark harness can
reproduce each table by toggling exactly one of them.  A search —
alone or as a fused group — is one private cache sweep
(:meth:`_execute_sweep`), which owns the batch loop, H2D transfer
accounting, the multi-stream overlap correction and stats; the kernel
decides what each slot of a swept batch costs and reports.

A reference is an integer *slot*, numbered in enrolment order.  Batches
and kernels see only slots; the engine holds the one id table (``_slots``
from live id to slot, ``_names`` from slot to id, ``None`` once the slot
is a tombstone), and its sweep names the matches it reports from it.  :meth:`verify` is not a sweep: it hands one transient
image to the same kernel calls and touches neither cache nor stats.

Timing: the device is one in-order queue, so with a single stream every
stage serialises, as in Tables 1/3/5.  With multiple streams the sweep
replaces the serial time of the batches it swept by Table 6's overlap
rule (:func:`overlap_us`), fed the H2D µs of those it staged from the
host and the kernel steps it charged them all, because real stream
concurrency is a property the serial NumPy execution cannot exhibit.
This sweep is the only stream model: the paper's stream tables run it
timing-only (:func:`repro.bench.tables.swept`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..cache.hybrid import CacheLocation, HybridFeatureCache
from ..errors import CacheCapacityError
from ..gpusim.device import TESLA_P100
from ..gpusim.engine_model import GPUDevice
from ..gpusim.pcie import h2d_time_us
from ..obs import Observability, current_deadline, default_tracer
from .batching import BatchBuilder, ReferenceBatch
from .compute import current_compute
from .config import EngineConfig
from .kernels import MatchKernel, PreparedQuery, QueryMatrix, ReferenceMatrix
from .registry import create_kernel
from .results import Answer, ImageMatch, Sweep

__all__ = ["TextureSearchEngine", "EngineStats", "hidden_us", "overlap_us"]

_TRACER = default_tracer()


def overlap_us(streams: int, h2d_us: float, busy_us: float) -> float:
    """Table 6's multi-stream rule (Sec. 6.2): one CPU thread and CUDA
    stream per slice of the swept batches, the PCIe link fair-shared over
    ``streams``, the device serial, CPU post-processing moved to the
    other workers."""
    return max(h2d_us + busy_us / streams, busy_us)


def hidden_us(streams: int, h2d_us: float, steps: list[tuple]) -> float:
    """What ``streams`` streams take off the serial time of batches that
    staged ``h2d_us`` of H2D and were charged the ``(engine, us, step)``
    list ``steps``: nothing at one stream, else the serial cycle (H2D +
    device work + post-processing) less :func:`overlap_us`."""
    if streams == 1:
        return 0.0
    busy = sum(us for engine, us, _ in steps if engine != "cpu")
    post = sum(us for engine, us, _ in steps if engine == "cpu")
    return h2d_us + busy + post - overlap_us(streams, h2d_us, busy)


@dataclass
class EngineStats:
    """Aggregate simulated statistics for one engine."""

    references: int = 0
    searches: int = 0
    images_compared: int = 0
    total_search_us: float = 0.0
    step_times_us: dict = field(default_factory=dict)

    @property
    def mean_throughput_images_per_s(self) -> float:
        if self.total_search_us <= 0:
            return 0.0
        return self.images_compared / (self.total_search_us * 1e-6)


class TextureSearchEngine:
    """One-GPU texture identification engine.

    Parameters
    ----------
    config:
        Optimization knobs; see :class:`EngineConfig`.  The
        ``backend`` field selects the match kernel.
    device:
        Simulated GPU (defaults to a fresh Tesla P100).
    host_cache_bytes:
        Second-level (host) cache budget; 0 disables the hybrid cache
        and the engine holds references in GPU memory only.
    gpu_cache_bytes:
        First-level budget; defaults to all free device memory.
    pinned:
        Host cache memory is pinned (Table 5).
    kernel:
        Pre-built :class:`~repro.core.kernels.MatchKernel` instance,
        overriding registry resolution (e.g. an ``LshKernel`` with
        non-default codec parameters).
    obs:
        The owning system's telemetry handle; an engine built on its own
        makes a private one.  Exposed as :attr:`obs`.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        device: GPUDevice | None = None,
        host_cache_bytes: int = 0,
        gpu_cache_bytes: int | None = None,
        pinned: bool = True,
        kernel: MatchKernel | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.kernel = kernel if kernel is not None else create_kernel(self.config)
        self.device = device or GPUDevice(TESLA_P100)
        self.obs = obs if obs is not None else Observability()
        self.cache = HybridFeatureCache(
            self.device,
            gpu_budget_bytes=gpu_cache_bytes,
            host_budget_bytes=host_cache_bytes,
            pinned=pinned,
            obs=self.obs,
        )
        registry = self.obs.registry
        self._sweeps = registry.counter(
            "repro_engine_sweeps_total",
            "Cache sweeps executed by search engines (search + fused groups)",
        )
        self._sweep_us = registry.histogram(
            "repro_engine_sweep_us",
            "Simulated time of one full cache sweep",
        )
        self._step_us = registry.histogram(
            "repro_engine_step_us",
            "Simulated per-sweep time by pipeline step (StepProfiler deltas)",
            ("step",),
        )
        self._h2d_bytes = registry.counter(
            "repro_engine_h2d_bytes_total",
            "Bytes staged host-to-device for host-resident reference batches",
        )
        lookups = registry.counter(
            "repro_cache_sweep_lookups_total",
            "Reference-batch touches during sweeps, by cache residency",
            ("result",),
        )
        #: pre-bound children — the sweep loop must not pay label resolution.
        self._sweep_hit = lookups.labels(result="hit")
        self._sweep_miss = lookups.labels(result="miss")
        self._deadline_sweeps = registry.counter(
            "repro_engine_deadline_expired_total",
            "Cache sweeps cut short by an expired request deadline",
        )
        self._images_pruned = registry.counter(
            "repro_engine_images_pruned_total",
            "Cached reference images skipped by candidate-routing restriction "
            "(first-tier pruning, not faults)",
        )
        self._cascade_pruned = registry.counter(
            "repro_engine_cascade_pruned_total",
            "Reference images whose exact GEMM was skipped by the cascade "
            "Hamming prefilter (the prune cost itself is still charged)",
        )
        cfg = self.config
        self._builder = BatchBuilder(
            batch_size=cfg.batch_size,
            d=cfg.d,
            m=cfg.m,
            keep_norms=self.kernel.needs_norms,
            keep_aux=self.kernel.needs_aux,
        )
        self.stats = EngineStats()
        #: (images compared, query count) -> the kernel's ``batch_steps``, costed once
        self._batch_steps: dict[tuple[int, int], list] = {}
        #: the id table: live id -> slot, and slot -> id, or ``None`` once
        #: deleting or updating the reference tombstoned it — batches are
        #: immutable, so the slot is still *compared* (honest cost) but its
        #: matches are dropped from results.
        self._slots: dict[str, int] = {}
        self._names: list[str | None] = []
        #: the first slot of every sealed batch, by batch id, then of the
        #: pending one: sealed batch ``b`` holds ``_firsts[b]:_firsts[b + 1]``.
        #: When every slot of a batch is dead the whole batch is purged from
        #: the cache (capacity released in whole-batch units — swap
        #: accounting stays batch-granular).
        self._firsts: list[int] = [0]
        #: images_compared as of the last :meth:`reset_profile`, so
        #: profile-report means cover only the profiled window.
        self._images_at_profile_reset = 0

    @property
    def backend(self) -> str:
        """Name of the active match-kernel backend."""
        return self.kernel.name

    # ------------------------------------------------------------------
    # enrolment
    # ------------------------------------------------------------------
    def prepare_reference_matrix(self, descriptors: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Shape/normalise/quantise one reference descriptor matrix.

        Input is ``(d, count)`` FP32, response-ranked (the extractor's
        output order); output is the backend's cached representation:
        normalised if the kernel requires it, trimmed/zero-padded to
        ``m``, converted to engine precision, with ``N_R`` norms when
        the kernel needs them.
        """
        return self.kernel.prepare_reference(descriptors)

    def add_reference(self, ref_id: str, descriptors: np.ndarray | ReferenceMatrix) -> None:
        """Enrol one reference image's descriptors into the cache — raw,
        or a :class:`~repro.core.kernels.ReferenceMatrix` some tier in
        front already prepared (the cluster does, once for all replicas).

        Re-adding an existing id is an *update*: the old slot is
        tombstoned and the new matrix appended.
        """
        if isinstance(descriptors, ReferenceMatrix):
            matrix, norms = descriptors.matrix, descriptors.norms
        else:
            matrix, norms = self.prepare_reference_matrix(descriptors)
        self.add_prepared_reference(ref_id, matrix, norms)

    def _names_of(self, batch_id: int) -> list[str | None]:
        """The id table's slice for the slots of sealed batch ``batch_id``."""
        return self._names[self._firsts[batch_id] : self._firsts[batch_id + 1]]

    def _seal(self, batch: ReferenceBatch) -> None:
        """Install a completed batch.

        A batch whose every slot was tombstoned while still pending is
        never cached at all — there is nothing live to sweep.  If the
        cache refuses the batch, or drops older ones to make room, the
        references of every batch it no longer holds leave the id table
        before the error propagates.
        """
        self._firsts.append(len(self._names))
        if all(name is None for name in self._names_of(batch.batch_id)):
            return
        try:
            self.cache.add(batch)
        except CacheCapacityError:
            held = {cached.batch.batch_id for cached in self.cache.batches()}
            for batch_id in range(len(self._firsts) - 1):
                if batch_id not in held:
                    for name in self._names_of(batch_id):
                        if name is not None:
                            self._names[self._slots.pop(name)] = None
            raise

    def add_prepared_reference(
        self,
        ref_id: str,
        matrix: np.ndarray,
        norms: np.ndarray | None = None,
    ) -> None:
        """Enrol an *already prepared* matrix (engine precision/scale,
        kernel normalisation applied, padded to ``(d, m)``).

        This is the warm-restart path: :meth:`export_records` emits
        stored-domain matrices, and re-applying the preprocessing to
        them would corrupt them (RootSIFT is not idempotent).
        """
        cfg = self.config
        ref_id = str(ref_id)
        matrix = np.asarray(matrix)
        if matrix.shape != (cfg.d, cfg.m):
            raise ValueError(f"prepared matrix must be ({cfg.d}, {cfg.m}), got {matrix.shape}")
        expected = np.float16 if cfg.precision == "fp16" else np.float32
        if matrix.dtype != expected:
            raise ValueError(f"prepared matrix must be {expected}, got {matrix.dtype}")
        if self.kernel.needs_norms and norms is None:
            raise ValueError(f"backend {self.backend!r} engines require the N_R vector")
        if ref_id in self._slots:
            self.remove_reference(ref_id)
        aux = self.kernel.reference_aux(matrix) if self.kernel.needs_aux else None
        slot = self._slots[ref_id] = len(self._names)
        self._names.append(ref_id)
        flushed = self._builder.add(slot, matrix, norms, aux)
        if flushed is not None:
            self._seal(flushed)
        self.stats.references += 1

    def export_records(self):
        """Serialize every live reference's *stored* matrix.

        Returns a list of :class:`~repro.distributed.FeatureRecord` in
        enrolment-compatible form: feed them to
        :meth:`import_records` on an engine with the same configuration
        to rebuild the cache (e.g. after a container restart).
        """
        from ..distributed.serialization import FeatureRecord

        sealed = {cached.batch.batch_id: cached.batch for cached in self.cache.batches()}
        pending = self._firsts[-1]
        records = []
        for ref_id, slot in self._slots.items():
            if slot >= pending:
                matrix = self._builder.pending_matrix(slot - pending)
            else:
                batch_id = bisect_right(self._firsts, slot) - 1
                matrix = sealed[batch_id].tensor[slot - self._firsts[batch_id]]
            records.append(
                FeatureRecord(
                    ref_id=ref_id,
                    matrix=np.asarray(matrix),
                    precision=self.config.precision,
                    scale=self.config.effective_scale,
                )
            )
        return records

    def import_records(self, records) -> int:
        """Re-enrol :meth:`export_records` output; returns the count.

        Records must match this engine's precision and scale — a
        mismatch means they were exported under a different
        configuration and would silently corrupt distances.
        """
        cfg = self.config
        count = 0
        for record in records:
            if record.precision != cfg.precision:
                raise ValueError(
                    f"record {record.ref_id!r} is {record.precision}, "
                    f"engine is {cfg.precision}"
                )
            if abs(record.scale - cfg.effective_scale) > 1e-12:
                raise ValueError(
                    f"record {record.ref_id!r} has scale {record.scale}, "
                    f"engine uses {cfg.effective_scale}"
                )
            norms = self.kernel.norms_for_stored(record.matrix) if self.kernel.needs_norms else None
            self.add_prepared_reference(record.ref_id, record.matrix, norms)
            count += 1
        return count

    def remove_reference(self, ref_id: str) -> bool:
        """Tombstone a reference; returns whether it was enrolled."""
        slot = self._slots.pop(str(ref_id), None)
        if slot is None:
            return False
        self._names[slot] = None
        if slot < self._firsts[-1]:
            batch_id = bisect_right(self._firsts, slot) - 1
            if all(name is None for name in self._names_of(batch_id)):
                # every slot is tombstoned: purge the whole batch so the
                # cache releases its capacity (batch-granular, like swap)
                self.cache.remove(batch_id)
        return True

    def has_reference(self, ref_id: str) -> bool:
        return str(ref_id) in self._slots

    def flush(self) -> None:
        """Seal the in-progress (partial) batch so it becomes searchable."""
        flushed = self._builder.flush()
        if flushed is not None:
            self._seal(flushed)

    @property
    def n_references(self) -> int:
        """Live (non-tombstoned) enrolled references."""
        return len(self._slots)

    def capacity_images(self) -> int:
        """The paper's capacity metric: how many images of what this
        engine's kernel caches fit its hybrid cache."""
        return self.cache.capacity_images(self.kernel.image_nbytes)

    def fragmentation(self) -> dict:
        """How the sealed cache is chunked, which is what a sweep is charged
        by: batches, their mean fill against ``batch_size``, and the share
        of their slots that are tombstones (compared, never reported)."""
        sealed, slots = len(self.cache), self.cache.total_images
        dead = sum(
            self._names_of(cached.batch.batch_id).count(None) for cached in self.cache.batches()
        )
        return {
            "sealed_batches": sealed,
            "batch_fill": slots / (sealed * self.config.batch_size) if sealed else 0.0,
            "dead_slot_share": dead / slots if slots else 0.0,
        }

    # ------------------------------------------------------------------
    # the cache-sweep executor
    # ------------------------------------------------------------------
    def _execute_sweep(
        self,
        query: PreparedQuery,
        n_queries: int,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> Sweep:
        """One search's pass over the cache, for :meth:`search_group`.

        Two planes.  The loop is the *timing* plane: batch by batch it
        decides what is swept and staged (H2D for host-resident
        batches) and charges the device the kernel's pre-costed
        ``batch_steps``; what it swept is then computed — and its
        matches named, tombstones dropped — by the *functional* plane
        (:meth:`_swept_matches`) in one kernel call — its own, or that of
        the gather it is part of (:mod:`repro.core.compute`).  The stats
        follow the loop, and so does the multi-stream overlap (Sec. 6.2):
        the steps charged to every swept batch — its surviving slots, at
        the group's width — and the H2D µs of those staged from the host
        go to :func:`hidden_us`, which comes off the serial clock
        (nothing at one stream).  A GPU-resident batch hides its
        post-processing just as a staged one does.  This is the only
        stream model: the paper's stream tables run this sweep
        timing-only (:func:`repro.bench.tables.swept`).

        ``candidate_ids`` (a :mod:`repro.routing` tier's nominees): a
        batch with no nominated slot is skipped outright — no staging,
        no simulated cost — and counted into ``images_pruned``; a swept
        batch runs at full width (the honest cost of the immutable
        layout) and its matches are filtered to the nominees, so results
        depend on the candidate set, never on batch co-location.

        Deadline (:func:`repro.obs.current_deadline`): each swept
        batch's simulated time is charged to the budget; once it expires
        the remaining batches are counted into ``images_skipped``
        instead of compared and the sweep is ``deadline_expired``.
        What *was* swept is bit-identical to a full sweep's prefix.

        Prefilter (``kernel.has_prefilter``): ``prefilter_batch`` runs
        on the cached aux codes before any staging, its cost charged.
        The batch is then charged ``batch_steps`` for its surviving slots
        only — nothing, and no staging, when none survives — and its mask
        rides beside it into the functional plane, where the kernel
        reports zero matches for the slots it rules out.  They still
        count into ``images_searched`` (examined, unlike routing-pruned
        ones) and into ``cascade_pruned``.
        """
        deadline = current_deadline()
        profile_before = self.device.profiler.as_dict()
        with _TRACER.span("engine.sweep", layer="engine", backend=self.backend, queries=n_queries):
            start_us = charged_at_us = self.device.synchronize()
            images = skipped = pruned = cascade = 0
            host_h2d_us, swept_steps = 0.0, []
            prefilter_active = self.kernel.has_prefilter and query.matrix.ndim == 2
            swept: list[ReferenceBatch] = []
            survivors_of: list[np.ndarray | None] = []
            for cached in self.cache.batches():
                batch = cached.batch
                if candidate_ids is not None and not any(
                    name in candidate_ids for name in self._names_of(batch.batch_id)
                ):
                    # no nominee lives here: never staged, compared or charged
                    pruned += batch.size
                    continue
                if deadline is not None and deadline.expired:
                    # expired: the remaining batches are never staged or compared
                    skipped += batch.size
                    continue
                resident = cached.location is not CacheLocation.HOST
                survivors, surviving = None, batch.size
                if prefilter_active:
                    # on the small cached codes, before any feature staging
                    survivors = self.kernel.prefilter_batch(self.device, batch, query)
                    if survivors is not None:
                        surviving = int(survivors.sum())
                        cascade += batch.size - surviving
                (self._sweep_hit if resident else self._sweep_miss).inc()
                shape = (surviving, n_queries)
                if shape not in self._batch_steps:
                    self._batch_steps[shape] = self.kernel.batch_steps(self.device, *shape)
                with _TRACER.span(
                    "cache.batch", layer="cache", batch_id=batch.batch_id,
                    images=batch.size, location=cached.location.value,
                ):
                    if surviving and not resident:
                        # one H2D per reference batch per *sweep* — a query
                        # group shares the transfer, it is not paid per query
                        h2d_us = h2d_time_us(self.device.spec, batch.nbytes, self.cache.pinned)
                        self.device.charge([("h2d", h2d_us, "H2D copy")])
                        self._h2d_bytes.inc(batch.nbytes)
                        host_h2d_us += h2d_us
                    # charged now, computed with the rest of the sweep
                    self.device.charge(self._batch_steps[shape])
                    swept_steps += self._batch_steps[shape]
                    swept.append(batch)
                    survivors_of.append(survivors)
                    images += batch.size
                if deadline is not None:
                    # charge per batch (non-mutating clock read) so the
                    # expiry check above sees this batch's cost.
                    now_us = self.device.elapsed_us()
                    deadline.charge(now_us - charged_at_us)
                    charged_at_us = now_us
            per_query = self._swept_matches(swept, survivors_of, query, n_queries, candidate_ids)
            # the swept batches' serial time becomes their multi-stream overlap (Sec. 6.2)
            elapsed = (self.device.synchronize() - start_us
                       - hidden_us(self.config.streams, host_h2d_us, swept_steps))

            self.stats.searches += n_queries
            self.stats.images_compared += images * n_queries
            self.stats.total_search_us += elapsed
            self._sweeps.inc()
            self._sweep_us.observe(elapsed)
            step_times = self.stats.step_times_us
            for name, total in self.device.profiler.as_dict().items():
                delta = total - profile_before.get(name, 0.0)
                if delta:
                    step_times[name] = step_times.get(name, 0.0) + delta
                    self._step_us.labels(step=name).observe(delta)
            if skipped:
                self._deadline_sweeps.inc()
            self._images_pruned.inc(pruned)
            self._cascade_pruned.inc(cascade)
            _TRACER.annotate(
                sim_elapsed_us=elapsed, images=images, images_skipped=skipped,
                images_pruned=pruned, cascade_pruned=cascade,
            )
        return Sweep(
            elapsed_us=elapsed, images_searched=images, images_skipped=skipped,
            images_pruned=pruned, cascade_pruned=cascade, deadline_expired=skipped > 0,
        ).carrying(per_query)

    def _swept_matches(
        self, swept: list[ReferenceBatch], survivors: list[np.ndarray | None],
        query: PreparedQuery, n_queries: int, candidate_ids: set[str] | frozenset[str] | None,
    ) -> list[list[ImageMatch]]:
        """The sweep's functional plane: per-query match lists for the batches
        the timing plane swept, in sweep order.  They are *submitted*, with
        their survivor masks, as one stack to the ambient scope
        (:mod:`repro.core.compute`); when that computes — at once, unless a
        gather holds it open — ``deliver`` names every match from the id
        table by the slot its kernel labelled it with, and keeps the live
        (and nominated) ones."""
        per_query: list[list[ImageMatch]] = [[] for _ in range(n_queries)]

        def deliver(stacked: list[list[ImageMatch]]) -> None:
            names = self._names
            for kept, matches in zip(per_query, stacked):
                for match in matches:
                    name = names[match.reference_id]
                    if name is not None and (candidate_ids is None or name in candidate_ids):
                        match.reference_id = name
                        kept.append(match)

        current_compute().submit(self.kernel, swept, survivors, query, deliver)
        return per_query

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query_descriptors: np.ndarray | QueryMatrix,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> Answer:
        """One-to-many search over every cached reference image: a
        query group of one (see :meth:`search_group`)."""
        return self.search_group([query_descriptors], candidate_ids=candidate_ids).answers[0]

    def search_group(
        self,
        query_descriptor_list: list[np.ndarray | QueryMatrix],
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> Sweep:
        """Search a query group in *one* sweep over the cache (Sec. 5.3
        extension) — the engine's only read path and the serving tier's
        unit of work.

        Every reference batch is transferred (H2D) once for the group,
        the GEMMs fuse to ``group * n`` query columns, and the multi-stream
        overlap reads the steps charged at the fused width.  Higher
        throughput, but every answer shares the group's completion time (the
        latency cost the paper warns about — the ``serving`` bench experiment).

        Each member is raw ``(d, count)`` descriptors or a
        :class:`~repro.core.kernels.QueryMatrix` some tier in front
        already prepared (the cluster does, once per request); either
        way the device-side preparation is charged here.  A group of
        one is prepared by the kernel's single-query path
        (any backend; a cascade prefilter stays active); two or more
        need a multi-query backend (the RootSIFT Algorithm-2 pipeline).
        Both give the same matches and simulated time for one query, so
        the group size alone decides.  ``candidate_ids`` (from a
        :mod:`repro.routing` tier) restricts the sweep to the nominated
        references — see :meth:`_execute_sweep`.
        """
        n_queries = len(query_descriptor_list)
        if not n_queries:
            return Sweep()
        if n_queries > 1 and not self.kernel.supports_multiquery:
            raise ValueError(
                "a query group of two or more requires a multi-query backend (the RootSIFT "
                f"Algorithm-2 pipeline); backend {self.backend!r} is not one"
            )
        # prepared before the flush: a rejected query must not seal the pending batch
        if n_queries == 1:
            query = self.kernel.prepare_query(self.device, query_descriptor_list[0])
        else:
            query = self.kernel.prepare_query_many(self.device, query_descriptor_list)
        self.flush()
        return self._execute_sweep(query, n_queries=n_queries, candidate_ids=candidate_ids)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        reference_descriptors: np.ndarray,
        query_descriptors: np.ndarray,
    ) -> tuple[bool, int]:
        """One-to-one verification: ``(same_texture, good_matches)``.

        The pair goes straight to the kernel — its prefilter, if it has
        one, then ``match_batch`` on a transient one-image batch — and
        pays what one such image pays inside a sweep."""
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
        # not a sweep: nothing cached is touched, no search is counted and —
        # a 1:1 verification is never sheddable — no deadline is consulted
        self.device.synchronize()
        survivors = None
        if self.kernel.has_prefilter:
            survivors = self.kernel.prefilter_batch(self.device, transient, query)
        match = self.kernel.match_batch(self.device, transient, query, survivors=survivors)[0]
        self.device.synchronize()
        return match.good_matches >= cfg.min_matches, match.good_matches

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def profile_report(self) -> str:
        """Per-step simulated-time breakdown of this engine's work so
        far, formatted like the paper's Table 1/3 rows.

        Covers every search/verify since construction (or the last
        :meth:`reset_profile`); per-image means use the number of image
        comparisons performed *in the profiled window*.
        """
        from ..bench.tables import format_table

        images = max(self.images_since_profile_reset, 1)
        rows = []
        total = 0.0
        for record in self.device.profiler.records():
            rows.append(
                [record.name, round(record.total_us, 1),
                 round(record.total_us / images, 3), record.calls]
            )
            total += record.total_us
        rows.append(["TOTAL", round(total, 1), round(total / images, 3), ""])
        header = (
            f"{self.device.spec.name} | {self.config.precision} {self.kernel.describe()}"
            f" | m={self.config.m} n={self.config.n} batch={self.config.batch_size}"
        )
        return format_table(
            ["step", "total (us)", "us/image", "calls"], rows, title=header
        )

    @property
    def images_since_profile_reset(self) -> int:
        """Image comparisons performed since the last :meth:`reset_profile`."""
        return self.stats.images_compared - self._images_at_profile_reset

    def reset_profile(self) -> None:
        """Clear the step profiler and simulated clock (stats survive,
        but profile-report means restart from this point)."""
        self.device.reset_timing()
        self._images_at_profile_reset = self.stats.images_compared
