"""Match-kernel backends: the pluggable k-NN math behind the engine.

:class:`~repro.core.engine.TextureSearchEngine` owns the cache, the
batch builder and the sweep loop; everything algorithm-specific —
reference preparation, query preparation and the per-batch 2-NN match —
lives behind the :class:`MatchKernel` interface.  The paper's two
pipelines are :class:`Algorithm1Kernel` (cuBLAS + cached ``N_R`` norms)
and :class:`Algorithm2Kernel` (RootSIFT, norm-free, batched); the
baselines the paper compares against are adapted to the same interface
in :mod:`repro.baselines.adapters`, so they run through the real
engine, hybrid cache and bench harness.

Every exact kernel matches on Algorithm 2's stacked plane (Algorithm 1's
family hands it the norms) and counts its matches with
:func:`stacked_matches`; kernels differ in what they charge.

Query preparation returns an explicit :class:`PreparedQuery` value
that the engine threads through the sweep — kernels hold no per-query
mutable state, which is what makes one engine instance safe to use for
interleaved ``search``/``verify`` calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from ..features.rootsift import l2_normalize, rootsift
from ..features.selection import pad_or_trim
from ..fp16.convert import to_scaled_fp16
from ..gpusim.engine_model import GPUDevice
from ..gpusim.kernels import algorithm1_steps_us, postprocess_us
from .algorithm1 import PreparedFeatures, _attach_norms, prepare_reference, upload_query
from .algorithm2 import _knn_columns, knn_steps
from .batching import ReferenceBatch
from .query_batching import MultiQueryResult, knn_algorithm2_multiquery
from .ratio_test import batch_ratio_test_masks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import EngineConfig

__all__ = [
    "Algorithm1Kernel",
    "Algorithm2Kernel",
    "MatchKernel",
    "NEIGHBOURS",
    "PreparedQuery",
    "QueryMatrix",
    "ReferenceMatrix",
]

#: neighbours every kernel retrieves per query feature: the ratio
#: test's two (the paper always takes k = 2).
NEIGHBOURS = 2


@dataclass(frozen=True)
class QueryMatrix:
    """The output of :meth:`MatchKernel.query_matrix`, marked as such.

    A tier that prepares a query once for many engines (the cluster's
    web tier, Fig. 6) hands each of them this in place of the raw
    descriptors; the engine then does only its device-side share of the
    preparation.  Must come from a kernel of the same configuration.
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class ReferenceMatrix:
    """The enrolment-side twin of :class:`QueryMatrix`: the output of
    :meth:`MatchKernel.prepare_reference`, one preparation for every
    replica that enrols it (``TextureSearchEngine.add_reference``)."""

    matrix: np.ndarray
    norms: np.ndarray | None = None


@dataclass
class PreparedQuery:
    """A query in kernel-ready form, returned by ``prepare_query``.

    ``matrix`` is the engine-precision query matrix — ``(d, n)`` for a
    single query, ``(Q, d, n)`` for a ``prepare_query_many`` group.
    ``aux`` carries kernel-specific extras (Algorithm 1 keeps its
    :class:`PreparedFeatures` with the on-device ``N_Q`` vector here;
    the LSH adapter keeps the query's hash codes).
    """

    matrix: np.ndarray
    aux: Any = None

    @property
    def n_queries(self) -> int:
        return 1 if self.matrix.ndim == 2 else self.matrix.shape[0]


class MatchKernel(ABC):
    """One match-kernel backend.

    A kernel is constructed once per engine with that engine's
    :class:`~repro.core.config.EngineConfig` and must be stateless with
    respect to queries: everything a sweep needs is in the
    :class:`PreparedQuery` it returned.

    Class attributes
    ----------------
    name:
        Registry name (see :mod:`repro.core.registry`).
    needs_norms:
        Whether cached :class:`ReferenceBatch` blocks carry ``N_R``
        squared-norm vectors next to the feature tensors.
    needs_aux:
        Whether cached batches carry a kernel-computed per-image aux
        array (:meth:`reference_aux`) next to the feature tensors —
        the cascade kernel's packed sign-bit codes.  Aux rides inside
        ``ReferenceBatch.nbytes``, so the hybrid cache accounts and
        evicts it with the batch.
    has_prefilter:
        Whether :meth:`prefilter_batch` prunes references ahead of the
        exact match — the engine calls it *before* staging a
        host-resident batch, so a fully-pruned batch never pays its
        H2D transfer.
    supports_multiquery:
        Whether the kernel answers query groups of two or more
        (``TextureSearchEngine.search_group``).

    Every kernel is pre-costed: what matching a batch charges is
    :meth:`batch_steps`, and what it computes is the one functional body
    ``match_batch_multi(None, stack, ...)`` — the sweep charges batch by
    batch and computes the whole stack once.
    """

    name: str = "abstract"
    needs_norms: bool = False
    needs_aux: bool = False
    has_prefilter: bool = False
    supports_multiquery: bool = False

    def __init__(self, config: "EngineConfig") -> None:
        self.config = config

    # -- configuration -------------------------------------------------
    @classmethod
    def validate_config(cls, config: "EngineConfig") -> None:
        """Raise ``ValueError`` when ``config`` cannot drive this kernel."""

    @cached_property
    def image_nbytes(self) -> int:
        """Bytes one cached reference image occupies: what
        :meth:`prepare_reference` (and :meth:`reference_aux`, when
        :attr:`needs_aux`) returns for an image, as a batch holds it —
        capacity counts what the cache stores."""
        matrix, norms = self.prepare_reference(np.zeros((self.config.d, 0), dtype=np.float32))
        aux = self.reference_aux(matrix) if self.needs_aux else None
        return sum(part.nbytes for part in (matrix, norms, aux) if part is not None)

    def describe(self) -> str:
        """Short tag for profile-report headers."""
        return self.name

    # -- shared helpers ------------------------------------------------
    def _check_descriptors(self, descriptors: np.ndarray) -> np.ndarray:
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2 or descriptors.shape[0] != self.config.d:
            raise ValueError(
                f"descriptors must be ({self.config.d}, count), got {descriptors.shape}"
            )
        return descriptors

    def _to_engine_precision(self, matrix: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.precision == "fp16":
            return to_scaled_fp16(matrix, cfg.scale_factor).values
        return np.asarray(matrix, dtype=np.float32)

    # -- reference side ------------------------------------------------
    @abstractmethod
    def prepare_reference(
        self, descriptors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Shape/normalise/quantise one ``(d, count)`` reference matrix.

        Returns the stored representation: the ``(d, m)`` matrix in
        engine precision plus the ``N_R`` vector when
        :attr:`needs_norms` (else ``None``).
        """

    def norms_for_stored(self, matrix: np.ndarray) -> np.ndarray | None:
        """Recover the ``N_R`` vector of an already *stored* matrix.

        Used by ``import_records``: serialized records hold only the
        stored-domain matrix, and norm-free kernels return ``None``.
        """
        return None

    def reference_aux(self, matrix: np.ndarray) -> np.ndarray:
        """Per-image aux array for one *stored* ``(d, m)`` matrix.

        Called by the engine when :attr:`needs_aux`, both at enrolment
        and when re-importing serialized records (aux is deterministic
        given the stored matrix, so it is recomputed, never persisted).
        """
        raise ValueError(f"backend {self.name!r} does not cache aux data")

    # -- prefilter -----------------------------------------------------
    def prefilter_batch(
        self,
        device: GPUDevice,
        batch: ReferenceBatch,
        query: PreparedQuery,
    ) -> np.ndarray | None:
        """Survivor mask (``(batch.size,)`` bool) ahead of the exact
        match, charging the device for the prune test itself.

        ``None`` means "no pruning decision" (all slots survive).  The
        engine does not stage a host-resident batch whose mask is
        all-False, charges :meth:`batch_steps` for the surviving slots
        only, and hands every mask to :meth:`match_batch_multi` as
        ``survivors``, so pruned slots are neither charged nor compared.
        Only called when :attr:`has_prefilter`.
        """
        return None

    # -- query side ----------------------------------------------------
    @abstractmethod
    def query_matrix(self, descriptors: np.ndarray) -> np.ndarray:
        """Pure transform of ``(d, count)`` descriptors to the
        ``(d, n)`` engine-precision query matrix (never charged)."""

    def engine_matrix(self, query: np.ndarray | QueryMatrix) -> np.ndarray:
        """The engine-precision matrix of one query: carried by a
        :class:`QueryMatrix`, computed here from raw descriptors."""
        if isinstance(query, QueryMatrix):
            return query.matrix
        return self.query_matrix(query)

    def prepare_query(self, device: GPUDevice, query: np.ndarray | QueryMatrix) -> PreparedQuery:
        """Full query preparation, charging the device where the paper
        does (e.g. Algorithm 1's query H2D + ``N_Q``)."""
        return PreparedQuery(matrix=self.engine_matrix(query))

    def prepare_query_many(
        self, device: GPUDevice, queries: list[np.ndarray | QueryMatrix]
    ) -> PreparedQuery:
        """Prepare a query *group* for a multi-query sweep."""
        raise ValueError(
            f"backend {self.name!r} does not support query-batched search"
        )

    # -- matching ------------------------------------------------------
    @abstractmethod
    def batch_steps(self, device: GPUDevice, size: int, n_queries: int) -> list[tuple]:
        """All that matching ``size`` images of a batch against ``n_queries``
        queries charges, pre-costed for :meth:`GPUDevice.charge` (pure in
        both sizes).  The sweep charges each swept batch the steps of its
        surviving slots — none for a batch its prefilter emptied — and
        computes every swept batch in one ``match_batch_multi(None, stack, ...)``."""

    def match_batch(self, device: GPUDevice, batch: ReferenceBatch, query: PreparedQuery,
                    survivors: np.ndarray | None = None) -> np.ndarray:
        """Match one prepared query against one reference batch, charged: the
        good-match count of every slot, in slot order.  ``survivors`` is this
        kernel's own :meth:`prefilter_batch` mask (``None`` without a
        prefilter); a slot the mask rules out counts 0 and charges nothing."""
        return self.match_batch_multi(device, batch, query, [survivors])[0]

    @abstractmethod
    def match_batch_multi(self, device: GPUDevice | None, batch: ReferenceBatch | list[ReferenceBatch],
                          query: PreparedQuery,
                          survivors: list[np.ndarray | None] | None = None) -> np.ndarray:
        """The kernel's one functional body: ``(queries, images)`` good-match
        counts of a prepared query (or group) against a batch or a *stack* —
        a list of batches taken in order as the one batch they would
        concatenate to.  ``survivors`` holds each member's prefilter mask (or
        ``None``).  ``device=None``: the sweep has charged every member its
        :meth:`batch_steps`; given a device, the call charges them first."""


def stacked_matches(stack: list[ReferenceBatch], survivors: list[np.ndarray | None] | None,
                    result: MultiQueryResult, ratio: float) -> np.ndarray:
    """The ``(queries, images)`` good-match counts of a stack, in stack
    order, from the plane's ``result``: one row per slot the members'
    ``survivors`` masks keep (a ``None`` mask keeps every slot).  A slot a
    mask rules out counts 0."""
    kept = np.concatenate([np.ones(member.size, dtype=bool) if mask is None else mask
                           for member, mask in zip(stack, survivors or [None] * len(stack))])
    counts = np.zeros((result.n_queries, kept.size), dtype=np.int64)
    # one vectorised ratio-test/count pass over every (image, query) pair
    counts[:, kept] = batch_ratio_test_masks(result.distances, ratio).sum(axis=-1).T
    return counts


class Algorithm2Kernel(MatchKernel):
    """The paper's RootSIFT pipeline.

    Unit-normalised features make the norm vectors vanish; references
    batch into fused GEMMs and the whole sweep is four steps per batch
    (:mod:`repro.core.algorithm2`).  Also the only built-in kernel with
    a fused multi-query path (Sec. 5.3 extension).
    """

    name = "algorithm2"
    needs_norms = False
    supports_multiquery = True

    def describe(self) -> str:
        return f"+ {self.config.normalization}"

    def _unit_normalize(self, descriptors: np.ndarray) -> np.ndarray:
        if not descriptors.size:
            return descriptors
        if self.config.normalization == "rootsift":
            return rootsift(descriptors)
        return l2_normalize(descriptors)

    def prepare_reference(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(self._unit_normalize(descriptors), cfg.m)
        return self._to_engine_precision(matrix), None

    def query_matrix(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(self._unit_normalize(descriptors), cfg.n)
        return self._to_engine_precision(matrix)

    def prepare_query_many(self, device, queries):
        return PreparedQuery(matrix=np.stack([self.engine_matrix(q) for q in queries]))

    def batch_steps(self, device, size, n_queries):
        cfg = self.config
        post = postprocess_us(device.cal, size * n_queries, cfg.precision, cfg.n)
        return knn_steps(device, size, cfg.m, n_queries * cfg.n, cfg.d, NEIGHBOURS, cfg.precision,
                         cfg.tensor_core) + [("cpu", post, "Post-processing")]

    def match_batch(self, device, batch, query, survivors=None):
        return self.match_batch_multi(device, batch, query)[0]

    def match_batch_multi(self, device, batch, query, survivors=None):
        """The kernel's one body.  ``batch`` may be a *stack* — a list of
        batches taken in order as the one batch they would concatenate to
        (``device=None``: the sweep has charged each as its own) — and
        ``query`` a single prepared query, a group of one.  No prefilter:
        every mask in ``survivors`` is ``None``."""
        cfg = self.config
        stack = [batch] if isinstance(batch, ReferenceBatch) else batch
        queries = query.matrix if query.matrix.ndim == 3 else query.matrix[None]
        if device is not None:
            images = sum(member.size for member in stack)
            device.charge(self.batch_steps(device, images, len(queries)))
        result = knn_algorithm2_multiquery(
            None, [member.tensor for member in stack], queries, scale=cfg.effective_scale,
            k=NEIGHBOURS, precision=cfg.precision, tensor_core=cfg.tensor_core, indices=False,
        )
        return stacked_matches(stack, None, result, cfg.ratio_threshold)


class Algorithm1Kernel(MatchKernel):
    """The paper's cuBLAS pipeline.

    Raw descriptors with cached ``N_R`` squared-norm vectors; a batch is
    charged the per-image chain per image compared, because the paper
    batches only the RootSIFT pipeline, but matched in one stacked plane
    call.  The sort is the class's: the paper's register top-2 scan here,
    Garcia et al.'s insertion sort in
    :class:`~repro.baselines.adapters.GarciaKernel`.
    """

    name = "algorithm1"
    needs_norms = True
    #: the top-2 sort the cost model charges (``algorithm1_steps_us``)
    sort_kind = "scan"

    def describe(self) -> str:
        return "(Alg. 1)"

    def prepare_reference(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(descriptors, cfg.m)
        prepared = prepare_reference(matrix, cfg.precision, cfg.effective_scale)
        return prepared.values, prepared.norms

    def norms_for_stored(self, matrix):
        cfg = self.config
        return _attach_norms(matrix, cfg.precision, cfg.effective_scale, None).norms

    def query_matrix(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        # N_Q is the device's, at search time; its FP16 overflow is also checked here, on the
        # host and uncharged as N_R's is, so such a query is refused before any shard sees it
        return prepare_reference(pad_or_trim(descriptors, cfg.n), cfg.precision,
                                 cfg.effective_scale).values

    def prepare_query(self, device, query):
        cfg = self.config
        features = upload_query(
            device, self.engine_matrix(query), cfg.precision, cfg.effective_scale
        )
        return PreparedQuery(matrix=features.values, aux=features)

    def _query_features(self, query: PreparedQuery) -> PreparedFeatures:
        """Where :meth:`prepare_query` left the exact path's features (and ``N_Q``)."""
        return query.aux

    def _norms(self, batch: ReferenceBatch) -> np.ndarray:
        """The ``(size, m)`` ``N_R`` of a batch's images."""
        return batch.norms

    def batch_steps(self, device, size, n_queries):
        cfg = self.config
        return algorithm1_steps_us(device.spec, device.cal, cfg.m, cfg.n, cfg.d, NEIGHBOURS,
                                   cfg.precision, self.sort_kind) * (size * n_queries)

    def match_batch_multi(self, device, batch, query, survivors=None):
        """One query against a stack: only the slots ``survivors`` keeps are
        stacked and compared, each ruled-out slot has no good match,
        and a stack with no survivor makes no plane call."""
        cfg = self.config
        stack = [batch] if isinstance(batch, ReferenceBatch) else batch
        masks = survivors or [None] * len(stack)
        if device is not None:
            compared = sum(m.size if mask is None else int(mask.sum()) for m, mask in zip(stack, masks))
            device.charge(self.batch_steps(device, compared, query.n_queries))
        kept = [(member, slice(None) if mask is None else mask)
                for member, mask in zip(stack, masks) if mask is None or mask.any()]
        dist = np.empty((NEIGHBOURS, 0), dtype=np.float32)
        if kept:
            norms = (np.concatenate([self._norms(member)[rows] for member, rows in kept]),
                     self._query_features(query).norms)
            dist, _ = _knn_columns(None, [member.tensor[rows] for member, rows in kept], query.matrix,
                                   cfg.effective_scale, NEIGHBOURS, cfg.precision, False, False, norms)
        result = MultiQueryResult.from_columns(dist, None, 1, query.matrix.shape[1])
        return stacked_matches(stack, masks, result, cfg.ratio_threshold)
