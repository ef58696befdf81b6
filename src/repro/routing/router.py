"""Coarse candidate routing — the first tier of two-tier retrieval.

Today every query fans out to every shard and the paper's exact
per-image 2-NN sweeps every cached reference, so cost grows linearly
with corpus and fleet size.  This module adds the small global first
tier of FAISS-style billion-scale search (Johnson et al.) and the
coarse-to-fine pruning of GPU Cascade Hashing (Xu et al.): a
:class:`CandidateRouter` maps a query to a *ranked* set of candidate
shards and per-shard candidate reference ids, and the cluster
scatter-gathers only the nominees while each engine restricts its
exact sweep to the nominated reference batches.

Both routers operate on **pooled per-image descriptors**: the ``(d,
count)`` SIFT matrix of an image is mean-pooled over the feature axis
and L2-normalised to one unit vector per image, so the global tier
holds ``n_images`` vectors instead of ``n_images * count`` — small
enough to live (conceptually) on the web tier.  Pooling averages away
per-feature noise (a perturbed query's pooled vector concentrates
near its reference's at roughly ``sigma / sqrt(count)``), which is
why tiny probe counts reach high recall in the ``routing`` bench.

Two implementations, both reusing the baseline machinery:

* :class:`IvfCandidateRouter` — IVF coarse quantisation: k-means
  (:func:`repro.baselines.cbir_ivf.kmeans`) over the pooled vectors;
  a query probes its ``nprobe`` nearest centroid lists.
* :class:`LshCandidateRouter` — LSH banding over
  :class:`repro.baselines.lsh.LshCodec` sign bits: signatures are
  split into bands and an image is nominated when enough of its bands
  collide with the query's.  ``nprobe`` relaxes the required band
  matches (the codec analogue of probing more lists).

Routing is *advisory and safe*: an empty nomination falls back to the
exhaustive path (``RouteDecision.exhaustive``), a router-disabled
cluster is bit-identical to the pre-routing system, and nominated
shards that are down degrade exactly like the exhaustive path (see
``docs/routing.md``).
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..baselines.cbir_ivf import kmeans
from ..baselines.lsh import LshCodec
from ..features.binarize import unpack_bits
from ..obs import Observability, default_tracer

__all__ = [
    "CandidateRouter",
    "IvfCandidateRouter",
    "LshCandidateRouter",
    "RouteDecision",
    "RouterPolicy",
    "build_router",
    "pool_descriptors",
]

_TRACER = default_tracer()

#: candidate-count buckets (images nominated per query).
_CANDIDATE_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 4096.0, 16384.0,
)


def pool_descriptors(descriptors: np.ndarray) -> np.ndarray:
    """``(d, count)`` descriptor matrix -> one L2-normalised ``(d,)``
    pooled vector (mean over the feature axis).

    The routing tier indexes images, not features: pooling collapses
    an image's descriptor cloud to its centroid direction, which is
    stable under the per-feature noise the 2-NN ratio test absorbs.
    """
    descriptors = np.asarray(descriptors, dtype=np.float32)
    if descriptors.ndim != 2 or descriptors.shape[1] == 0:
        raise ValueError(f"descriptors must be (d, count>0), got {descriptors.shape}")
    pooled = descriptors.mean(axis=1)
    norm = float(np.linalg.norm(pooled))
    if norm > 0.0:
        pooled = pooled / np.float32(norm)
    return pooled.astype(np.float32)


@dataclass(frozen=True)
class RouterPolicy:
    """Configuration of the coarse routing tier.

    ``kind`` selects the implementation (``"ivf"`` or ``"lsh"``).
    ``nprobe`` is the accuracy/cost knob: IVF probes that many coarse
    lists; LSH lowers its required band matches by ``nprobe - 1``
    (floored at one collision).  ``recall_target`` (when set)
    overrides ``nprobe`` through the router's calibration table — see
    :meth:`CandidateRouter.resolve_nprobe`.  Per-request overrides of
    either knob flow through the cluster/serving/web tiers.
    """

    kind: str = "ivf"
    nprobe: int = 1
    recall_target: float | None = None
    #: IVF: number of coarse k-means lists (clamped to the corpus size).
    n_lists: int = 16
    #: LSH: signature bits and bits per band.
    n_bits: int = 256
    band_bits: int = 8
    #: LSH: band collisions required at nprobe=1; each extra probe
    #: relaxes the threshold by one, flooring at the classic
    #: OR-of-bands threshold of a single collision.
    band_matches: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ivf", "lsh"):
            raise ValueError(f"unknown router kind {self.kind!r}")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.recall_target is not None and not 0.0 < self.recall_target <= 1.0:
            raise ValueError("recall_target must be in (0, 1]")
        if self.n_lists < 1:
            raise ValueError("n_lists must be >= 1")
        if self.n_bits < 8:
            raise ValueError("n_bits must be >= 8")
        if not 1 <= self.band_bits <= self.n_bits:
            raise ValueError("band_bits must be in [1, n_bits]")
        if self.band_matches < 1:
            raise ValueError("band_matches must be >= 1")


@dataclass
class RouteDecision:
    """One query's (or query group's) first-tier nomination.

    ``shard_ids`` is ranked best-first; ``per_shard`` maps each
    nominated shard to its ranked candidate reference ids;
    ``candidate_ids`` is the global ranked candidate list.
    ``exhaustive`` marks the safety fallback: the router could not
    nominate (untrained, empty corpus, or no collisions), and the
    caller must run the full scatter-gather instead.
    """

    candidate_ids: list[str] = field(default_factory=list)
    shard_ids: list[str] = field(default_factory=list)
    per_shard: dict[str, list[str]] = field(default_factory=dict)
    nprobe_used: int = 0
    exhaustive: bool = False
    #: router mutation epoch the nomination was computed against —
    #: enrolment debugging: a decision tagged with an older epoch than
    #: the corpus means the router had not absorbed a mutation yet.
    corpus_epoch: int = 0

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)

    @staticmethod
    def merge(decisions: list["RouteDecision"]) -> "RouteDecision":
        """Union of per-query decisions for a fused query group.

        A group shares one fan-out, so the merged nomination is the
        union; rank order is by each candidate's best (lowest) rank
        across the group, ties broken by first appearance.  Any
        exhaustive member makes the merge exhaustive.
        """
        if not decisions:
            return RouteDecision(exhaustive=True)
        epoch = max(d.corpus_epoch for d in decisions)
        if any(d.exhaustive for d in decisions):
            return RouteDecision(
                exhaustive=True,
                nprobe_used=max(d.nprobe_used for d in decisions),
                corpus_epoch=epoch,
            )
        best_rank: dict[str, int] = {}
        seen: dict[str, int] = {}
        owner: dict[str, str] = {}
        for decision in decisions:
            for shard, refs in decision.per_shard.items():
                for ref in refs:
                    owner[ref] = shard
            for rank, ref in enumerate(decision.candidate_ids):
                if ref not in seen:
                    seen[ref] = len(seen)
                best_rank[ref] = min(best_rank.get(ref, rank), rank)
        merged = sorted(best_rank, key=lambda r: (best_rank[r], seen[r]))
        per_shard: dict[str, list[str]] = {}
        shard_ids: list[str] = []
        for ref in merged:
            shard = owner[ref]
            if shard not in per_shard:
                per_shard[shard] = []
                shard_ids.append(shard)
            per_shard[shard].append(ref)
        return RouteDecision(
            candidate_ids=merged,
            shard_ids=shard_ids,
            per_shard=per_shard,
            nprobe_used=max(d.nprobe_used for d in decisions),
            corpus_epoch=epoch,
        )


class CandidateRouter(ABC):
    """Protocol of the coarse routing tier.

    Lifecycle: :meth:`add` / :meth:`remove` / :meth:`reassign` mirror
    the cluster's placement mutations.  Once an index exists, single
    mutations refresh it *incrementally* (IVF appends to the nearest
    coarse list, LSH re-bands one signature row) instead of rebuilding
    — a full :meth:`fit` happens only on first build, on an explicit
    call, or when an implementation decides its structure degraded
    enough to compact.  Every mutation bumps :attr:`epoch`, which
    nominations carry on ``RouteDecision.corpus_epoch``.
    """

    def __init__(
        self, policy: RouterPolicy, d: int = 128, obs: Observability | None = None
    ) -> None:
        registry = (obs or Observability()).registry
        self._nominations = registry.counter(
            "repro_router_nominations_total",
            "Router nominations by implementation and outcome "
            "(routed = a proper candidate subset, exhaustive = fallback to a full sweep)",
            ("kind", "outcome"),
        )
        self._candidates = registry.histogram(
            "repro_router_candidates_examined",
            "Candidate reference images nominated per query (the second tier "
            "sweeps only these)",
            ("kind",),
            buckets=_CANDIDATE_BUCKETS,
        )
        self._overhead_us = registry.histogram(
            "repro_router_overhead_us",
            "Host wall-clock spent inside CandidateRouter.nominate (the first "
            "tier runs on the web tier, outside the simulated GPU clock)",
            ("kind",),
        )
        self._refreshes = registry.counter(
            "repro_router_refresh_total",
            "Routing-index refreshes: incremental absorb/retract of one "
            "reference vs a full rebuild of the coarse structure",
            ("kind", "mode"),
        )
        self.policy = policy
        self.d = int(d)
        #: insertion-ordered ref -> pooled (d,) vector.
        self._pooled: dict[str, np.ndarray] = {}
        #: ref -> owning shard id.
        self._shard_of: dict[str, str] = {}
        self._dirty = True
        #: monotonic mutation counter (add/remove/reassign).
        self.epoch = 0
        #: recall calibration: sorted (nprobe, measured recall) pairs
        #: from the ``routing`` bench, consulted by recall targets.
        self._calibration: list[tuple[int, float]] = []

    # -- corpus lifecycle ----------------------------------------------
    def add(self, ref_id: str, descriptors: np.ndarray, shard_id: str) -> None:
        """Enrol (or update) one reference image's pooled vector."""
        ref_id = str(ref_id)
        if ref_id in self._pooled:
            self._retract(ref_id)
        self._pooled[ref_id] = pool_descriptors(descriptors)
        self._shard_of[ref_id] = str(shard_id)
        self._absorb(ref_id)
        self.epoch += 1

    def remove(self, ref_id: str) -> bool:
        ref_id = str(ref_id)
        if ref_id not in self._pooled:
            return False
        self._retract(ref_id)
        del self._pooled[ref_id]
        del self._shard_of[ref_id]
        self.epoch += 1
        return True

    def reassign(self, ref_id: str, shard_id: str) -> None:
        """Repoint a reference to a new shard (failover re-hydration);
        the routing index itself is unchanged."""
        ref_id = str(ref_id)
        if ref_id in self._shard_of:
            self._shard_of[ref_id] = str(shard_id)
            self.epoch += 1

    # -- incremental refresh hooks --------------------------------------
    def _absorb(self, ref_id: str) -> None:
        """Fold one just-added pooled vector into the live index.

        The default marks the index dirty (full rebuild on the next
        nomination); implementations override with an O(1)-ish
        incremental insert once an index exists.
        """
        self._dirty = True

    def _retract(self, ref_id: str) -> None:
        """Drop one reference from the live index (pooled vector still
        present when called).  Default: full rebuild on next use."""
        self._dirty = True

    @property
    def n_images(self) -> int:
        return len(self._pooled)

    # -- recall calibration --------------------------------------------
    def set_calibration(self, pairs: list[tuple[int, float]]) -> None:
        """Install measured ``(nprobe, recall)`` pairs (from the
        ``routing`` bench experiment) used to resolve recall targets."""
        self._calibration = sorted(
            (max(1, int(nprobe)), float(recall)) for nprobe, recall in pairs
        )

    def resolve_nprobe(
        self, nprobe: int | None = None, recall_target: float | None = None
    ) -> int:
        """Effective probe count for one request.

        Explicit ``nprobe`` wins; else a ``recall_target`` (request- or
        policy-level) picks the smallest calibrated nprobe whose
        measured recall reaches the target.  An *uncalibrated* recall
        target degrades safely to near-exhaustive probing
        (``ceil(target * max_nprobe)``) — feed :meth:`set_calibration`
        from the routing bench to unlock small probe counts.
        """
        if nprobe is not None:
            return max(1, int(nprobe))
        target = recall_target if recall_target is not None else self.policy.recall_target
        if target is None:
            return self.policy.nprobe
        for cal_nprobe, cal_recall in self._calibration:
            if cal_recall >= target:
                return cal_nprobe
        return max(1, math.ceil(target * self.max_nprobe))

    @property
    @abstractmethod
    def max_nprobe(self) -> int:
        """The nprobe beyond which probing is exhaustive."""

    # -- nomination -----------------------------------------------------
    @abstractmethod
    def _rebuild(self) -> None:
        """(Re)build the routing index from the pooled corpus."""

    @abstractmethod
    def _nominate(self, pooled_query: np.ndarray, nprobe: int) -> list[str]:
        """Ranked candidate ref ids for one pooled query vector."""

    def fit(self) -> None:
        """Eagerly (re)build the routing index from scratch."""
        self._rebuild()
        self._dirty = False
        self._refreshes.labels(kind=self.kind, mode="rebuild").inc()

    @property
    def kind(self) -> str:
        return self.policy.kind

    def nominate(
        self,
        query_descriptors: np.ndarray,
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> RouteDecision:
        """Map one query descriptor matrix to a :class:`RouteDecision`.

        Overhead is measured in *host* wall-clock (the first tier is a
        web-tier structure, not simulated GPU work) and recorded in the
        ``repro_router_overhead_us`` histogram; the decision itself is
        deterministic for a given corpus, policy, and query.
        """
        started = time.perf_counter_ns()
        with _TRACER.span("router.nominate", layer="routing", kind=self.kind) as span:
            effective = self.resolve_nprobe(nprobe, recall_target)
            if self._dirty:
                self.fit()
            if not self._pooled:
                decision = RouteDecision(
                    exhaustive=True, nprobe_used=effective,
                    corpus_epoch=self.epoch,
                )
            else:
                ranked = self._nominate(pool_descriptors(query_descriptors), effective)
                if not ranked:
                    decision = RouteDecision(
                        exhaustive=True, nprobe_used=effective,
                        corpus_epoch=self.epoch,
                    )
                else:
                    per_shard: dict[str, list[str]] = {}
                    shard_ids: list[str] = []
                    for ref in ranked:
                        shard = self._shard_of[ref]
                        if shard not in per_shard:
                            per_shard[shard] = []
                            shard_ids.append(shard)
                        per_shard[shard].append(ref)
                    decision = RouteDecision(
                        candidate_ids=ranked,
                        shard_ids=shard_ids,
                        per_shard=per_shard,
                        nprobe_used=effective,
                        corpus_epoch=self.epoch,
                    )
            outcome = "exhaustive" if decision.exhaustive else "routed"
            self._nominations.labels(kind=self.kind, outcome=outcome).inc()
            if not decision.exhaustive:
                self._candidates.labels(kind=self.kind).observe(decision.n_candidates)
            self._overhead_us.labels(kind=self.kind).observe(
                (time.perf_counter_ns() - started) / 1_000.0
            )
            if span is not None:
                span.set(
                    nprobe=decision.nprobe_used,
                    candidates=decision.n_candidates,
                    shards=len(decision.shard_ids),
                    exhaustive=decision.exhaustive,
                )
        return decision

    def nominate_group(
        self,
        query_descriptor_list: list[np.ndarray],
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> RouteDecision:
        """Merged nomination for a fused query group (one fan-out)."""
        return RouteDecision.merge(
            [self.nominate(q, nprobe, recall_target) for q in query_descriptor_list]
        )


class IvfCandidateRouter(CandidateRouter):
    """IVF coarse-centroid router.

    K-means over the pooled per-image vectors partitions the corpus
    into ``n_lists`` inverted lists; a query probes the ``nprobe``
    centroids nearest its pooled vector and nominates every image in
    those lists, ranked by list order then by pooled-vector distance
    to the query.
    """

    def __init__(
        self, policy: RouterPolicy, d: int = 128, obs: Observability | None = None
    ) -> None:
        super().__init__(policy, d, obs)
        self._centroids: np.ndarray | None = None
        self._lists: list[list[str]] = []
        #: ref -> index of the coarse list holding it.
        self._list_of: dict[str, int] = {}

    @property
    def max_nprobe(self) -> int:
        if self._centroids is not None:
            return len(self._centroids)
        return self.policy.n_lists

    def _rebuild(self) -> None:
        if not self._pooled:
            self._centroids = None
            self._lists = []
            self._list_of = {}
            return
        ref_ids = list(self._pooled)
        pooled = np.stack([self._pooled[r] for r in ref_ids])
        k = min(self.policy.n_lists, len(ref_ids))
        self._centroids = kmeans(pooled, k, seed=self.policy.seed)
        d2 = (
            np.einsum("nd,nd->n", pooled, pooled)[:, None]
            - 2.0 * pooled @ self._centroids.T
            + np.einsum("kd,kd->k", self._centroids, self._centroids)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        self._lists = [[] for _ in range(k)]
        self._list_of = {}
        for ref, lst in zip(ref_ids, assign):
            self._lists[int(lst)].append(ref)
            self._list_of[ref] = int(lst)

    def _absorb(self, ref_id: str) -> None:
        # incremental enrolment: assign the new pooled vector to its
        # nearest *existing* centroid list — the coarse quantiser is
        # not re-trained per enrolment, only re-used.
        if self._dirty or self._centroids is None:
            self._dirty = True
            return
        vec = self._pooled[ref_id]
        d2 = ((self._centroids - vec[None, :]) ** 2).sum(axis=1)
        lst = int(np.argmin(d2))
        self._lists[lst].append(ref_id)
        self._list_of[ref_id] = lst
        self._refreshes.labels(kind=self.kind, mode="incremental").inc()

    def _retract(self, ref_id: str) -> None:
        if self._dirty or self._centroids is None:
            self._dirty = True
            return
        lst = self._list_of.pop(ref_id, None)
        if lst is None:
            self._dirty = True
            return
        self._lists[lst].remove(ref_id)
        self._refreshes.labels(kind=self.kind, mode="incremental").inc()

    def _nominate(self, pooled_query: np.ndarray, nprobe: int) -> list[str]:
        if self._centroids is None:
            return []
        nprobe = min(nprobe, len(self._centroids))
        d2 = ((self._centroids - pooled_query[None, :]) ** 2).sum(axis=1)
        probe = np.argsort(d2, kind="stable")[:nprobe]
        ranked: list[str] = []
        for lst in probe:
            members = self._lists[int(lst)]
            if not members:
                continue
            vecs = np.stack([self._pooled[r] for r in members])
            member_d2 = ((vecs - pooled_query[None, :]) ** 2).sum(axis=1)
            order = np.argsort(member_d2, kind="stable")
            ranked.extend(members[int(i)] for i in order)
        return ranked


class LshCandidateRouter(CandidateRouter):
    """LSH-banding router.

    Pooled vectors are signed into ``n_bits``-bit signatures
    (:class:`~repro.baselines.lsh.LshCodec`); signatures split into
    bands of ``band_bits``.  An image is nominated when it shares at
    least ``max(1, band_matches + 1 - nprobe)`` band values with the
    query — ``nprobe=1`` demands ``band_matches`` collisions
    (tightest), each extra probe relaxes the threshold by one until
    the classic OR-of-bands rule (any single collision nominates) —
    the codec analogue of probing more IVF lists.  Candidates rank by
    descending band matches, then ascending full-signature Hamming
    distance, then insertion order.
    """

    def __init__(
        self, policy: RouterPolicy, d: int = 128, obs: Observability | None = None
    ) -> None:
        super().__init__(policy, d, obs)
        self._codec: LshCodec | None = None
        self._ref_ids: list[str] = []
        self._codes: np.ndarray | None = None
        self._bands: np.ndarray | None = None
        #: ref -> signature row; rows of removed refs are masked dead
        #: (row deletion would shift every later index) and compacted
        #: by a full rebuild once the majority of rows are dead.
        self._row_of: dict[str, int] = {}
        self._alive: np.ndarray | None = None
        self._dead_rows = 0

    @property
    def n_bands(self) -> int:
        return self.policy.n_bits // self.policy.band_bits

    @property
    def max_nprobe(self) -> int:
        # past this, the threshold is pinned at one collision
        return max(1, self.policy.band_matches)

    def _band_values(self, codes: np.ndarray) -> np.ndarray:
        """``(count, n_words)`` packed signatures -> ``(count, n_bands)``
        integer band values."""
        bits = unpack_bits(codes, self.policy.n_bits)
        width = self.policy.band_bits
        weights = (1 << np.arange(width, dtype=np.uint64))
        bands = np.empty((codes.shape[0], self.n_bands), dtype=np.uint64)
        for band in range(self.n_bands):
            chunk = bits[:, band * width : (band + 1) * width].astype(np.uint64)
            bands[:, band] = chunk @ weights
        return bands

    def _rebuild(self) -> None:
        if not self._pooled:
            self._codec = None
            self._ref_ids = []
            self._codes = None
            self._bands = None
            self._row_of = {}
            self._alive = None
            self._dead_rows = 0
            return
        self._ref_ids = list(self._pooled)
        pooled = np.stack([self._pooled[r] for r in self._ref_ids])  # (count, d)
        self._codec = LshCodec(d=self.d, n_bits=self.policy.n_bits, seed=self.policy.seed)
        self._codec.train(pooled.T)
        self._codes = self._codec.encode(pooled.T)
        self._bands = self._band_values(self._codes)
        self._row_of = {ref: i for i, ref in enumerate(self._ref_ids)}
        self._alive = np.ones(len(self._ref_ids), dtype=bool)
        self._dead_rows = 0

    def _absorb(self, ref_id: str) -> None:
        # incremental enrolment: sign the new pooled vector with the
        # *existing* codec and append one signature/band row.
        if self._dirty or self._codec is None or self._codes is None:
            self._dirty = True
            return
        codes = self._codec.encode(self._pooled[ref_id][:, None])
        self._row_of[ref_id] = len(self._ref_ids)
        self._ref_ids.append(ref_id)
        self._codes = np.vstack([self._codes, codes])
        self._bands = np.vstack([self._bands, self._band_values(codes)])
        self._alive = np.append(self._alive, True)
        self._refreshes.labels(kind=self.kind, mode="incremental").inc()

    def _retract(self, ref_id: str) -> None:
        if self._dirty or self._codec is None or self._alive is None:
            self._dirty = True
            return
        row = self._row_of.pop(ref_id, None)
        if row is None:
            self._dirty = True
            return
        self._alive[row] = False
        self._dead_rows += 1
        self._refreshes.labels(kind=self.kind, mode="incremental").inc()
        if self._dead_rows * 2 > len(self._ref_ids):
            # mostly tombstones: compact with a full rebuild next use
            self._dirty = True

    def _nominate(self, pooled_query: np.ndarray, nprobe: int) -> list[str]:
        if self._codec is None or self._bands is None or self._codes is None:
            return []
        threshold = min(
            max(1, self.policy.band_matches + 1 - nprobe), self.n_bands
        )
        q_codes = self._codec.encode(pooled_query[:, None])
        q_bands = self._band_values(q_codes)[0]
        band_matches = (self._bands == q_bands[None, :]).sum(axis=1)
        eligible = band_matches >= threshold
        if self._alive is not None:
            eligible &= self._alive
        hits = np.nonzero(eligible)[0]
        if hits.size == 0:
            return []
        hamming = self._codec.hamming(q_codes, self._codes[hits])[0]
        order = np.lexsort((hits, hamming, -band_matches[hits]))
        return [self._ref_ids[int(hits[i])] for i in order]


def build_router(
    policy: RouterPolicy, d: int = 128, obs: Observability | None = None
) -> CandidateRouter:
    """Construct the router implementation named by ``policy.kind``,
    metering into ``obs`` (a private handle if omitted)."""
    if policy.kind == "ivf":
        return IvfCandidateRouter(policy, d=d, obs=obs)
    if policy.kind == "lsh":
        return LshCandidateRouter(policy, d=d, obs=obs)
    raise ValueError(f"unknown router kind {policy.kind!r}")
