"""Result types shared across the matching pipeline."""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Answer", "ImageMatch", "KnnResult", "Sweep"]


@dataclass
class KnnResult:
    """Top-k output of one 2-NN computation against one reference image.

    ``distances`` is ``(k, n)`` — row 0 the nearest, row 1 the second
    nearest — and ``indices`` the matching reference-feature indices,
    exactly the sub-matrix step 8 of Algorithm 1 ships back to the host.
    """

    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.distances.shape != self.indices.shape:
            raise ValueError(
                f"distances {self.distances.shape} and indices "
                f"{self.indices.shape} must have the same shape"
            )

    @property
    def k(self) -> int:
        return self.distances.shape[0]

    @property
    def n_query(self) -> int:
        return self.distances.shape[1]


@dataclass
class ImageMatch:
    """Outcome of matching the query against one reference image.

    A kernel labels the match with the image's engine slot (an ``int``);
    the engine's sweep replaces it with the reference's id before any
    caller sees it."""

    reference_id: str | int
    good_matches: int
    n_query_features: int
    match_mask: np.ndarray | None = None
    matched_reference_indices: np.ndarray | None = None
    inliers: int | None = None  # populated by geometric verification

    @classmethod
    def empty(cls, reference_id: str | int, n_query_features: int, keep_masks: bool = False) -> "ImageMatch":
        """The match of a slot its kernel ruled out before comparing it:
        zero good matches, shaped (with ``keep_masks``) like a compared
        image that matched nothing."""
        return cls(
            reference_id=reference_id,
            good_matches=0,
            n_query_features=n_query_features,
            match_mask=np.zeros(n_query_features, dtype=bool) if keep_masks else None,
            matched_reference_indices=np.zeros(0, dtype=np.int32) if keep_masks else None,
        )

    @property
    def score(self) -> int:
        """Ranking score: inlier count when verified, else match count."""
        return self.inliers if self.inliers is not None else self.good_matches


@dataclass(frozen=True)
class Sweep:
    """The header of one search — one engine's pass over its cache, one
    node's, or a cluster's gather folded over its shards — carrying one
    :class:`Answer` per query, in submission order.  Immutable, so the
    answers that share it cannot alias each other's metadata; a field
    added here reaches every answer, from engine to REST.

    ``images_searched`` counts references scanned *once* for the whole
    group.  ``images_skipped`` counts those an expired request deadline
    left unreached (what was scanned matched exactly as a full sweep's
    prefix).  ``images_pruned`` counts those a candidate router kept out
    — a first-tier decision, never :attr:`partial`.  ``cascade_pruned``
    counts those whose exact GEMM a Hamming prefilter skipped (still
    searched).  A gather adds its fan-out: ``retries``, the
    ``unsearched_shards`` it lost (down, timing out, breaker-open, shed by
    brownout or the deadline), the ``unrouted_shards`` a ``routed``
    fan-out did not nominate, ``deadline_expired`` when the deadline
    skipped a shard or cut a sweep, and ``shard_epochs``: each answering
    shard's index epoch, read as the :attr:`corpus_epoch` map — the
    read-your-writes handle a client compares with its
    :class:`~repro.distributed.enrollment.EnrollmentAck`.
    """

    answers: tuple[Answer, ...] = ()
    elapsed_us: float = 0.0
    images_searched: int = 0
    images_skipped: int = 0
    images_pruned: int = 0
    cascade_pruned: int = 0
    retries: int = 0
    unsearched_shards: tuple[str, ...] = ()
    unrouted_shards: tuple[str, ...] = ()
    routed: bool = False
    deadline_expired: bool = False
    shard_epochs: tuple[tuple[str, int], ...] = ()

    @property
    def corpus_epoch(self) -> dict[str, int]:
        """:attr:`shard_epochs` as a shard -> epoch dict (a fresh copy)."""
        return dict(self.shard_epochs)

    @property
    def partial(self) -> bool:
        """Some shard went unanswered or the deadline cut the search short."""
        return bool(self.unsearched_shards) or self.deadline_expired

    @property
    def images_per_s(self) -> float:
        """Reference images one query was compared with per simulated second."""
        return self.images_searched / (self.elapsed_us * 1e-6) if self.elapsed_us > 0 else 0.0

    @property
    def pairs_per_s(self) -> float:
        """(reference, query) pairs the whole group compared per simulated second."""
        pairs = self.images_searched * len(self.answers)
        return pairs / (self.elapsed_us * 1e-6) if self.elapsed_us > 0 else 0.0

    def carrying(self, matches: Iterable[list[ImageMatch]]) -> Sweep:
        """This header carrying one answer per query's match list."""
        return replace(self, answers=tuple(Answer(m, self) for m in matches))


@dataclass(frozen=True)
class Answer:
    """One query's matches, ranked by :meth:`top` / :meth:`best`; every
    other field is read through :attr:`sweep`, the header the query was
    answered under (a header carries no answers of its own)."""

    matches: list[ImageMatch]
    sweep: Sweep

    def __getattr__(self, name: str):
        if name == "sweep" or name.startswith("__"):  # not set yet while copying
            raise AttributeError(name)
        return getattr(self.sweep, name)

    def top(self, count: int = 1) -> list[ImageMatch]:
        """Best ``count`` reference images by score (descending); a score
        tie goes to the smallest id, whichever shard answered first."""
        return heapq.nsmallest(count, self.matches, key=lambda m: (-m.score, m.reference_id))

    def best(self) -> ImageMatch | None:
        top = self.top(1)
        return top[0] if top else None
