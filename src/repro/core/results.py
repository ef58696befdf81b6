"""Result types shared across the matching pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KnnResult", "ImageMatch", "SearchResult", "GroupSearchResult"]


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
    """Outcome of matching the query against one reference image."""

    reference_id: str
    good_matches: int
    n_query_features: int
    match_mask: np.ndarray | None = None
    matched_reference_indices: np.ndarray | None = None
    inliers: int | None = None  # populated by geometric verification

    @classmethod
    def empty(cls, reference_id: str, n_query_features: int, keep_masks: bool = False) -> "ImageMatch":
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


@dataclass
class SearchResult:
    """Outcome of a one-to-many search.

    ``partial`` is True when the sweep was cut short by an expired
    request deadline (:mod:`repro.obs.reqctx`): the reference batches
    it *did* scan produced exactly the matches a full sweep would have
    (same order, same counts), and ``images_skipped`` counts the cached
    images the sweep never reached.  ``images_pruned`` counts cached
    images *deliberately* not swept because a candidate-routing tier
    (:mod:`repro.routing`) restricted the sweep — pruning is a
    first-tier decision, not a fault, so it never sets ``partial``.
    ``cascade_pruned`` counts images whose exact GEMM a Hamming
    prefilter backend skipped (:mod:`repro.core.cascade`); unlike
    routing prunes they still count into ``images_searched`` — the
    prefilter examined them and they report zero matches.
    """

    matches: list[ImageMatch] = field(default_factory=list)
    elapsed_us: float = 0.0
    images_searched: int = 0
    partial: bool = False
    images_skipped: int = 0
    images_pruned: int = 0
    cascade_pruned: int = 0

    def top(self, count: int = 1) -> list[ImageMatch]:
        """Best ``count`` reference images by score (descending)."""
        return sorted(self.matches, key=lambda m: (-m.score, m.reference_id))[:count]

    def best(self) -> ImageMatch | None:
        top = self.top(1)
        return top[0] if top else None

    @property
    def throughput_images_per_s(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.images_searched / (self.elapsed_us * 1e-6)


@dataclass
class GroupSearchResult:
    """Outcome of one fused query-group sweep (Sec. 5.3 extension).

    ``results`` holds one :class:`SearchResult` per query, in
    submission order; every member shares the group's completion time.
    ``images_searched`` counts cached references scanned *once* —
    the whole point of the group is that the sweep (and its H2D
    traffic) is shared, so pair throughput multiplies by the group
    size.
    """

    results: list[SearchResult] = field(default_factory=list)
    elapsed_us: float = 0.0
    images_searched: int = 0
    partial: bool = False
    images_skipped: int = 0
    images_pruned: int = 0
    cascade_pruned: int = 0

    @property
    def group_size(self) -> int:
        return len(self.results)

    @property
    def pairs_compared(self) -> int:
        """Image comparisons across the whole group."""
        return self.images_searched * self.group_size

    @property
    def throughput_images_per_s(self) -> float:
        """Fused throughput: (reference, query) pairs per second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.pairs_compared / (self.elapsed_us * 1e-6)
