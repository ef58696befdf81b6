"""Lowe ratio test and match counting (the CPU post-processing stage).

After the 2-NN kernel returns each query feature's nearest and second-
nearest reference distances, a query feature is a *good match* when

    d1 < ratio_threshold * d2

i.e. its best reference neighbour is distinctly closer than the runner-
up.  Two images are declared the same texture when the number of good
matches clears ``min_matches`` (Sec. 3.1).
"""

from __future__ import annotations

import numpy as np

from .results import ImageMatch, KnnResult

__all__ = [
    "ratio_test_mask",
    "batch_ratio_test_masks",
    "match_images",
    "match_images_batch",
]


def ratio_test_mask(distances: np.ndarray, ratio_threshold: float) -> np.ndarray:
    """Boolean mask of query features passing the ratio test.

    ``distances`` is ``(k>=2, n)`` with rows sorted ascending.  A second
    neighbour of zero distance (duplicate features) can never pass,
    matching OpenCV behaviour.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2 or distances.shape[0] < 2:
        raise ValueError(f"expected (k>=2, n) distances, got {distances.shape}")
    if not (0.0 < ratio_threshold < 1.0):
        raise ValueError("ratio_threshold must be in (0, 1)")
    d1 = distances[0]
    d2 = distances[1]
    return d1 < ratio_threshold * d2


def batch_ratio_test_masks(distances: np.ndarray, ratio_threshold: float) -> np.ndarray:
    """Ratio-test masks for a whole batch in one array pass.

    ``distances`` carries any leading batch shape over the per-image
    ``(k>=2, n)`` layout — ``(batch, k, n)`` for a reference batch,
    ``(batch, n_queries, k, n)`` for a fused query group — and the
    returned boolean mask drops the ``k`` axis.  Identical per image to
    :func:`ratio_test_mask`; vectorised so the CPU post-processing of a
    sweep is one pass instead of one call per (image, query) pair.
    """
    distances = np.asarray(distances)
    if distances.ndim < 2 or distances.shape[-2] < 2:
        raise ValueError(
            f"expected (..., k>=2, n) distances, got {distances.shape}"
        )
    if not (0.0 < ratio_threshold < 1.0):
        raise ValueError("ratio_threshold must be in (0, 1)")
    d1 = distances[..., 0, :]
    d2 = distances[..., 1, :]
    return d1 < ratio_threshold * d2


def match_images_batch(reference_ids, distances: np.ndarray, ratio_threshold: float) -> list[ImageMatch]:
    """Per-image :class:`ImageMatch` list for one ``(batch, k, n)``
    2-NN result, with the ratio test and match counting done in a
    single vectorised pass over the whole batch."""
    counts = batch_ratio_test_masks(distances, ratio_threshold).sum(axis=-1)  # (batch,)
    return [ImageMatch(ref_id, int(counts[i])) for i, ref_id in enumerate(reference_ids)]


def match_images(reference_id: str | int, knn: KnnResult, ratio_threshold: float) -> ImageMatch:
    """Build an :class:`ImageMatch` from one reference's 2-NN result."""
    return ImageMatch(reference_id, int(ratio_test_mask(knn.distances, ratio_threshold).sum()))
