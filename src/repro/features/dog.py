"""Difference-of-Gaussian extrema detection and sub-pixel refinement.

Implements the detection half of Lowe's SIFT: DoG stacks per octave,
26-neighbour extrema, quadratic (3-D Taylor) localisation, contrast and
edge-response rejection.  All heavy steps are vectorised; the per-
candidate refinement loops only over the (small) candidate set.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianPyramid
from .keypoints import Keypoint

__all__ = ["build_dog", "detect_keypoints", "DEFAULT_CONTRAST_THRESHOLD", "DEFAULT_EDGE_RATIO"]

DEFAULT_CONTRAST_THRESHOLD = 0.03
DEFAULT_EDGE_RATIO = 10.0


def build_dog(pyramid: GaussianPyramid) -> list[np.ndarray]:
    """Per-octave DoG stacks of shape ``(levels - 1, H, W)``."""
    dogs = []
    for octave in pyramid.octaves:
        stack = np.stack(octave, axis=0)
        dogs.append(stack[1:] - stack[:-1])
    return dogs


def _find_extrema(dog: np.ndarray, threshold: float) -> np.ndarray:
    """Candidate (layer, y, x) indices of 26-neighbour extrema.

    Only interior layers can host extrema.  The pre-threshold at 80 % of
    the contrast threshold mirrors Lowe's implementation: weak extrema
    are discarded before the expensive refinement.
    """
    from scipy import ndimage  # image-pipeline only: keeps SciPy off the search path

    pre = 0.8 * threshold
    maxf = ndimage.maximum_filter(dog, size=3, mode="nearest")
    minf = ndimage.minimum_filter(dog, size=3, mode="nearest")
    is_ext = ((dog == maxf) | (dog == minf)) & (np.abs(dog) > pre)
    is_ext[0] = False
    is_ext[-1] = False
    # Exclude the one-pixel image border (refinement needs neighbours).
    is_ext[:, :1, :] = False
    is_ext[:, -1:, :] = False
    is_ext[:, :, :1] = False
    is_ext[:, :, -1:] = False
    return np.argwhere(is_ext)


def _quadratic_fit(dog: np.ndarray, layer: int, y: int, x: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Gradient/Hessian Taylor fit at one sample; returns
    ``(offset, refined_value, hessian_xy)``."""
    d = dog
    g = np.array(
        [
            (d[layer, y, x + 1] - d[layer, y, x - 1]) / 2.0,
            (d[layer, y + 1, x] - d[layer, y - 1, x]) / 2.0,
            (d[layer + 1, y, x] - d[layer - 1, y, x]) / 2.0,
        ]
    )
    dxx = d[layer, y, x + 1] - 2 * d[layer, y, x] + d[layer, y, x - 1]
    dyy = d[layer, y + 1, x] - 2 * d[layer, y, x] + d[layer, y - 1, x]
    dss = d[layer + 1, y, x] - 2 * d[layer, y, x] + d[layer - 1, y, x]
    dxy = (
        d[layer, y + 1, x + 1]
        - d[layer, y + 1, x - 1]
        - d[layer, y - 1, x + 1]
        + d[layer, y - 1, x - 1]
    ) / 4.0
    dxs = (
        d[layer + 1, y, x + 1]
        - d[layer + 1, y, x - 1]
        - d[layer - 1, y, x + 1]
        + d[layer - 1, y, x - 1]
    ) / 4.0
    dys = (
        d[layer + 1, y + 1, x]
        - d[layer + 1, y - 1, x]
        - d[layer - 1, y + 1, x]
        + d[layer - 1, y - 1, x]
    ) / 4.0
    h = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
    try:
        offset = -np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        offset = np.zeros(3)
    value = d[layer, y, x] + 0.5 * float(g @ offset)
    return offset, value, np.array([[dxx, dxy], [dxy, dyy]])


def _passes_edge_test(h2: np.ndarray, edge_ratio: float) -> bool:
    """Reject edge-like responses via the principal-curvature ratio."""
    tr = h2[0, 0] + h2[1, 1]
    det = h2[0, 0] * h2[1, 1] - h2[0, 1] * h2[1, 0]
    if det <= 0:
        return False
    r = edge_ratio
    return (tr * tr) / det < ((r + 1.0) ** 2) / r


def detect_keypoints(
    pyramid: GaussianPyramid,
    contrast_threshold: float = DEFAULT_CONTRAST_THRESHOLD,
    edge_ratio: float = DEFAULT_EDGE_RATIO,
    max_refine_steps: int = 3,
) -> list[Keypoint]:
    """Detect refined DoG keypoints across all octaves.

    ``response`` is ``|refined DoG value|`` — the quantity the asymmetric
    extractor ranks by when keeping the strongest ``m`` features.
    """
    dogs = build_dog(pyramid)
    intervals = pyramid.intervals
    keypoints: list[Keypoint] = []
    for octave_idx, dog in enumerate(dogs):
        n_layers, h, w = dog.shape
        for layer, y, x in _find_extrema(dog, contrast_threshold):
            layer, y, x = int(layer), int(y), int(x)
            converged = False
            for _ in range(max_refine_steps):
                offset, value, h2 = _quadratic_fit(dog, layer, y, x)
                if np.all(np.abs(offset) < 0.5):
                    converged = True
                    break
                x += int(np.round(offset[0]))
                y += int(np.round(offset[1]))
                layer += int(np.round(offset[2]))
                if not (1 <= layer < n_layers - 1 and 1 <= y < h - 1 and 1 <= x < w - 1):
                    break
            if not converged:
                continue
            if abs(value) < contrast_threshold:
                continue
            if not _passes_edge_test(h2, edge_ratio):
                continue
            scale_factor = 2.0**octave_idx
            refined_layer = layer + float(offset[2])
            sigma = pyramid.sigma0 * (2.0 ** (octave_idx + refined_layer / intervals))
            keypoints.append(
                Keypoint(
                    x=(x + float(offset[0])) * scale_factor,
                    y=(y + float(offset[1])) * scale_factor,
                    sigma=float(sigma),
                    response=float(abs(value)),
                    octave=octave_idx,
                    layer=layer,
                )
            )
    return keypoints
