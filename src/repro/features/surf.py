"""Simplified SURF feature extraction (Bay et al. 2008).

The paper uses SIFT throughout but calls out SURF's 64-dimensional
descriptors as the alternative (`d is 64 for SURF`, Sec. 4.1); the
engine is dimension-agnostic, so this extractor lets the whole stack
run at d=64 with half the GEMM work per comparison.

Implementation follows the original at "reproduction" fidelity:

* **detection** — determinant of the box-filter-approximated Hessian on
  integral images, over a scale stack (9, 15, 21, 27, ... lobes), 3-D
  non-maximum suppression;
* **orientation** — dominant direction of Gaussian-weighted Haar
  responses in a circular window (sliding-arc step simplified to the
  argmax of binned response vectors);
* **descriptor** — 4x4 subregions of (sum dx, sum |dx|, sum dy,
  sum |dy|) Haar statistics, L2-normalised then scaled to norm 512 to
  match the engine's SIFT conventions (one FP16 scale factor serves
  both descriptor types).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integral import BoxFilter, box_sum, integral_image
from .keypoints import Keypoint
from .selection import select_top_features

__all__ = ["SURFConfig", "SURFExtractor", "SURF_DESCRIPTOR_DIM"]

SURF_DESCRIPTOR_DIM = 64
DESCRIPTOR_L2_NORM = 512.0

def _hessian_filters(lobe: int) -> tuple[BoxFilter, BoxFilter, BoxFilter]:
    """(Dyy, Dxx, Dxy) box approximations with lobe size ``lobe``.

    Box bounds are half-open ``[y0, y1) x [x0, x1)`` offsets from the
    evaluation pixel.  For (odd) lobe L the filter spans ``3L`` rows
    (``b = (3L)//2`` each side) and ``2L - 1`` columns — the standard
    9x9 layout at L=3, scaled.
    """
    b = (3 * lobe) // 2
    x0, x1 = -(lobe - 1), lobe  # 2L-1 columns
    # Dyy: three stacked boxes (+1, -2, +1), each L rows tall.
    dyy = BoxFilter(
        [
            (-b, x0, -b + lobe, x1, 1.0),
            (-b + lobe, x0, -b + 2 * lobe, x1, -2.0),
            (-b + 2 * lobe, x0, b + 1, x1, 1.0),
        ]
    )
    # Dxx is Dyy transposed (swap the axis roles of every box).
    dxx = BoxFilter([(bx0, by0, bx1, by1, w) for by0, bx0, by1, bx1, w in dyy.boxes])
    # Dxy: four L x L quadrant boxes with a one-pixel cross-shaped gap.
    dxy = BoxFilter(
        [
            (-lobe, 1, 0, lobe + 1, +1.0),
            (-lobe, -lobe, 0, 0, -1.0),
            (1, -lobe, lobe + 1, 0, +1.0),
            (1, 1, lobe + 1, lobe + 1, -1.0),
        ]
    )
    return dyy, dxx, dxy


@dataclass(frozen=True)
class SURFConfig:
    """Extractor knobs."""

    n_features: int = 768
    n_scales: int = 4
    hessian_threshold: float = 1e-4
    step: int = 1

    def __post_init__(self) -> None:
        if self.n_features <= 0 or self.n_scales < 2:
            raise ValueError("need n_features > 0 and n_scales >= 2")


class SURFExtractor:
    """Extract 64-D SURF descriptors from grayscale images."""

    def __init__(self, config: SURFConfig | None = None) -> None:
        self.config = config or SURFConfig()
        #: lobe sizes of the scale stack: 3, 5, 7, 9, ... (filters 9,
        #: 15, 21, 27 px), as in the first SURF octave.
        self.lobes = [3 + 2 * i for i in range(self.config.n_scales)]

    # ------------------------------------------------------------------
    def _hessian_stack(self, ii: np.ndarray, h: int, w: int) -> np.ndarray:
        stack = np.zeros((len(self.lobes), h, w), dtype=np.float64)
        ys, xs = np.mgrid[0:h, 0:w]
        for si, lobe in enumerate(self.lobes):
            dyy_f, dxx_f, dxy_f = _hessian_filters(lobe)
            area = (3 * lobe) ** 2
            dyy = dyy_f.apply(ii, ys, xs) / area
            dxx = dxx_f.apply(ii, ys, xs) / area
            dxy = dxy_f.apply(ii, ys, xs) / area
            stack[si] = dxx * dyy - (0.9 * dxy) ** 2
        return stack

    def _detect(self, image: np.ndarray) -> list[Keypoint]:
        from scipy import ndimage  # image-pipeline only: keeps SciPy off the search path

        h, w = image.shape
        ii = integral_image(image)
        stack = self._hessian_stack(ii, h, w)
        maxf = ndimage.maximum_filter(stack, size=3, mode="nearest")
        is_max = (stack == maxf) & (stack > self.config.hessian_threshold)
        is_max[0] = False
        is_max[-1] = False
        border = 3 * self.lobes[-1] // 2 + 1
        is_max[:, :border, :] = False
        is_max[:, -border:, :] = False
        is_max[:, :, :border] = False
        is_max[:, :, -border:] = False
        keypoints = []
        for si, y, x in np.argwhere(is_max):
            lobe = self.lobes[si]
            keypoints.append(
                Keypoint(
                    x=float(x),
                    y=float(y),
                    sigma=0.4 * (3 * lobe),  # SURF scale s = 1.2 * L/9 * 3
                    response=float(stack[si, y, x]),
                    octave=0,
                    layer=int(si),
                )
            )
        return keypoints

    # ------------------------------------------------------------------
    def _haar_responses(
        self, ii: np.ndarray, ys: np.ndarray, xs: np.ndarray, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy) Haar wavelet responses of side ``2 * size``."""
        left = box_sum(ii, ys - size, xs - size, ys + size, xs)
        right = box_sum(ii, ys - size, xs, ys + size, xs + size)
        top = box_sum(ii, ys - size, xs - size, ys, xs + size)
        bottom = box_sum(ii, ys, xs - size, ys + size, xs + size)
        return right - left, bottom - top

    def _orientation(self, ii: np.ndarray, kp: Keypoint) -> float:
        s = max(2, int(round(kp.sigma)))
        radius = 6
        offsets = [(dy, dx) for dy in range(-radius, radius + 1)
                   for dx in range(-radius, radius + 1)
                   if dy * dy + dx * dx <= radius * radius]
        ys = np.array([kp.y + dy * s / 2 for dy, _ in offsets], dtype=np.int64)
        xs = np.array([kp.x + dx * s / 2 for _, dx in offsets], dtype=np.int64)
        dx, dy = self._haar_responses(ii, ys, xs, s)
        weights = np.exp(-np.array([o[0] ** 2 + o[1] ** 2 for o in offsets]) / (2 * 2.5**2))
        angles = np.arctan2(dy, dx)
        bins = ((angles + np.pi) / (2 * np.pi) * 12).astype(np.int64) % 12
        strength = np.hypot(dx, dy) * weights
        hist_x = np.bincount(bins, weights=dx * weights, minlength=12)
        hist_y = np.bincount(bins, weights=dy * weights, minlength=12)
        power = np.bincount(bins, weights=strength, minlength=12)
        best = int(np.argmax(power))
        return float(np.arctan2(hist_y[best], hist_x[best]) % (2 * np.pi))

    def _descriptor(self, ii: np.ndarray, kp: Keypoint, theta: float) -> np.ndarray | None:
        s = max(1, int(round(kp.sigma / 2)))
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        # 20s window: 4x4 subregions of 5x5 samples.
        grid = np.arange(-10, 10) + 0.5
        gy, gx = np.meshgrid(grid, grid, indexing="ij")
        # Rotate sample offsets into image space.
        sample_x = kp.x + (cos_t * gx - sin_t * gy) * s
        sample_y = kp.y + (sin_t * gx + cos_t * gy) * s
        h, w = ii.shape[0] - 1, ii.shape[1] - 1
        if (sample_x.min() < s or sample_y.min() < s
                or sample_x.max() >= w - s or sample_y.max() >= h - s):
            return None
        ys = sample_y.astype(np.int64)
        xs = sample_x.astype(np.int64)
        raw_dx, raw_dy = self._haar_responses(ii, ys, xs, s)
        # Rotate responses into the keypoint frame.
        dx = cos_t * raw_dx + sin_t * raw_dy
        dy = -sin_t * raw_dx + cos_t * raw_dy
        weight = np.exp(-(gx**2 + gy**2) / (2 * 3.3**2))
        dx *= weight
        dy *= weight
        desc = np.zeros((4, 4, 4), dtype=np.float64)
        for by in range(4):
            for bx in range(4):
                block_dx = dx[by * 5 : by * 5 + 5, bx * 5 : bx * 5 + 5]
                block_dy = dy[by * 5 : by * 5 + 5, bx * 5 : bx * 5 + 5]
                desc[by, bx] = (
                    block_dx.sum(),
                    np.abs(block_dx).sum(),
                    block_dy.sum(),
                    np.abs(block_dy).sum(),
                )
        flat = desc.reshape(SURF_DESCRIPTOR_DIM)
        norm = np.linalg.norm(flat)
        if norm < 1e-12:
            return None
        return (flat / norm * DESCRIPTOR_L2_NORM).astype(np.float32)

    # ------------------------------------------------------------------
    def extract(self, image: np.ndarray, n_features: int | None = None):
        """Full pipeline; returns an object with ``descriptors`` (64 x
        count, response-ranked) and ``keypoints`` like the SIFT
        extractor's :class:`~repro.features.sift.ExtractionResult`."""
        from .sift import ExtractionResult

        budget = self.config.n_features if n_features is None else int(n_features)
        if budget <= 0:
            raise ValueError("n_features must be positive")
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 3:
            image = image @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
        if image.max() > 1.5:
            image = image / 255.0
        ii = integral_image(image)
        keypoints = self._detect(image)
        columns = []
        kept = []
        for kp in keypoints:
            theta = self._orientation(ii, kp)
            desc = self._descriptor(ii, kp, theta)
            if desc is not None:
                columns.append(desc)
                kept.append(kp.with_orientation(theta))
        if not columns:
            return ExtractionResult(np.zeros((SURF_DESCRIPTOR_DIM, 0), np.float32), [])
        descriptors = np.stack(columns, axis=1)
        descriptors, kept = select_top_features(descriptors, kept, budget)
        return ExtractionResult(descriptors=descriptors, keypoints=kept)
