"""Capture-condition transforms.

The tea-brick dataset "has well considered the diverse image capturing
conditions, such as viewpoints, occlusions, and illuminations"
(Sec. 3.2): references come from industry cameras at the factory,
queries from customer smartphones.  :class:`CaptureSimulator` composes
the corresponding perturbations on a canonical brick texture; the
``reference`` profile is mild, the ``query`` profile aggressive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CaptureProfile", "REFERENCE_PROFILE", "QUERY_PROFILE", "CaptureSimulator"]


@dataclass(frozen=True)
class CaptureProfile:
    """Perturbation magnitudes for one camera class."""

    max_rotation_deg: float
    max_scale_delta: float
    max_shift_frac: float
    max_perspective: float
    illumination_gain_range: tuple[float, float]
    illumination_gradient: float
    occlusion_prob: float
    max_occlusion_frac: float
    noise_sigma: float
    blur_sigma: float


#: factory capture: rigidly mounted industry camera, controlled light.
REFERENCE_PROFILE = CaptureProfile(
    max_rotation_deg=2.0,
    max_scale_delta=0.02,
    max_shift_frac=0.01,
    max_perspective=0.0,
    illumination_gain_range=(0.95, 1.05),
    illumination_gradient=0.02,
    occlusion_prob=0.0,
    max_occlusion_frac=0.0,
    noise_sigma=0.004,
    blur_sigma=0.0,
)

#: customer capture: handheld smartphone, arbitrary viewpoint and light.
QUERY_PROFILE = CaptureProfile(
    max_rotation_deg=15.0,
    max_scale_delta=0.12,
    max_shift_frac=0.04,
    max_perspective=1.5e-4,
    illumination_gain_range=(0.7, 1.25),
    illumination_gradient=0.15,
    occlusion_prob=0.3,
    max_occlusion_frac=0.12,
    noise_sigma=0.015,
    blur_sigma=0.6,
)


class CaptureSimulator:
    """Applies a :class:`CaptureProfile` to a canonical texture."""

    def __init__(self, profile: CaptureProfile) -> None:
        self.profile = profile

    def capture(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        from scipy import ndimage  # image-pipeline only: keeps SciPy off the search path

        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 2:
            raise ValueError(f"expected 2-D image, got {image.shape}")
        p = self.profile
        h, w = image.shape

        # Viewpoint: similarity (+ mild perspective) warp about the centre.
        theta = np.deg2rad(rng.uniform(-p.max_rotation_deg, p.max_rotation_deg))
        scale = 1.0 + rng.uniform(-p.max_scale_delta, p.max_scale_delta)
        shift = rng.uniform(-p.max_shift_frac, p.max_shift_frac, size=2) * (h, w)
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        cos_t, sin_t = np.cos(theta) / scale, np.sin(theta) / scale
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        dy = ys - cy - shift[0]
        dx = xs - cx - shift[1]
        if p.max_perspective > 0:
            px, py = rng.uniform(-p.max_perspective, p.max_perspective, size=2)
            wgt = 1.0 + px * dx + py * dy
            dx = dx / wgt
            dy = dy / wgt
        src_y = cos_t * dy - sin_t * dx + cy
        src_x = sin_t * dy + cos_t * dx + cx
        warped = ndimage.map_coordinates(
            image, [src_y, src_x], order=1, mode="reflect"
        ).astype(np.float32)

        # Illumination: global gain plus a linear gradient.
        gain = rng.uniform(*p.illumination_gain_range)
        direction = rng.uniform(0, 2 * np.pi)
        ramp = (
            (xs - cx) * np.cos(direction) + (ys - cy) * np.sin(direction)
        ) / max(h, w)
        warped = warped * np.float32(gain) * (1.0 + p.illumination_gradient * ramp).astype(
            np.float32
        )

        # Occlusion: a flat random rectangle (finger / label / shadow).
        if p.occlusion_prob > 0 and rng.random() < p.occlusion_prob:
            frac = rng.uniform(0.3, 1.0) * p.max_occlusion_frac
            oh = max(2, int(h * np.sqrt(frac)))
            ow = max(2, int(w * np.sqrt(frac)))
            oy = rng.integers(0, h - oh + 1)
            ox = rng.integers(0, w - ow + 1)
            warped[oy : oy + oh, ox : ox + ow] = rng.uniform(0.0, 0.3)

        if p.blur_sigma > 0:
            warped = ndimage.gaussian_filter(warped, rng.uniform(0, p.blur_sigma))
        if p.noise_sigma > 0:
            warped = warped + rng.normal(0.0, p.noise_sigma, warped.shape).astype(np.float32)
        return np.clip(warped, 0.0, 1.0).astype(np.float32)
