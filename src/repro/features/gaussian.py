"""Separable Gaussian filtering and the SIFT scale-space pyramid.

Implemented directly on NumPy (separable 1-D convolutions with reflect
padding) so the whole feature extractor is self-contained; the test
suite cross-checks against ``scipy.ndimage.gaussian_filter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["gaussian_kernel1d", "gaussian_blur", "GaussianPyramid", "build_gaussian_pyramid"]


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 1-D Gaussian kernel.

    ``radius`` defaults to ``ceil(4 * sigma)`` — wide enough that the
    truncation error is below float32 resolution for the sigmas SIFT
    uses.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = int(np.ceil(4.0 * sigma))
    radius = max(int(radius), 1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    return k.astype(np.float32)


def _convolve_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1-D convolution along ``axis`` with reflect (mirror) padding."""
    radius = len(kernel) // 2
    moved = np.moveaxis(image, axis, -1)
    padded = np.pad(moved, [(0, 0)] * (moved.ndim - 1) + [(radius, radius)], mode="reflect")
    # Accumulate shifted-and-scaled copies: O(kernel) passes over the
    # image, each a contiguous vectorized FMA — fast for SIFT's small
    # kernels and free of per-pixel Python work.
    out = np.zeros_like(moved, dtype=np.float32)
    n = moved.shape[-1]
    for i, w in enumerate(kernel):
        out += w * padded[..., i : i + n]
    return np.moveaxis(out, -1, axis)


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable 2-D Gaussian blur of a float32 image."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {image.shape}")
    kernel = gaussian_kernel1d(sigma)
    return _convolve_axis(_convolve_axis(image, kernel, 0), kernel, 1)


def _downsample2(image: np.ndarray) -> np.ndarray:
    """Decimate by 2 (every other pixel), as in Lowe's pyramid."""
    return image[::2, ::2]


@dataclass
class GaussianPyramid:
    """Gaussian scale space: ``octaves[o][i]`` has absolute scale
    ``sigma0 * 2**(o + i / intervals)``.

    Each octave holds ``intervals + 3`` images so that difference-of-
    Gaussian extrema can be localised across ``intervals`` scales.
    """

    sigma0: float
    intervals: int
    octaves: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def n_octaves(self) -> int:
        return len(self.octaves)


def build_gaussian_pyramid(
    image: np.ndarray,
    sigma0: float = 1.6,
    intervals: int = 3,
    n_octaves: int | None = None,
    assumed_blur: float = 0.5,
    min_size: int = 16,
) -> GaussianPyramid:
    """Build the SIFT Gaussian pyramid.

    The input is assumed to carry ``assumed_blur`` of camera blur; the
    first level tops it up to ``sigma0``.  Within an octave, level
    ``i+1`` is level ``i`` blurred by the incremental sigma such that
    absolute scales follow ``sigma0 * 2^(i/intervals)``.  Each new
    octave starts from the level with twice the octave's base sigma,
    downsampled by 2.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {image.shape}")
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    if sigma0 <= assumed_blur:
        raise ValueError("sigma0 must exceed the assumed camera blur")

    if n_octaves is None:
        n_octaves = max(1, int(np.log2(min(image.shape) / min_size)) + 1)

    levels_per_octave = intervals + 3
    k = 2.0 ** (1.0 / intervals)
    # Incremental sigmas within an octave (same for every octave).
    sig_prev = sigma0
    increments = []
    for i in range(1, levels_per_octave):
        sig_total = sigma0 * k**i
        increments.append(float(np.sqrt(sig_total**2 - sig_prev**2)))
        sig_prev = sig_total

    base = gaussian_blur(image, float(np.sqrt(sigma0**2 - assumed_blur**2)))
    pyramid = GaussianPyramid(sigma0=sigma0, intervals=intervals)
    current = base
    for _ in range(n_octaves):
        if min(current.shape) < min_size:
            break
        octave = [current]
        for inc in increments:
            octave.append(gaussian_blur(octave[-1], inc))
        pyramid.octaves.append(octave)
        # Next octave seeds from the image at 2x the octave base sigma
        # (index == intervals), decimated.
        current = _downsample2(octave[intervals])
    return pyramid
