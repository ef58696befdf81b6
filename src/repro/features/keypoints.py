"""Keypoint container.

``Keypoint`` carries everything downstream stages need: image-space
position (in base-image pixels), scale, orientation, the DoG response
used for ranking (the asymmetric extraction of Sec. 7 keeps the top-m
by response), and the pyramid coordinates it was detected at.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Keypoint"]


@dataclass(frozen=True)
class Keypoint:
    """One detected local feature (before/after orientation assignment)."""

    x: float
    y: float
    sigma: float
    response: float
    octave: int
    layer: int
    orientation: float = 0.0

    def with_orientation(self, theta: float) -> "Keypoint":
        return replace(self, orientation=float(theta))

    def scaled_to_octave(self, octave: int) -> tuple[float, float]:
        """(x, y) in the pixel grid of ``octave``."""
        factor = 2.0**octave
        return self.x / factor, self.y / factor
