"""SIFT extractor facade.

Ties the pyramid, detector, orientation and descriptor stages together
behind one configurable object, mirroring ``cv2.SIFT_create``.  The
paper's pipeline computes reference features offline on CPU and query
features on CPU at request time (Sec. 4.1); the extractor is therefore
a pure-host component with no simulated-GPU cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descriptor import compute_descriptors
from .dog import DEFAULT_CONTRAST_THRESHOLD, DEFAULT_EDGE_RATIO, detect_keypoints
from .gaussian import build_gaussian_pyramid
from .keypoints import Keypoint
from .rootsift import rootsift
from .selection import select_top_features

__all__ = ["SIFTConfig", "ExtractionResult", "SIFTExtractor"]


@dataclass(frozen=True)
class SIFTConfig:
    """Extractor knobs (defaults follow Lowe / OpenCV conventions)."""

    n_features: int = 768
    sigma0: float = 1.6
    intervals: int = 3
    n_octaves: int | None = None
    contrast_threshold: float = DEFAULT_CONTRAST_THRESHOLD
    edge_ratio: float = DEFAULT_EDGE_RATIO
    max_orientations: int = 2
    use_rootsift: bool = False

    def __post_init__(self) -> None:
        if self.n_features <= 0:
            raise ValueError("n_features must be positive")


@dataclass
class ExtractionResult:
    """Features from one image: ``(d, count)`` descriptors + keypoints."""

    descriptors: np.ndarray
    keypoints: list[Keypoint] = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.descriptors.shape[1]


class SIFTExtractor:
    """Extract (optionally Root-)SIFT features from grayscale images."""

    def __init__(self, config: SIFTConfig | None = None) -> None:
        self.config = config or SIFTConfig()

    def extract(self, image: np.ndarray, n_features: int | None = None) -> ExtractionResult:
        """Run the full pipeline on a float image in [0, 1].

        ``n_features`` overrides the configured budget — this is how the
        asymmetric extractor requests m features for references and n
        for queries from the same extractor instance.
        """
        cfg = self.config
        budget = cfg.n_features if n_features is None else int(n_features)
        if budget <= 0:
            raise ValueError("n_features must be positive")
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 3:
            # Luminance conversion for (H, W, 3) inputs.
            image = image @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
        if image.max() > 1.5:
            image = image / 255.0

        pyramid = build_gaussian_pyramid(
            image,
            sigma0=cfg.sigma0,
            intervals=cfg.intervals,
            n_octaves=cfg.n_octaves,
        )
        from .orientation import assign_orientations  # local import avoids cycle

        keypoints = detect_keypoints(
            pyramid,
            contrast_threshold=cfg.contrast_threshold,
            edge_ratio=cfg.edge_ratio,
        )
        oriented = assign_orientations(pyramid, keypoints, cfg.max_orientations)
        descriptors, kept = compute_descriptors(pyramid, oriented)
        descriptors, kept = select_top_features(descriptors, kept, budget)
        if cfg.use_rootsift and descriptors.size:
            descriptors = rootsift(descriptors)
        return ExtractionResult(descriptors=descriptors, keypoints=kept)
