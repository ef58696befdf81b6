"""Asymmetric local feature extraction (Sec. 7).

Reference features exist only to let the ratio test tell distinct query
features from non-distinct ones, so fewer can be kept on the reference
side (``m``) than on the query side (``n``).  Table 7 finds m=384,
n=768 optimal: accuracy drops 0.28 % while speed rises 34.6 % and
cached matrices halve.

:class:`AsymmetricExtractor` packages the policy: one SIFT extractor,
two budgets, RootSIFT applied after selection, zero-padding to the
fixed engine shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.rootsift import rootsift
from ..features.selection import pad_or_trim
from ..features.sift import ExtractionResult, SIFTConfig, SIFTExtractor

__all__ = ["AsymmetricPolicy", "AsymmetricExtractor"]


@dataclass(frozen=True)
class AsymmetricPolicy:
    """Feature budgets for the two sides of the matching problem."""

    m_reference: int = 384
    n_query: int = 768

    def __post_init__(self) -> None:
        if self.m_reference <= 0 or self.n_query <= 0:
            raise ValueError("budgets must be positive")


class AsymmetricExtractor:
    """Extracts reference features at budget ``m`` and query features at
    budget ``n`` with a shared SIFT configuration."""

    def __init__(
        self,
        policy: AsymmetricPolicy | None = None,
        sift_config: SIFTConfig | None = None,
        use_rootsift: bool = True,
    ) -> None:
        self.policy = policy or AsymmetricPolicy()
        base = sift_config or SIFTConfig()
        # Extraction budget = the larger side; selection trims afterwards.
        budget = max(self.policy.m_reference, self.policy.n_query, base.n_features)
        self._extractor = SIFTExtractor(
            SIFTConfig(
                n_features=budget,
                sigma0=base.sigma0,
                intervals=base.intervals,
                n_octaves=base.n_octaves,
                contrast_threshold=base.contrast_threshold,
                edge_ratio=base.edge_ratio,
                max_orientations=base.max_orientations,
                use_rootsift=False,  # applied here, after selection
            )
        )
        self.use_rootsift = use_rootsift

    def _finish(self, result: ExtractionResult, budget: int) -> np.ndarray:
        desc = result.descriptors[:, :budget]
        if self.use_rootsift and desc.size:
            desc = rootsift(desc)
        return pad_or_trim(desc, budget)

    def extract_reference(self, image: np.ndarray) -> np.ndarray:
        """``(d, m_reference)`` matrix, strongest-m, padded if needed."""
        return self._finish(self._extractor.extract(image), self.policy.m_reference)

    def extract_query(self, image: np.ndarray) -> np.ndarray:
        """``(d, n_query)`` matrix, strongest-n, padded if needed."""
        return self._finish(self._extractor.extract(image), self.policy.n_query)

    def extract_with_keypoints(self, image: np.ndarray, budget: int) -> ExtractionResult:
        """Budgeted extraction that keeps keypoints (for geometric
        verification), without padding."""
        result = self._extractor.extract(image, n_features=budget)
        if self.use_rootsift and result.descriptors.size:
            result.descriptors = rootsift(result.descriptors)
        return result
