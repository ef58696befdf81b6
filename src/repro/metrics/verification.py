"""One-to-one verification metrics.

The paper's verification task (Sec. 1) decides whether two texture
images show the same physical object by thresholding the good-match
count.  This module characterises that decision: score distributions
for genuine and impostor pairs, FAR/FRR across thresholds, and the
equal-error rate — the standard biometric-style analysis the
identification threshold (``min_matches``) is chosen from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RocPoint", "VerificationReport", "evaluate_verification", "roc_from_scores"]


@dataclass(frozen=True)
class RocPoint:
    """Operating point at one decision threshold."""

    threshold: float
    far: float  # impostors accepted / impostors
    frr: float  # genuines rejected / genuines


@dataclass
class VerificationReport:
    """Score distributions + ROC for a verification protocol."""

    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    roc: list[RocPoint] = field(default_factory=list)

    @property
    def eer(self) -> float:
        """Equal-error rate: where FAR crosses FRR (linear interp)."""
        if not self.roc:
            return float("nan")
        fars = np.array([p.far for p in self.roc])
        frrs = np.array([p.frr for p in self.roc])
        diff = fars - frrs
        idx = int(np.argmin(np.abs(diff)))
        return float((fars[idx] + frrs[idx]) / 2.0)

    def operating_point(self, threshold: float) -> RocPoint:
        """FAR/FRR at an arbitrary threshold (scores >= threshold accept)."""
        far = float(np.mean(self.impostor_scores >= threshold)) if len(self.impostor_scores) else 0.0
        frr = float(np.mean(self.genuine_scores < threshold)) if len(self.genuine_scores) else 0.0
        return RocPoint(threshold=float(threshold), far=far, frr=frr)

    def best_threshold(self) -> float:
        """Threshold minimising FAR + FRR."""
        if not self.roc:
            return float("nan")
        totals = [p.far + p.frr for p in self.roc]
        return self.roc[int(np.argmin(totals))].threshold


def roc_from_scores(
    genuine_scores: np.ndarray,
    impostor_scores: np.ndarray,
    thresholds: np.ndarray | None = None,
) -> VerificationReport:
    """Build a report from raw score samples (higher = more similar)."""
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("need at least one genuine and one impostor score")
    if thresholds is None:
        hi = max(genuine.max(), impostor.max())
        thresholds = np.arange(0.0, hi + 2.0)
    report = VerificationReport(genuine_scores=genuine, impostor_scores=impostor)
    for t in thresholds:
        report.roc.append(report.operating_point(float(t)))
    return report


def evaluate_verification(
    engine,
    model,
    n_bricks: int = 20,
    impostors_per_brick: int = 2,
    seed: int = 0,
) -> VerificationReport:
    """Run the verification protocol on a synthetic feature model.

    For each brick: one genuine (reference, query) pair and
    ``impostors_per_brick`` impostor pairs (query against other bricks'
    references).  ``engine`` is a :class:`TextureSearchEngine`;
    ``model`` a :class:`~repro.data.SyntheticFeatureModel`.
    """
    if n_bricks < 2:
        raise ValueError("need at least two bricks for impostor pairs")
    m = engine.config.m
    n = engine.config.n
    # Brick by brick: the model holds one brick's pool, so each brick's
    # reference and query share one draw, and each capture is drawn once.
    references, queries = [], []
    for brick in range(n_bricks):
        references.append(model.capture(brick, "reference").top(m).descriptors)
        queries.append(model.capture(brick, "query").top(n).descriptors)
    genuine, impostor = [], []
    for brick, query in enumerate(queries):
        _, count = engine.verify(references[brick], query)
        genuine.append(count)
        for j in range(1, impostors_per_brick + 1):
            _, count = engine.verify(references[(brick + j) % n_bricks], query)
            impostor.append(count)
    return roc_from_scores(np.array(genuine), np.array(impostor))
