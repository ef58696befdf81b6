"""Identification accuracy metrics.

Top-1 accuracy over an :class:`IdentificationDataset`: a query is
correct when the best-scoring reference is its true brick *and* the
score clears the engine's ``min_matches`` decision threshold — "only
when the number [of matched keypoints is] higher than a pre-defined
threshold can these two images be considered with the same texture"
(Sec. 3.1), so a below-threshold best hit is a failed identification.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import TextureSearchEngine
from ..data.dataset import IdentificationDataset

__all__ = ["AccuracyReport", "evaluate_top1"]


@dataclass
class AccuracyReport:
    correct: int
    total: int
    per_query_scores: list[int]

    @property
    def top1_accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"top-1 {self.top1_accuracy:.2%} ({self.correct}/{self.total})"


def evaluate_top1(
    engine: TextureSearchEngine,
    dataset: IdentificationDataset,
    enroll: bool = True,
) -> AccuracyReport:
    """Enroll the dataset's references (optionally) and run every query.

    Reference ids are the stringified brick ids, so ground truth is
    checked directly against :attr:`ImageMatch.reference_id`.
    """
    if enroll:
        for ref in dataset.references:
            engine.add_reference(str(ref.brick_id), ref.descriptors)
        engine.flush()
    threshold = engine.config.min_matches
    correct = 0
    scores: list[int] = []
    for query in dataset.queries:
        result = engine.search(query.descriptors)
        best = result.best()
        if (
            best is not None
            and best.good_matches >= threshold
            and best.reference_id == str(query.brick_id)
        ):
            correct += 1
        scores.append(0 if best is None else best.good_matches)
    return AccuracyReport(correct=correct, total=len(dataset.queries), per_query_scores=scores)
