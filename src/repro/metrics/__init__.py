"""Evaluation metrics: top-1 identification accuracy, verification ROC
and GPU efficiency (Eq. 3); Table 6 computes schedule efficiency (Eq. 4)."""

from .accuracy import AccuracyReport, evaluate_top1
from .throughput import (
    EfficiencyReport,
    gemm_flops_per_image,
    gpu_efficiency,
)
from .verification import (
    RocPoint,
    VerificationReport,
    evaluate_verification,
    roc_from_scores,
)

__all__ = [
    "AccuracyReport",
    "EfficiencyReport",
    "RocPoint",
    "VerificationReport",
    "evaluate_top1",
    "evaluate_verification",
    "gemm_flops_per_image",
    "gpu_efficiency",
    "roc_from_scores",
]
