"""The paper's primary contribution: the optimized 2-NN texture search
engine (Algorithms 1 & 2, batching, asymmetric extraction, ratio test)."""

from .algorithm1 import PreparedFeatures, knn_algorithm1, prepare_query, prepare_reference
from .algorithm2 import BatchKnnResult, knn_algorithm2
from .asymmetric import AsymmetricExtractor, AsymmetricPolicy
from .batching import BatchBuilder, ReferenceBatch
from .compute import SweepCompute, compute_scope, current_compute
from .config import DEFAULT_SCALE_FACTOR, EngineConfig
from .engine import EngineStats, TextureSearchEngine
from .identification import IdentificationDecision, IdentificationPipeline
from .kernels import MatchKernel, PreparedQuery, QueryMatrix, ReferenceMatrix
from .query_batching import MultiQueryResult, knn_algorithm2_multiquery
from .ratio_test import (
    batch_ratio_test_masks,
    good_match_count,
    match_images,
    match_images_batch,
    ratio_test_mask,
    verify_pair,
)
from .registry import available_backends, create_kernel, register_kernel
from .results import Answer, ImageMatch, KnnResult, Sweep
from .topk import functional_topk

__all__ = [
    "Answer",
    "AsymmetricExtractor",
    "AsymmetricPolicy",
    "BatchBuilder",
    "BatchKnnResult",
    "DEFAULT_SCALE_FACTOR",
    "EngineConfig",
    "EngineStats",
    "IdentificationDecision",
    "IdentificationPipeline",
    "ImageMatch",
    "KnnResult",
    "MatchKernel",
    "MultiQueryResult",
    "PreparedFeatures",
    "PreparedQuery",
    "QueryMatrix",
    "ReferenceMatrix",
    "ReferenceBatch",
    "Sweep",
    "SweepCompute",
    "TextureSearchEngine",
    "available_backends",
    "batch_ratio_test_masks",
    "compute_scope",
    "create_kernel",
    "current_compute",
    "functional_topk",
    "good_match_count",
    "knn_algorithm1",
    "knn_algorithm2",
    "knn_algorithm2_multiquery",
    "match_images",
    "match_images_batch",
    "prepare_query",
    "prepare_reference",
    "ratio_test_mask",
    "register_kernel",
    "verify_pair",
]
