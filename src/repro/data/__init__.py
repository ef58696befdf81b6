"""Dataset substrate: procedural tea-brick textures, capture-condition
transforms, a statistical SIFT-feature generator for accuracy sweeps,
and dataset builders (see DESIGN.md Sec. 2 for why the paper's
proprietary dataset is replaced by these)."""

from .dataset import (
    IdentificationDataset,
    LabeledFeatures,
    build_feature_dataset,
    build_image_dataset,
)
from .synthetic_features import (
    Capture,
    FeatureModelConfig,
    SyntheticFeatureModel,
)
from .teabrick import TeaBrickGenerator, value_noise
from .transforms import (
    QUERY_PROFILE,
    REFERENCE_PROFILE,
    CaptureProfile,
    CaptureSimulator,
)

__all__ = [
    "Capture",
    "CaptureProfile",
    "CaptureSimulator",
    "FeatureModelConfig",
    "IdentificationDataset",
    "LabeledFeatures",
    "QUERY_PROFILE",
    "REFERENCE_PROFILE",
    "SyntheticFeatureModel",
    "TeaBrickGenerator",
    "build_feature_dataset",
    "build_image_dataset",
    "value_noise",
]
