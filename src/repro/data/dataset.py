"""Dataset containers and builders.

Two dataset flavours back the experiments:

* **image datasets** — canonical tea-brick textures rendered by
  :class:`~repro.data.teabrick.TeaBrickGenerator` plus capture
  transforms; features come from the real SIFT pipeline.  Used by the
  examples and the end-to-end tests (slow but fully faithful).
* **feature datasets** — descriptor sets straight from
  :class:`~repro.data.synthetic_features.SyntheticFeatureModel`.  Used
  by the accuracy sweeps (Tables 2 and 7), where thousands of
  extractions would dominate runtime without changing the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthetic_features import Capture, FeatureModelConfig, SyntheticFeatureModel
from .teabrick import TeaBrickGenerator
from .transforms import QUERY_PROFILE, REFERENCE_PROFILE, CaptureSimulator

__all__ = [
    "LabeledFeatures",
    "IdentificationDataset",
    "build_feature_dataset",
    "build_image_dataset",
]


@dataclass
class LabeledFeatures:
    """One image's descriptors with its ground-truth brick id."""

    brick_id: int
    descriptors: np.ndarray

    @property
    def count(self) -> int:
        return self.descriptors.shape[1]


@dataclass
class IdentificationDataset:
    """References (one per brick) + queries (ground truth known)."""

    references: list[LabeledFeatures] = field(default_factory=list)
    queries: list[LabeledFeatures] = field(default_factory=list)

    @property
    def n_bricks(self) -> int:
        return len(self.references)

    def reference_ids(self) -> list[int]:
        return [r.brick_id for r in self.references]


def build_feature_dataset(
    n_bricks: int,
    m_reference: int,
    n_query: int,
    queries_per_brick: int = 1,
    query_brick_fraction: float = 1.0,
    model: SyntheticFeatureModel | None = None,
    config: FeatureModelConfig | None = None,
    seed: int = 0,
) -> IdentificationDataset:
    """Synthetic-feature identification dataset.

    ``query_brick_fraction`` selects which fraction of bricks get
    queries (querying all bricks is the paper's protocol — every query
    has exactly one true reference).
    """
    if n_bricks <= 0:
        raise ValueError("n_bricks must be positive")
    if not (0.0 < query_brick_fraction <= 1.0):
        raise ValueError("query_brick_fraction must be in (0, 1]")
    model = model or SyntheticFeatureModel(config, seed=seed)
    n_query_bricks = max(1, int(round(n_bricks * query_brick_fraction)))
    dataset = IdentificationDataset()
    # Brick by brick: the model holds one brick's pool, so a reference
    # and its queries share one draw.
    for brick in range(n_bricks):
        ref = model.capture(brick, "reference").top(m_reference)
        dataset.references.append(LabeledFeatures(ref.brick_id, ref.descriptors))
        if brick < n_query_bricks:
            for q in range(queries_per_brick):
                query = model.capture(brick, "query", capture_index=q).top(n_query)
                dataset.queries.append(LabeledFeatures(query.brick_id, query.descriptors))
    return dataset


def build_image_dataset(
    n_bricks: int,
    extractor,
    queries_per_brick: int = 1,
    image_size: int = 256,
    seed: int = 0,
) -> IdentificationDataset:
    """Image-pipeline identification dataset.

    ``extractor`` must expose ``extract_reference(image)`` and
    ``extract_query(image)`` (e.g.
    :class:`~repro.core.asymmetric.AsymmetricExtractor`).
    """
    if n_bricks <= 0:
        raise ValueError("n_bricks must be positive")
    generator = TeaBrickGenerator(size=image_size, seed=seed)
    ref_cam = CaptureSimulator(REFERENCE_PROFILE)
    query_cam = CaptureSimulator(QUERY_PROFILE)
    dataset = IdentificationDataset()
    for brick_id in range(n_bricks):
        canonical = generator.brick(brick_id)
        rng = np.random.default_rng(np.random.SeedSequence([seed, brick_id, 77]))
        ref_img = ref_cam.capture(canonical, rng)
        dataset.references.append(
            LabeledFeatures(brick_id, extractor.extract_reference(ref_img))
        )
        for _q in range(queries_per_brick):
            query_img = query_cam.capture(canonical, rng)
            dataset.queries.append(
                LabeledFeatures(brick_id, extractor.extract_query(query_img))
            )
    return dataset
