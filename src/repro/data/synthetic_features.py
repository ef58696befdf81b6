"""Statistical SIFT-feature generator for large accuracy sweeps.

Extracting real SIFT from thousands of images is too slow for the
accuracy tables (Tables 2 and 7 sweep many configurations), so this
module generates feature *sets* directly from a generative model whose
statistics match what the image pipeline produces:

* each **brick** owns a pool of latent keypoints with strengths and
  canonical 128-D descriptors (non-negative, L2 norm 512, entries
  capped like SIFT's 0.2 clamp);
* a **capture** of a brick observes each keypoint with a strength- and
  capture-quality-dependent probability, perturbs its descriptor with
  capture noise, and ranks the observed features by a *noisy response*;
* reference captures (factory camera) have low descriptor noise and low
  ranking noise; query captures (smartphone) have high noise on both
  and a heavy-tailed difficulty that occasionally produces the hard
  queries responsible for the last percents of top-1 accuracy.

The asymmetric-extraction result (Table 7) follows from the ranking-
noise asymmetry: trimming a reference to its top-m features by response
removes genuinely weak keypoints, while trimming a query removes strong
keypoints mis-ranked by noise — so accuracy is far more sensitive to
``n`` than to ``m``, as the paper finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureModelConfig", "Capture", "SyntheticFeatureModel"]

SIFT_NORM = 512.0
SIFT_CLIP = 0.2 * SIFT_NORM
DESCRIPTOR_DIM = 128


@dataclass(frozen=True)
class FeatureModelConfig:
    """Generative-model parameters (defaults tuned to land the paper's
    accuracy plateau of ~97-98.5 % at m = n = 768).

    Descriptors are mixtures of a shared **visual-word prototype** and
    an idiosyncratic component: texture keypoints cluster into a small
    vocabulary (the premise of BoW retrieval), so a query feature's
    second-nearest neighbour is usually a same-word keypoint and the
    ratio test hinges on the idiosyncratic part surviving capture
    noise.  That is what makes match counts realistic (tens, not
    hundreds) and accuracy sensitive to the m/n budgets.
    """

    d: int = DESCRIPTOR_DIM
    pool_size: int = 1400
    #: visual vocabulary: number of word prototypes per model and the
    #: prototype mixing weight (0 = fully idiosyncratic descriptors).
    n_words: int = 96
    word_weight: float = 0.50
    #: descriptor perturbation (relative to the 512 norm).
    ref_descriptor_noise: float = 0.12
    query_descriptor_noise: float = 1.50
    #: lognormal sigma of the per-feature noise multipliers.
    feature_noise_spread: float = 0.7
    #: query captures add noise with capture difficulty:
    #: sigma += extra_noise_slope * max(0, -quality).
    query_extra_noise_slope: float = 0.60
    #: response = strength + N(0, rank_noise); strengths are ~Exp(1).
    ref_rank_noise: float = 0.10
    query_rank_noise: float = 0.90
    #: visibility: P(observe) = sigmoid((strength - v0 + quality)/T).
    visibility_midpoint: float = 0.55
    visibility_temperature: float = 0.35
    #: query capture quality ~ N(0, sigma) - difficulty_tail * Exp(1):
    #: the exponential tail produces the occasional terrible capture.
    query_quality_sigma: float = 0.25
    query_difficulty_tail: float = 0.40
    #: how strongly capture quality suppresses keypoint visibility
    #: (1 = fully; blur mainly corrupts descriptors rather than hiding
    #: keypoints, so the default is weak coupling).
    query_visibility_coupling: float = 0.25

    def __post_init__(self) -> None:
        if self.d <= 0 or self.pool_size <= 0:
            raise ValueError("d and pool_size must be positive")
        if self.n_words <= 0:
            raise ValueError("n_words must be positive")
        if not (0.0 <= self.word_weight < 1.0):
            raise ValueError("word_weight must be in [0, 1)")


@dataclass
class Capture:
    """One synthetic image's features, response-ranked (strongest first)."""

    brick_id: int
    descriptors: np.ndarray  # (d, count)
    keypoint_ids: np.ndarray  # (count,) indices into the brick pool

    @property
    def count(self) -> int:
        return self.descriptors.shape[1]

    def top(self, budget: int) -> "Capture":
        """The strongest ``budget`` features (already ranked), copied: a
        view would keep the whole capture alive as long as the slice."""
        return Capture(
            self.brick_id,
            self.descriptors[:, :budget].copy(),
            self.keypoint_ids[:budget].copy(),
        )


def _normalize_sift(desc: np.ndarray) -> np.ndarray:
    """Project onto the SIFT descriptor manifold: non-negative, entries
    capped at 0.2 of the norm, L2 norm 512."""
    desc = np.maximum(desc, 0.0)
    norms = np.linalg.norm(desc, axis=0, keepdims=True)
    norms = np.maximum(norms, 1e-9)
    desc = desc / norms * SIFT_NORM
    desc = np.minimum(desc, SIFT_CLIP)
    norms = np.maximum(np.linalg.norm(desc, axis=0, keepdims=True), 1e-9)
    return (desc / norms * SIFT_NORM).astype(np.float32)


class SyntheticFeatureModel:
    """Deterministic generator of per-brick pools and captures."""

    def __init__(self, config: FeatureModelConfig | None = None, seed: int = 0) -> None:
        self.config = config or FeatureModelConfig()
        self.seed = int(seed)
        self._pool_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # The visual vocabulary is shared by *all* bricks of one model —
        # tea bricks are a single fine-grained category, so their local
        # appearances draw from one vocabulary (Sec. 2's point about
        # texture identification being harder than CBIR).
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 987654321]))
        self._words = _normalize_sift(
            rng.gamma(0.6, 1.0, size=(self.config.d, self.config.n_words))
        )

    # ------------------------------------------------------------------
    def _brick_rng(self, brick_id: int, tag: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, int(brick_id), tag]))

    def brick_pool(self, brick_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(strengths (K,), canonical descriptors (d, K)) for one brick."""
        if brick_id not in self._pool_cache:
            cfg = self.config
            rng = self._brick_rng(brick_id, 0)
            strengths = np.sort(rng.exponential(1.0, cfg.pool_size))[::-1].copy()
            # Each keypoint: its visual word's prototype plus an
            # idiosyncratic gamma component (SIFT-like sparse histogram).
            words = rng.integers(0, cfg.n_words, cfg.pool_size)
            indiv = _normalize_sift(rng.gamma(0.6, 1.0, size=(cfg.d, cfg.pool_size)))
            canon = cfg.word_weight * self._words[:, words] + (1.0 - cfg.word_weight) * indiv
            self._pool_cache[brick_id] = (strengths, _normalize_sift(canon))
        return self._pool_cache[brick_id]

    # ------------------------------------------------------------------
    def capture(
        self,
        brick_id: int,
        side: str,
        capture_index: int = 0,
    ) -> Capture:
        """Generate one capture ("reference" or "query") of a brick."""
        if side not in ("reference", "query"):
            raise ValueError(f"side must be 'reference' or 'query', got {side!r}")
        cfg = self.config
        strengths, canon = self.brick_pool(brick_id)
        rng = self._brick_rng(brick_id, 1000 + capture_index if side == "query" else 1)

        if side == "reference":
            quality = 0.0
            desc_noise = cfg.ref_descriptor_noise
            rank_noise = cfg.ref_rank_noise
        else:
            quality = float(
                rng.normal(0.0, cfg.query_quality_sigma)
                - cfg.query_difficulty_tail * rng.exponential(1.0)
            )
            desc_noise = cfg.query_descriptor_noise + cfg.query_extra_noise_slope * max(
                0.0, -quality
            )
            rank_noise = cfg.query_rank_noise

        vis_quality = quality if side == "reference" else cfg.query_visibility_coupling * quality
        logits = (strengths - cfg.visibility_midpoint + vis_quality) / cfg.visibility_temperature
        p_obs = 1.0 / (1.0 + np.exp(-logits))
        observed = rng.random(cfg.pool_size) < p_obs
        idx = np.flatnonzero(observed)
        if idx.size == 0:
            # Degenerate capture: keep the single strongest keypoint so
            # downstream shapes stay valid.
            idx = np.array([0])

        # Per-feature noise heterogeneity (lognormal multipliers): some
        # patches blur/occlude more than others within one photo, so a
        # capture's match count degrades *gradually* with quality rather
        # than all features failing the ratio test at once.
        per_feature = rng.lognormal(0.0, cfg.feature_noise_spread, idx.size)
        sigma = desc_noise * per_feature * SIFT_NORM / np.sqrt(cfg.d)
        noise = rng.normal(0.0, 1.0, size=(cfg.d, idx.size)) * sigma[None, :]
        descriptors = _normalize_sift(canon[:, idx] + noise)
        responses = strengths[idx] + rng.normal(0.0, rank_noise, idx.size)
        order = np.argsort(-responses, kind="stable")
        return Capture(
            brick_id=int(brick_id),
            descriptors=np.ascontiguousarray(descriptors[:, order]),
            keypoint_ids=idx[order].astype(np.int64),
        )

    # ------------------------------------------------------------------
    def reference_set(self, brick_ids: list[int], budget: int) -> list[Capture]:
        """One budgeted reference capture per brick."""
        return [self.capture(b, "reference").top(budget) for b in brick_ids]

    def query_set(
        self,
        brick_ids: list[int],
        budget: int,
        queries_per_brick: int = 1,
    ) -> list[Capture]:
        """Budgeted query captures; ``brick_id`` is the ground truth."""
        out = []
        for b in brick_ids:
            for q in range(queries_per_brick):
                out.append(self.capture(b, "query", capture_index=q).top(budget))
        return out
