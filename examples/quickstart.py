#!/usr/bin/env python
"""Quickstart: enrol reference textures, search, verify.

Runs entirely on synthetic SIFT feature sets (no image processing) so
it finishes in seconds.  See ``product_traceability.py`` for the full
image pipeline and ``distributed_search.py`` for the cluster service.
"""

import numpy as np

from repro import EngineConfig, TextureSearchEngine
from repro.data import SyntheticFeatureModel


def main() -> None:
    # The production configuration of the paper: asymmetric extraction
    # (m=384 reference / n=768 query features), RootSIFT, FP16 cache.
    config = EngineConfig(m=384, n=768, precision="fp16", scale_factor=0.25,
                          batch_size=64, min_matches=8)
    engine = TextureSearchEngine(config)

    # Enrol 100 "tea bricks" (one factory capture each).
    model = SyntheticFeatureModel(seed=42)
    print("enrolling 100 reference textures ...")
    for brick_id in range(100):
        capture = model.capture(brick_id, "reference").top(config.m)
        engine.add_reference(f"brick-{brick_id:03d}", capture.descriptors)
    engine.flush()
    print(f"  cached {engine.n_references} references; this engine "
          f"configuration could hold {engine.capacity_images():,} of them")

    # One-to-many search with a customer smartphone photo of brick 37.
    query = model.capture(37, "query").top(config.n)
    result = engine.search(query.descriptors)
    best = result.best()
    print(f"\nsearch over {result.images_searched} references:")
    print(f"  best match : {best.reference_id} "
          f"({best.good_matches} good matches)")
    print(f"  simulated  : {result.elapsed_us:,.0f} us "
          f"({result.images_per_s:,.0f} images/s on a {engine.device.spec.name})")
    for match in result.top(3):
        print(f"    {match.reference_id}: {match.good_matches} matches")

    # One-to-one verification.
    genuine = model.capture(37, "query", capture_index=1).top(config.n)
    impostor = model.capture(38, "query").top(config.n)
    reference = model.capture(37, "reference").top(config.m)
    same, count = engine.verify(reference.descriptors, genuine.descriptors)
    print(f"\nverify genuine pair : same={same} ({count} matches)")
    same, count = engine.verify(reference.descriptors, impostor.descriptors)
    print(f"verify impostor pair: same={same} ({count} matches)")

    # The k-NN math is a pluggable backend: the same engine API runs the
    # baselines the paper compares against (Table 1).  Here the OpenCV
    # CUDA cost model answers the same search, ~17x slower.
    baseline = TextureSearchEngine(
        config.with_updates(backend="opencv", precision="fp32")
    )
    for brick_id in range(100):
        capture = model.capture(brick_id, "reference").top(config.m)
        baseline.add_reference(f"brick-{brick_id:03d}", capture.descriptors)
    baseline_result = baseline.search(query.descriptors)
    print(f"\nbackend {baseline.backend!r}: best match "
          f"{baseline_result.best().reference_id}, "
          f"{baseline_result.images_per_s:,.0f} images/s")


if __name__ == "__main__":
    main()
