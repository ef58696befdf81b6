"""Cross-cutting invariants of the whole engine stack.

These are the properties a downstream user implicitly relies on: the
optimizations are *performance* transformations, so they must never
change functional results.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig, TextureSearchEngine, knn_algorithm1, knn_algorithm2, prepare_query, prepare_reference
from repro.features import rootsift
from repro.gpusim import GPUDevice, TESLA_P100, TESLA_V100
from tests.conftest import make_descriptors, noisy_copy, pairs


def build_engine(batch_size, streams=1, **kwargs):
    cfg = EngineConfig(m=32, n=32, batch_size=batch_size, min_matches=5,
                       scale_factor=0.25, streams=streams, **kwargs)
    return TextureSearchEngine(cfg)


def enrol(engine, descs):
    for i, d in descs.items():
        engine.add_reference(f"r{i}", d)
    engine.flush()


@pytest.fixture(scope="module")
def descs():
    return {i: make_descriptors(32, seed=2000 + i) for i in range(9)}


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("batch_size", [1, 2, 4, 9, 16])
    def test_results_identical_across_batch_sizes(self, descs, batch_size):
        """Batching is pure data reuse: match counts must not move."""
        baseline = build_engine(batch_size=3)
        enrol(baseline, descs)
        other = build_engine(batch_size=batch_size)
        enrol(other, descs)
        query = noisy_copy(descs[4], 8.0, seed=201)
        a = dict(pairs(baseline.search(query)))
        b = dict(pairs(other.search(query)))
        assert a == b

    def test_results_identical_across_devices(self, descs):
        """The device model affects time only, never results."""
        p100 = build_engine(batch_size=4)
        enrol(p100, descs)
        v100 = TextureSearchEngine(
            EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25),
            device=GPUDevice(TESLA_V100),
        )
        enrol(v100, descs)
        query = noisy_copy(descs[2], 8.0, seed=202)
        a = dict(pairs(p100.search(query)))
        b = dict(pairs(v100.search(query)))
        assert a == b

    def test_streams_do_not_change_results(self, descs):
        serial = build_engine(batch_size=4, streams=1)
        parallel = build_engine(batch_size=4, streams=8)
        enrol(serial, descs)
        enrol(parallel, descs)
        query = noisy_copy(descs[7], 8.0, seed=203)
        a = [(m.reference_id, m.good_matches) for m in serial.search(query).top(9)]
        b = [(m.reference_id, m.good_matches) for m in parallel.search(query).top(9)]
        assert a == b


class TestDeterminism:
    def test_repeated_search_identical(self, descs):
        engine = build_engine(batch_size=4)
        enrol(engine, descs)
        query = noisy_copy(descs[0], 8.0, seed=204)
        first = pairs(engine.search(query))
        second = pairs(engine.search(query))
        assert first == second

    def test_enrolment_order_irrelevant_for_scores(self, descs):
        forward = build_engine(batch_size=4)
        enrol(forward, descs)
        backward = build_engine(batch_size=4)
        for i in sorted(descs, reverse=True):
            backward.add_reference(f"r{i}", descs[i])
        backward.flush()
        query = noisy_copy(descs[5], 8.0, seed=205)
        a = dict(pairs(forward.search(query)))
        b = dict(pairs(backward.search(query)))
        assert a == b


class TestAlgorithmConsistency:
    def test_alg1_and_alg2_agree_on_unit_norm_features(self, p100):
        """On RootSIFT features, Algorithm 2's simplification must give
        the same distances as the full Algorithm 1."""
        base = rootsift(make_descriptors(24, seed=206))
        query_raw = rootsift(noisy_copy(make_descriptors(24, seed=206), 20.0, seed=207))
        ref = prepare_reference(base, "fp32")
        qry = prepare_query(p100, query_raw, "fp32")
        knn1 = knn_algorithm1(p100, ref, qry)
        knn2 = knn_algorithm2(p100, base[None, ...], query_raw, precision="fp32").image(0)
        np.testing.assert_allclose(knn1.distances, knn2.distances, atol=5e-3)
        np.testing.assert_array_equal(knn1.indices, knn2.indices)

    @given(seed=st.integers(0, 50), noise=st.floats(2.0, 30.0))
    @settings(max_examples=15, deadline=None)
    def test_fp16_preserves_nearest_neighbour_ranking(self, seed, noise):
        """FP16 quantization perturbs distances but (statistically) not
        who the nearest reference feature is, for clear matches."""
        device = GPUDevice(TESLA_P100)
        base = make_descriptors(16, seed=seed)
        query_raw = noisy_copy(base, noise, seed=seed + 1)
        ref32 = prepare_reference(base, "fp32")
        qry32 = prepare_query(device, query_raw, "fp32")
        knn32 = knn_algorithm1(device, ref32, qry32)
        ref16 = prepare_reference(base, "fp16", 2.0**-7)
        qry16 = prepare_query(device, query_raw, "fp16", 2.0**-7)
        knn16 = knn_algorithm1(device, ref16, qry16)
        # clear matches: nearest at least 20% closer than runner-up
        clear = knn32.distances[0] < 0.8 * knn32.distances[1]
        agree = knn32.indices[0][clear] == knn16.indices[0][clear]
        assert agree.mean() >= 0.9 if clear.any() else True


class TestPaddingInvariance:
    def test_zero_padding_never_matches(self, descs):
        """Queries shorter than n are zero-padded; padding columns must
        contribute zero good matches."""
        engine = build_engine(batch_size=4)
        enrol(engine, descs)
        full = noisy_copy(descs[3], 8.0, seed=208)
        short = full[:, :10]
        result_short = engine.search(short)
        best = result_short.best()
        assert best.reference_id == "r3"
        # at most 10 (real) features can match
        assert best.good_matches <= 10
