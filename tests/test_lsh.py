"""LSH compression baseline: the sign-bit codec and the ``lsh`` engine."""

import numpy as np
import pytest

from repro import EngineConfig, TextureSearchEngine
from repro.baselines import LshKernel
from repro.features import LshCodec, hamming_distances
from repro.features.binarize import popcount
from tests.conftest import make_descriptors, noisy_copy

M = 48


class TestPopcount:
    def test_known_values(self):
        vals = np.array([0, 1, 3, 255, 2**63], dtype=np.uint64)
        np.testing.assert_array_equal(popcount(vals), [0, 1, 2, 8, 1])


class TestCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        codec = LshCodec(d=128, n_bits=128, seed=0)
        codec.train(make_descriptors(200, seed=0))
        return codec

    def test_code_shape_and_compression(self, codec):
        codes = codec.encode(make_descriptors(10, seed=1))
        assert codes.shape == (10, 2)
        assert codec.bytes_per_descriptor == 16  # vs 512 B of FP32

    def test_identical_vectors_zero_hamming(self, codec):
        d = make_descriptors(5, seed=2)
        codes = codec.encode(d)
        ham = hamming_distances(codes, codes)
        np.testing.assert_array_equal(np.diag(ham), 0)

    def test_hamming_correlates_with_distance(self, codec):
        base = make_descriptors(40, seed=3)
        near = noisy_copy(base, 10.0, seed=4)
        far = make_descriptors(40, seed=5)
        codes = codec.encode(base)
        near_h = np.diag(hamming_distances(codec.encode(near), codes))
        far_h = np.diag(hamming_distances(codec.encode(far), codes))
        assert near_h.mean() < far_h.mean()

    def test_deterministic(self):
        a = LshCodec(d=128, n_bits=64, seed=9)
        b = LshCodec(d=128, n_bits=64, seed=9)
        d = make_descriptors(4, seed=6)
        np.testing.assert_array_equal(a.encode(d), b.encode(d))

    def test_validation(self):
        with pytest.raises(ValueError):
            LshCodec(n_bits=4)
        codec = LshCodec(d=128, n_bits=64)
        with pytest.raises(ValueError):
            codec.encode(np.zeros((64, 3), np.float32))
        with pytest.raises(ValueError):
            codec.train(np.zeros((64, 3), np.float32))


def lsh_ranking(descs: dict, query: np.ndarray, bits: int, n_candidates: int) -> list:
    """``(image id, good matches)`` of every image, best first, as an ``lsh``
    engine over ``descs`` with a codec trained on all of them ranks them."""
    config = EngineConfig(m=M, n=M, precision="fp32", backend="lsh", batch_size=4)
    kernel = LshKernel(config, n_bits=bits, n_candidates=n_candidates, seed=0)
    kernel.codec.train(np.hstack(list(descs.values())))
    engine = TextureSearchEngine(config, kernel=kernel)
    for i, d in descs.items():
        engine.add_reference(f"img{i}", d)
    engine.flush()
    answer = engine.search(query)
    return [(match.reference_id, match.good_matches) for match in answer.top(len(descs))]


class TestMatcher:
    def test_identifies_true_image(self):
        descs = {i: make_descriptors(M, seed=2100 + i) for i in range(6)}
        ranked = lsh_ranking(descs, noisy_copy(descs[4], 8.0, seed=211), 256, 6)
        assert len(ranked) == 6
        assert ranked[0][0] == "img4"
        assert ranked[0][1] > ranked[1][1]

    def test_fewer_bits_weaker_separation(self):
        descs = {i: make_descriptors(M, seed=2200 + i) for i in range(4)}
        # noise 8.0 left 16 bits nothing to lose (48 against 0 at both widths)
        query = noisy_copy(descs[1], 20.0, seed=221)

        def top_margin(bits):
            ranked = lsh_ranking(descs, query, bits, 4)
            true_score = dict(ranked)["img1"]
            others = max(s for n, s in ranked if n != "img1")
            return true_score - others

        assert top_margin(512) > top_margin(16)

    def test_validation(self):
        config = EngineConfig(m=M, n=M, precision="fp32", backend="lsh")
        with pytest.raises(ValueError, match="at least 2 candidates"):
            LshKernel(config, n_candidates=1)
