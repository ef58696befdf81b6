"""LSH compression baseline: the sign-bit codec and the ``lsh`` engine."""

import numpy as np
import pytest

from repro import EngineConfig, TextureSearchEngine
from repro.baselines import LshKernel
from repro.core.ratio_test import match_images
from repro.features import LshCodec, hamming_distances
from repro.features.binarize import popcount
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy, slot_matches

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


def per_image_matches(kernel, stack, query):
    """The oracle: LSH's match build before it shared ``stacked_matches``,
    one ``match_images`` per slot over the same :meth:`LshKernel.image_knn`."""
    return [[match_images(slot, kernel.image_knn(member, i, query), kernel.config.ratio_threshold)
             for member in stack for i, slot in enumerate(member.slots.tolist())]]


def tie_heavy(count, seed):
    """Descriptors on a coarse grid with repeated columns: equal distances
    and equal Hamming codes everywhere, so any tie order shows."""
    desc = np.round(make_descriptors(count, seed=seed) / 96.0) * 96.0
    desc[:, : count // 4] = desc[:, count // 4: count // 2]
    return desc.astype(np.float32)


class TestStackedMatches:
    """``match_batch_multi`` builds its matches with ``stacked_matches``, field
    for field what the per-image ``match_images`` build gave, whether the
    call is charged (a device: what ``match_batch`` and ``verify`` make) or
    the sweep has charged it already (``None``)."""

    @pytest.mark.parametrize("charged", [False, True])
    @pytest.mark.parametrize("several", [False, True])
    @pytest.mark.parametrize("corpus", ["random", "ties"])
    def test_equals_the_per_image_build(self, corpus, several, charged):
        draw = tie_heavy if corpus == "ties" else make_descriptors
        descs = [draw(M, seed=2300 + i) for i in range(9)]
        if corpus == "ties":
            descs[3] = descs[1].copy()  # a duplicate reference: tied images too
        config = EngineConfig(m=M, n=M, precision="fp32", backend="lsh", batch_size=4)
        kernel = LshKernel(config, n_bits=64, n_candidates=6, seed=0)
        kernel.codec.train(np.hstack(descs))
        engine = TextureSearchEngine(config, kernel=kernel)
        for i, d in enumerate(descs):
            engine.add_reference(f"img{i}", d)
        engine.flush()
        batches = [cached.batch for cached in engine.cache.batches()]
        assert len(batches) == 3
        stack = batches if several else batches[:1]
        query = kernel.prepare_query(None, noisy_copy(descs[1], 8.0, seed=231) if corpus == "random"
                                     else descs[1][:, ::-1].copy())
        device = GPUDevice(TESLA_P100) if charged else None
        got = slot_matches(stack, kernel.match_batch_multi(device, stack if several else stack[0], query))
        want = per_image_matches(kernel, stack, query)
        images = sum(member.size for member in stack)
        if charged:  # the chain of every image, once
            alone = GPUDevice(TESLA_P100)
            alone.charge(kernel.batch_steps(alone, images, 1))
            assert device.synchronize() == alone.synchronize() > 0
        assert len(got) == len(want) == 1
        assert len(got[0]) == len(want[0]) == images
        assert sum(match.good_matches for match in want[0]) > 0
        assert got == want  # every field: id and count
