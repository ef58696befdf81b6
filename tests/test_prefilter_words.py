"""The cascade prefilter's Hamming distances, accumulated word by word,
equal the XOR-cube form they replaced: same values, same dtype, with and
without a ``words=`` prefix, on both popcount paths."""

import numpy as np
import pytest

from repro.features import binarize
from repro.features.binarize import hamming_distances, popcount


def cube_hamming(codes_a, codes_b, words=None):
    """The parent's implementation, verbatim: the oracle."""
    codes_a = np.asarray(codes_a, dtype=np.uint64)
    codes_b = np.asarray(codes_b, dtype=np.uint64)
    if words is not None:
        codes_a = codes_a[:, :words]
        codes_b = codes_b[:, :words]
    xor = codes_a[:, None, :] ^ codes_b[None, :, :]
    return popcount(xor).sum(axis=2)


@pytest.fixture(params=["bitwise_count", "byte_table"])
def popcount_path(request, monkeypatch):
    if request.param == "bitwise_count":
        if not hasattr(np, "bitwise_count"):
            pytest.skip("np.bitwise_count needs NumPy >= 2.0")
    else:
        monkeypatch.delattr(binarize.np, "bitwise_count", raising=False)
    return request.param


def random_codes(rng, count, n_words):
    return rng.integers(0, 2**64, size=(count, n_words), dtype=np.uint64)


@pytest.mark.parametrize("n_words", [1, 2, 3, 4])
@pytest.mark.parametrize("words", [None, 1, 2, 5])
def test_word_by_word_equals_cube(popcount_path, n_words, words):
    rng = np.random.default_rng(100 * n_words + (words or 0))
    a = random_codes(rng, 37, n_words)
    b = random_codes(rng, 23, n_words)
    got = hamming_distances(a, b, words=words)
    want = cube_hamming(a, b, words=words)
    assert got.dtype == want.dtype
    assert got.shape == (37, 23)
    np.testing.assert_array_equal(got, want)


def test_empty_sides_and_zero_words(popcount_path):
    rng = np.random.default_rng(1)
    a = random_codes(rng, 5, 2)
    none = random_codes(rng, 0, 2)
    for x, y, words in [(a, none, None), (none, a, None), (a, a, 0)]:
        got = hamming_distances(x, y, words=words)
        want = cube_hamming(x, y, words=words)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_width_mismatch_is_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        hamming_distances(random_codes(rng, 3, 2), random_codes(rng, 3, 3))
