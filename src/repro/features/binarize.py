"""Sign-bit binarization: the one encoder every Hamming-space consumer uses.

:class:`LshCodec` turns float descriptors into packed sign bits of random
projections, and :func:`hamming_distances` compares them with XOR +
popcount.  Three subsystems consume the codes: the LSH compression
baseline (:class:`repro.baselines.adapters.LshKernel`), the LSH-banding
candidate router (:mod:`repro.routing.router`) and the cascade-hashing
prefilter kernel (:mod:`repro.core.cascade`).  The baseline and the
router centre the hyperplanes on a training sample; the cascade keeps
them through the origin, so its codes are the signs of the stored
matrix.  This module is the one implementation, so a bit-layout change
(or a faster popcount) lands in all three at once.

Bit layout: bit ``b`` of a signature lives in uint64 word ``b // 64``
at offset ``b % 64`` (LSB first).  The packing and distance helpers are
pure NumPy and make no assumption about where the bits came from —
random-hyperplane signs, band values, or anything else.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LshCodec",
    "hamming_distances",
    "pack_bits",
    "popcount",
    "sign_planes",
    "unpack_bits",
    "words_for_bits",
]


def words_for_bits(n_bits: int) -> int:
    """uint64 words needed to hold ``n_bits`` packed bits."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    return (int(n_bits) + 63) // 64


#: set bits of every byte value, for :func:`popcount` without ``np.bitwise_count``
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element popcount for unsigned integer arrays.

    Uses ``np.bitwise_count`` where available (NumPy >= 2.0), else a
    byte-table fallback.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    out = np.zeros(values.shape, dtype=np.int64)
    view = values.copy()
    for _ in range(values.dtype.itemsize):
        out += _BYTE_POPCOUNT[(view & 0xFF).astype(np.uint8)]
        view >>= 8
    return out


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """``(n_bits, count)`` boolean matrix -> ``(count, n_words)`` uint64 codes.

    Row ``b`` of ``bits`` becomes bit ``b`` of every signature (word
    ``b // 64``, offset ``b % 64``).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"bits must be (n_bits, count), got {bits.shape}")
    n_bits, count = bits.shape
    codes = np.zeros((count, words_for_bits(n_bits)), dtype=np.uint64)
    for b in range(n_bits):
        word, offset = divmod(b, 64)
        codes[:, word] |= bits[b].astype(np.uint64) << np.uint64(offset)
    return codes


def unpack_bits(codes: np.ndarray, n_bits: int) -> np.ndarray:
    """``(count, n_words)`` packed codes -> ``(count, n_bits)`` uint8 bits.

    The inverse of :func:`pack_bits` (up to the transposed layout the
    band-splitting router wants).
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.ndim != 2:
        raise ValueError(f"codes must be (count, n_words), got {codes.shape}")
    if codes.shape[1] < words_for_bits(n_bits):
        raise ValueError(
            f"{codes.shape[1]} words cannot hold {n_bits} bits"
        )
    bits = np.zeros((codes.shape[0], int(n_bits)), dtype=np.uint8)
    for b in range(int(n_bits)):
        word, offset = divmod(b, 64)
        bits[:, b] = (codes[:, word] >> np.uint64(offset)) & np.uint64(1)
    return bits


def hamming_distances(
    codes_a: np.ndarray, codes_b: np.ndarray, words: int | None = None
) -> np.ndarray:
    """Pairwise Hamming distances: ``(len(a), len(b))``.

    ``words`` restricts the comparison to the first ``words`` uint64
    words of each signature — the cascade prefilter's coarse stage
    tests a short prefix before paying for the full width.

    Accumulates one ``(len(a), len(b))`` array word by word rather than
    summing a ``(len(a), len(b), words)`` XOR cube.  The accumulator is
    the narrowest unsigned type that holds ``64 * words`` (an in-place add
    into a wider one costs several times the XOR and popcount); the
    result has the dtype that cube's sum had (``uint64`` off
    ``np.bitwise_count``, ``int64`` off the byte table).
    """
    codes_a = np.asarray(codes_a, dtype=np.uint64)
    codes_b = np.asarray(codes_b, dtype=np.uint64)
    if words is not None:
        codes_a = codes_a[:, :words]
        codes_b = codes_b[:, :words]
    if codes_a.shape[1] != codes_b.shape[1]:
        raise ValueError(
            f"codes differ in width: {codes_a.shape[1]} vs {codes_b.shape[1]} words"
        )
    n_words = codes_a.shape[1]
    dist = np.zeros((len(codes_a), len(codes_b)), dtype=np.min_scalar_type(64 * n_words))
    for w in range(n_words):
        count = popcount(codes_a[:, w, None] ^ codes_b[None, :, w])
        np.add(dist, count, out=dist, casting="unsafe")
    return dist.astype(popcount(codes_a[:0, :0]).sum().dtype)


def sign_planes(d: int, n_bits: int, seed: int = 0) -> np.ndarray:
    """Random hyperplane normals for sign-bit signatures: ``(n_bits, d)``
    standard-normal FP32 rows, seeded for reproducibility."""
    if n_bits < 8:
        raise ValueError("n_bits must be >= 8")
    rng = np.random.default_rng(seed)
    return rng.normal(size=(int(n_bits), int(d))).astype(np.float32)


class LshCodec:
    """Random-hyperplane sign bits: ``n_bits`` per descriptor, packed into
    ``ceil(n_bits / 64)`` uint64 words.

    768 SIFT floats (3 KB) become e.g. 32 bytes at 256 bits, a 96x
    compression at the cost of Hamming-space recall.  The hyperplanes
    pass through the origin until :meth:`train` centres them on a data
    sample.
    """

    def __init__(self, d: int = 128, n_bits: int = 256, seed: int = 0) -> None:
        self.d = d
        self.n_bits = int(n_bits)
        self.n_words = words_for_bits(self.n_bits)
        self._planes = sign_planes(d, self.n_bits, seed)
        self._center = np.zeros(d, dtype=np.float32)

    def train(self, sample: np.ndarray) -> None:
        """Centre the hyperplanes on a data sample ((d, count) matrix)."""
        sample = np.asarray(sample, dtype=np.float32)
        if sample.ndim != 2 or sample.shape[0] != self.d:
            raise ValueError(f"sample must be ({self.d}, count)")
        self._center = sample.mean(axis=1)

    def encode(self, descriptors: np.ndarray) -> np.ndarray:
        """``(d, count)`` descriptors -> ``(count, n_words)`` uint64 codes."""
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2 or descriptors.shape[0] != self.d:
            raise ValueError(f"descriptors must be ({self.d}, count)")
        bits = (self._planes @ (descriptors - self._center[:, None])) > 0  # (bits, count)
        return pack_bits(bits)

    @property
    def bytes_per_descriptor(self) -> int:
        return self.n_words * 8
