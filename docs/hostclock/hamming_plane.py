"""Three ways to get every Hamming distance between a query's codes and a
batch of reference images' codes, on the host clock (ROADMAP item 7(c)):

  per-image loop   ``hamming_distances(q, r)`` once per image, the call the
                   cascade prefilter and ``LshKernel.image_knn`` make today
  tiled narrow     one XOR/popcount pass per tile of images over their
                   stacked codes, accumulated in uint16
  +-1 SGEMM        the codes unpacked to +-1 FP32 once, outside the clock
                   (as codes kept at enrolment would be), then
                   ``(bits - Q @ R) / 2`` per tile; exact in FP32 up to 2**24 bits

Two batches: a cascade batch (128-bit codes from an untrained codec) and an
LSH stack (256-bit codes from a trained one), both n=768 query features
against 128 images of m=384.  Every method must give the loop's distances
exactly; rounds alternate the methods' order.  Prints the median [q1, q3]
seconds per batch over ``ROUNDS`` rounds, and in how many query rows
``argpartition`` picks a different LSH candidate set from uint16 distances
than from the loop's own dtype.  Run it alone:
    PYTHONPATH=src python docs/hostclock/hamming_plane.py
"""
import time

import numpy as np

from repro.features import LshCodec, hamming_distances, unpack_bits

ROUNDS = 7
N, M, IMAGES, TILE = 768, 384, 128, 8
#: LshKernel's default candidate count
N_CANDIDATES = 16


def descriptors(count, seed):
    """SIFT-like columns: non-negative, L2 norm 512."""
    desc = np.random.default_rng(seed).gamma(0.6, 1.0, size=(128, count)).astype(np.float32)
    return desc / np.linalg.norm(desc, axis=0, keepdims=True) * 512.0


def loop(q, refs, **_):
    return [hamming_distances(q, r) for r in refs]


def narrow(q, refs, **_):
    out = []
    for start in range(0, len(refs), TILE):
        stacked = np.concatenate(refs[start:start + TILE])
        dist = np.zeros((len(q), len(stacked)), dtype=np.uint16)
        for w in range(q.shape[1]):
            dist += np.bitwise_count(q[:, w, None] ^ stacked[None, :, w])
        out.extend(np.split(dist, len(refs[start:start + TILE]), axis=1))
    return out


def sgemm(q, refs, signs, bits):
    q_signs, ref_signs = signs
    out = []
    for start in range(0, len(refs), TILE):
        product = q_signs @ ref_signs[:, start * M:(start + TILE) * M]
        dist = (bits - product) * np.float32(0.5)
        out.extend(np.split(dist, len(refs[start:start + TILE]), axis=1))
    return out


METHODS = (("per-image loop", loop), ("tiled narrow", narrow), ("+-1 SGEMM", sgemm))


def plus_minus_one(codes, bits):
    return unpack_bits(codes, bits).astype(np.float32) * 2 - 1


def batch(bits, trained, seed):
    codec = LshCodec(d=128, n_bits=bits, seed=seed)
    refs = [descriptors(M, seed + 1 + i) for i in range(IMAGES)]
    if trained:
        codec.train(np.hstack(refs))
    q = codec.encode(descriptors(N, seed))
    ref_codes = [codec.encode(r) for r in refs]
    signs = (plus_minus_one(q, bits), np.hstack([plus_minus_one(r, bits).T for r in ref_codes]))
    return q, ref_codes, signs


def candidates_moved(exact):
    """Query rows whose argpartition candidate set changes with uint16 input."""
    moved = 0
    for dist in exact:
        wide = np.argpartition(dist, N_CANDIDATES - 1, axis=1)[:, :N_CANDIDATES]
        slim = np.argpartition(dist.astype(np.uint16), N_CANDIDATES - 1, axis=1)[:, :N_CANDIDATES]
        moved += int((np.sort(wide, axis=1) != np.sort(slim, axis=1)).any(axis=1).sum())
    return moved


if __name__ == "__main__":
    if not hasattr(np, "bitwise_count"):
        raise SystemExit("needs NumPy >= 2.0 (np.bitwise_count)")
    for label, bits, trained in (("cascade 128b", 128, False), ("LSH 256b", 256, True)):
        q, refs, signs = batch(bits, trained, seed=0)
        exact = loop(q, refs)
        for name, fn in METHODS[1:]:
            got = fn(q, refs, signs=signs, bits=bits)
            assert all(np.array_equal(a, b) for a, b in zip(exact, got)), name
        times = {name: [] for name, _ in METHODS}
        for round_ in range(ROUNDS):
            for name, fn in METHODS[::1 if round_ % 2 == 0 else -1]:
                started = time.perf_counter()
                fn(q, refs, signs=signs, bits=bits)
                times[name].append(time.perf_counter() - started)
        cells = []
        for name, _ in METHODS:
            q1, med, q3 = np.percentile(times[name], [25, 50, 75])
            cells.append(f"{name} {med:.3f} [{q1:.3f}, {q3:.3f}] s")
        print(f"{label}, n={N} m={M} images={IMAGES}: " + "; ".join(cells))
        print(f"  argpartition(k={N_CANDIDATES}) on uint16 moves the candidate set "
              f"in {candidates_moved(exact)} of {N * IMAGES} query rows "
              f"(loop dtype {exact[0].dtype})")
