"""Every match kernel is pre-costed, and the per-image kernels keep no state.

``MatchKernel.batch_steps`` has no default: a kernel that cannot say what a
batch costs cannot be built, so the sweep has one exact-match path — charge
``batch_steps``, compute ``match_batch_multi(None, stack, ...)`` — for every
backend.  ``ParentLshKernel`` holds the LSH kernel's comparison as of the
commit before, verbatim but for its charges (now ``batch_steps``): it
memoised every swept image's codes per (batch id, slot) for as long as the
kernel lived, and batch ids are never reused.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines import LshKernel
from repro.core import EngineConfig, MatchKernel, TextureSearchEngine
from repro.core.results import KnnResult
from repro.features import hamming_distances
from tests.conftest import make_descriptors, noisy_copy

M, N = 24, 16


def test_the_protocol_has_no_default_batch_steps():
    assert {"batch_steps", "match_batch_multi"} <= MatchKernel.__abstractmethods__

    class Uncosted(MatchKernel):
        name = "uncosted"

        def prepare_reference(self, descriptors):  # pragma: no cover
            raise NotImplementedError

        def query_matrix(self, descriptors):  # pragma: no cover
            raise NotImplementedError

        def match_batch_multi(self, device, batch, query, keep_masks=False,
                              survivors=None):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(TypeError, match="batch_steps"):
        Uncosted(EngineConfig(m=M, n=N))


class ParentLshKernel(LshKernel):
    """The parent's ``LshKernel`` comparison, reference codes memoised."""

    def __init__(self, config, **kwargs) -> None:
        super().__init__(config, **kwargs)
        self._ref_codes: dict[tuple[int, int], np.ndarray] = {}

    def _codes_for(self, batch, index: int) -> np.ndarray:
        key = (batch.batch_id, index)
        if batch.batch_id < 0:
            return self.codec.encode(batch.tensor[index])
        codes = self._ref_codes.get(key)
        if codes is None:
            codes = self.codec.encode(batch.tensor[index])
            self._ref_codes[key] = codes
        return codes

    def image_knn(self, batch, i, query):
        cfg = self.config
        q = query.matrix
        q_codes = query.aux if query.aux is not None else self.codec.encode(q)
        n = q.shape[1]
        ref = batch.tensor[i]
        m = ref.shape[1]
        codes = self._codes_for(batch, i)
        hamming = hamming_distances(q_codes, codes)  # (n, m)
        k_cand = min(self.n_candidates, m)
        if k_cand < m:
            candidates = np.argpartition(hamming, k_cand - 1, axis=1)[:, :k_cand]
        else:
            candidates = np.broadcast_to(np.arange(m), (n, m)).copy()
        cand = ref[:, candidates]  # (d, n, k_cand)
        diff = cand - q[:, :, None]
        dists = np.sqrt(np.einsum("dnk,dnk->nk", diff, diff, optimize=True))
        order = np.argsort(dists, axis=1)[:, : cfg.k]
        top_d = np.take_along_axis(dists, order, axis=1)  # (n, k)
        top_i = np.take_along_axis(candidates, order, axis=1)
        return KnnResult(
            distances=np.ascontiguousarray(top_d.T.astype(np.float32)),
            indices=np.ascontiguousarray(top_i.T.astype(np.int32)),
        )


def test_lsh_keeps_nothing_per_batch_through_enrol_delete_cycles():
    cfg = EngineConfig(m=M, n=N, batch_size=4, min_matches=2, precision="fp32", backend="lsh")
    kernel, parent = LshKernel(cfg, n_bits=64, n_candidates=4), ParentLshKernel(cfg, n_bits=64, n_candidates=4)
    footprint = len(pickle.dumps(kernel))
    engines = [TextureSearchEngine(cfg, kernel=side) for side in (kernel, parent)]
    seen: list[list] = [[], []]
    for cycle in range(6):
        ids = [f"c{cycle}.{image}" for image in range(5)]
        descriptors = [make_descriptors(M, seed=100 * cycle + image) for image in range(5)]
        query = noisy_copy(descriptors[2][:, :N], 6.0, seed=cycle)
        for engine, out in zip(engines, seen):
            for ref_id, desc in zip(ids, descriptors):
                engine.add_reference(ref_id, desc)
            out.append([(m.reference_id, m.good_matches) for m in engine.search(query, keep_masks=True).matches])
            for ref_id in ids[:4]:
                engine.remove_reference(ref_id)
            out.append([(m.reference_id, m.good_matches) for m in engine.search(query).matches])
            out.append(engine.verify(descriptors[4], query))
    assert seen[0] == seen[1]
    assert all(dict(step)[f"c{cycle}.2"] >= 2 for cycle, step in enumerate(seen[0][::3]))  # found
    assert vars(kernel).keys() == {"config", "codec", "n_candidates"}
    assert len(pickle.dumps(kernel)) == footprint
    assert len(parent._ref_codes) > 4 * 6  # what the parent kept: every slot it ever swept
