"""Query batching: multi-query kernel, engine API, trade-off model."""

import numpy as np
import pytest

from repro.bench import kernel_steps
from repro.bench.experiments.ablations import run_query_batch_ablation
from repro.core import EngineConfig, TextureSearchEngine, knn_algorithm2, knn_algorithm2_multiquery
from repro.features import rootsift
from repro.gpusim import TESLA_P100
from tests.conftest import make_descriptors, noisy_copy, pairs


def rootsift_batch(count, m, seed):
    return np.stack([rootsift(make_descriptors(m, seed=seed + i)) for i in range(count)])


class TestMultiQueryKernel:
    def test_matches_single_query_runs(self, p100):
        refs = rootsift_batch(3, 12, seed=0)
        queries = np.stack([
            rootsift(noisy_copy(make_descriptors(12, seed=0), 25.0, seed=50)),
            rootsift(noisy_copy(make_descriptors(12, seed=1), 25.0, seed=51)),
        ])
        multi = knn_algorithm2_multiquery(p100, refs, queries, precision="fp32")
        for q in range(2):
            single = knn_algorithm2(p100, refs, queries[q], precision="fp32")
            np.testing.assert_allclose(multi.distances[:, q], single.distances, atol=1e-4)
            np.testing.assert_array_equal(multi.indices[:, q], single.indices)

    def test_single_fused_gemm(self, p100):
        refs = rootsift_batch(2, 8, seed=10)
        queries = rootsift_batch(4, 8, seed=20)
        knn_algorithm2_multiquery(p100, refs, queries, precision="fp32")
        gemm = [r for r in p100.profiler.records() if r.name == "GEMM"]
        assert gemm[0].calls == 1

    def test_fp16_path(self, p100):
        scale = 0.25
        refs = (rootsift_batch(2, 8, seed=30) * scale).astype(np.float16)
        queries = (rootsift_batch(3, 8, seed=30) * scale).astype(np.float16)
        result = knn_algorithm2_multiquery(p100, refs, queries, scale=scale, precision="fp16")
        assert result.n_queries == 3
        assert result.distances.shape == (2, 3, 2, 8)

    def test_validation(self, p100):
        with pytest.raises(ValueError, match="references"):
            knn_algorithm2_multiquery(p100, np.ones((2, 4), np.float32), np.ones((1, 4, 4), np.float32))
        with pytest.raises(ValueError, match="dimension"):
            knn_algorithm2_multiquery(p100, np.ones((1, 4, 4), np.float32), np.ones((1, 5, 4), np.float32))


class TestEngineSearchMany:
    def test_results_match_sequential_search(self):
        cfg = EngineConfig(m=48, n=48, batch_size=4, min_matches=5, scale_factor=0.25)
        descs = {i: make_descriptors(48, seed=600 + i) for i in range(8)}
        multi_engine = TextureSearchEngine(cfg)
        seq_engine = TextureSearchEngine(cfg)
        for i, d in descs.items():
            multi_engine.add_reference(f"r{i}", d)
            seq_engine.add_reference(f"r{i}", d)
        queries = [noisy_copy(descs[2], 8.0, seed=61), noisy_copy(descs[5], 8.0, seed=62)]
        grouped = multi_engine.search_group(queries).answers
        assert len(grouped) == 2
        assert grouped[0].best().reference_id == "r2"
        assert grouped[1].best().reference_id == "r5"
        for q, grouped_result in zip(queries, grouped):
            solo = seq_engine.search(q)
            assert solo.best().reference_id == grouped_result.best().reference_id
            assert solo.best().good_matches == grouped_result.best().good_matches

    def test_group_latency_shared(self):
        cfg = EngineConfig(m=32, n=32, batch_size=4, scale_factor=0.25)
        engine = TextureSearchEngine(cfg)
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=700 + i))
        results = engine.search_group(
            [make_descriptors(32, seed=710 + i) for i in range(3)]
        ).answers
        assert len({r.elapsed_us for r in results}) == 1  # one group time

    def test_requires_rootsift(self):
        """Only a group of *two or more* needs the multi-query
        (RootSIFT) backend; a group of one answers like ``search``."""
        cfg = EngineConfig(m=32, n=32, backend="algorithm1", precision="fp32", batch_size=4)
        engine, twin = TextureSearchEngine(cfg), TextureSearchEngine(cfg)
        descs = {i: make_descriptors(32, seed=720 + i) for i in range(5)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
            twin.add_reference(f"r{i}", d)
        query = noisy_copy(descs[3], 8.0, seed=72)
        with pytest.raises(ValueError, match="RootSIFT"):
            engine.search_group([query, query])
        (grouped,) = engine.search_group([query]).answers
        solo = twin.search(query)
        assert grouped.best().reference_id == "r3"
        assert grouped.elapsed_us == solo.elapsed_us
        assert pairs(grouped) == pairs(solo)

    def test_empty_input(self):
        engine = TextureSearchEngine(EngineConfig(m=32, n=32, batch_size=4))
        assert engine.search_group([]).answers == ()

    def test_respects_tombstones(self):
        cfg = EngineConfig(m=32, n=32, batch_size=2, scale_factor=0.25)
        engine = TextureSearchEngine(cfg)
        descs = {i: make_descriptors(32, seed=800 + i) for i in range(4)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
        engine.remove_reference("r1")
        results = engine.search_group([noisy_copy(descs[1], 8.0, seed=81)]).answers
        assert all(ref_id != "r1" for ref_id, _ in pairs(results[0]))


class TestTradeoffModel:
    """The ``ablation-query-batch`` curve, built from what the Algorithm-2
    kernel charges a query group of each width."""

    def test_throughput_rises_latency_rises(self):
        result = run_query_batch_ablation(query_batches=[1, 4, 16])
        throughputs = result.column("throughput (pairs/s)")
        latencies = result.column("latency per query (ms)")
        assert throughputs == sorted(throughputs)
        assert latencies == sorted(latencies)
        assert throughputs[-1] / throughputs[0] > 1.3  # PCIe amortisation

    def test_gpu_resident_gain_is_smaller(self):
        """Without the per-batch PCIe copy to amortise, a wider group gains
        only what the kernel's own chain amortises."""
        config = EngineConfig(m=384, n=768, precision="fp16")

        def batch_us(width):
            return sum(us for _, us, _ in kernel_steps(TESLA_P100, config, 256, width))

        gain_resident = 16 * batch_us(1) / batch_us(16)
        streamed = run_query_batch_ablation(query_batches=[1, 16]).column("throughput (pairs/s)")
        assert streamed[1] / streamed[0] > gain_resident > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_query_batch_ablation(query_batches=[0])
        with pytest.raises(ValueError):
            run_query_batch_ablation(reference_count=10)
