"""Benchmark harness: table formatting and experiment runners.

Experiment runners are exercised at reduced scale here; the full-scale
rows live under ``benchmarks/``.
"""

import pytest

from repro.bench import ExperimentResult, format_table
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    fig1_waterfall,
    fig4_batching,
    sec8_distributed,
    table1_cublas,
    table3_batch_steps,
    table4_efficiency,
    table5_hybrid_cache,
    table6_streams,
)
from repro.core import EngineConfig, TextureSearchEngine
from repro.gpusim import GPUDevice, TESLA_P100


class TestTables:
    def test_format_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 10_000]], title="T")
        assert "a" in text and "x" in text and "10,000" in text
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_result_accessors(self):
        result = ExperimentResult("t", ["k", "v"], [["a", 1], ["b", 2]])
        assert result.column("v") == [1, 2]
        assert result.row_by("k", "b") == ["b", 2]
        with pytest.raises(KeyError):
            result.row_by("k", "c")
        assert "t" in result.to_text()

    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) >= {
            "fig1", "table1", "table2", "table3", "fig4",
            "table4", "table5", "table6", "table7", "sec8",
            "ablation-sort", "ablation-query-batch",
            "ablation-cbir",
            "fault-tolerance", "backends",
        }


class TestFaultToleranceExperiment:
    def test_reduced_scale_sweep(self):
        from repro.bench.experiments import fault_tolerance

        result = fault_tolerance.run(
            n_nodes=3, n_refs=6, n_queries=4, failure_rates=(0.0, 0.2)
        )
        assert result.summary["clean_recall"] == 1.0
        assert result.column("failure rate") == [0.0, 0.2]
        clean = result.row_by("failure rate", 0.0)
        assert clean[2] == 0  # no partial answers without faults


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1_cublas.run()

    def test_speed_ordering(self, result):
        speeds = result.row_by("Execution step", "Speed (images/s)")[1:]
        opencv, garcia, ours, ours16 = speeds
        assert opencv < garcia < ours  # each optimization step wins
        assert ours16 < ours  # fp16 dips at batch 1 (Sec. 4.2)

    def test_paper_speeds(self, result):
        speeds = result.row_by("Execution step", "Speed (images/s)")[1:]
        for got, paper in zip(speeds, [2012, 3027, 6734, 5917]):
            assert got == pytest.approx(paper, rel=0.05)

    def test_sort_reduction(self, result):
        """Paper: the top-2 scan cuts sorting time by 81.9%."""
        assert result.summary["scan_vs_insertion_sort_reduction"] == pytest.approx(0.819, abs=0.03)

    def test_fp16_halves_memory(self, result):
        assert result.summary["fp16_memory_saving"] == pytest.approx(0.464, abs=0.03)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_batching.run(batches=[1, 16, 256, 1024])

    def test_monotone_speed(self, result):
        for col in ("P100 (img/s)", "V100 (img/s)"):
            speeds = result.column(col)
            assert speeds == sorted(speeds)

    def test_speedup_bands(self, result):
        assert result.summary["p100_speedup"] == pytest.approx(7.9, rel=0.12)
        assert 1.15 < result.summary["tensor_core_gain_at_max_batch"] < 1.4
        assert result.summary["tensor_core_gain_at_batch1"] < result.summary["tensor_core_gain_at_max_batch"]

    def test_flattens_past_256(self, result):
        p100 = result.column("P100 (img/s)")
        assert p100[-1] / p100[-2] < 1.05  # 256 -> 1024 nearly flat

    def test_p100_peak(self, result):
        assert result.summary["p100_peak"] == pytest.approx(45539, rel=0.03)


class TestTable3:
    def test_reductions(self):
        result = table3_batch_steps.run()
        assert result.summary["sort_reduction"] == pytest.approx(0.945, abs=0.03)
        assert result.summary["hgemm_reduction"] == pytest.approx(0.556, abs=0.06)
        assert result.summary["speedup"] > 6


class TestTable4:
    def test_efficiencies(self):
        result = table4_efficiency.run()
        assert result.summary["Tesla P100 card"] == pytest.approx(0.358, abs=0.03)
        tc = result.summary["Tesla V100 card w/ Tensor Core"]
        no_tc = result.summary["Tesla V100 card w/o Tensor Core"]
        assert tc < no_tc  # the paper's headline irony: TC eff. is low


class TestTable5:
    def test_ordering_and_magnitude(self):
        result = table5_hybrid_cache.run()
        gpu = result.row_by("Cache type", "GPU memory")[1]
        pinned = result.row_by("Cache type", "Host memory w/ pinned")[1]
        pageable = result.row_by("Cache type", "Host memory w/o pinned")[1]
        assert pageable < pinned < gpu
        assert gpu == pytest.approx(45539, rel=0.03)
        assert pinned == pytest.approx(25362, rel=0.10)
        assert pageable == pytest.approx(17619, rel=0.10)


class TestTable6:
    def test_stream_scaling(self):
        result = table6_streams.run()
        assert result.summary["theoretical_images_per_s"] == pytest.approx(47592, rel=0.02)
        assert result.summary["b512_s8_efficiency"] == pytest.approx(0.873, abs=0.05)
        speeds = [row[3] for row in result.rows if row[0] == 512]
        assert speeds == sorted(speeds)


class TestFig1:
    def test_headline_claims(self):
        result = fig1_waterfall.run()
        assert result.summary["final_speedup"] == pytest.approx(31.0, rel=0.15)
        assert result.summary["final_capacity_gain"] == pytest.approx(20.0, rel=0.15)

    def test_every_capacity_is_what_an_engine_so_configured_holds(self):
        """A P100 engine per stage, with the 64 GB host cache from the hybrid
        stage on: its ``capacity_images()`` is the stage's capacity cell
        (412,901 and 825,803 for the two hybrid stages, where an image may
        not straddle the GPU and the host)."""
        host = 64 * 10**9
        stages = [
            (EngineConfig(backend="opencv", precision="fp32"), 0),
            (EngineConfig(backend="algorithm1", precision="fp32"), 0),
            (EngineConfig(backend="algorithm1", precision="fp16"), 0),
            (EngineConfig(), 0),
            (EngineConfig(), host),
            (EngineConfig(m=384, n=768), host),
        ]
        engines = [TextureSearchEngine(config, device=GPUDevice(TESLA_P100), host_cache_bytes=host_bytes)
                   for config, host_bytes in stages]
        column = fig1_waterfall.run().column("capacity (images)")
        assert [engine.capacity_images() for engine in engines] == column
        assert column[-2:] == [412_901, 825_803]


class TestSec8:
    def test_full_scale_arithmetic_and_functional_cluster(self):
        result = sec8_distributed.run(functional_nodes=2, functional_bricks=6)
        assert result.summary["functional_top1_correct"]
        assert result.summary["functional_images_searched"] == 6
        # paper: 10.8M capacity, 872,984 img/s
        assert result.summary["cluster_capacity_images"] == pytest.approx(10.8e6, rel=0.05)
        assert result.summary["cluster_speed_images_per_s"] == pytest.approx(872984, rel=0.15)
