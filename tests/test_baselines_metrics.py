"""Baselines (OpenCV CUDA, Garcia cuBLAS) and efficiency metrics."""

import numpy as np
import pytest

from repro.baselines import CONTEXT_OVERHEAD_BYTES
from repro.bench import kernel_steps
from repro.core import EngineConfig, TextureSearchEngine
from repro.gpusim import TESLA_P100, TESLA_V100
from repro.metrics import gemm_flops_per_image, gpu_efficiency
from tests.conftest import make_descriptors, noisy_copy, pairs


def per_image_us(spec, backend: str) -> float:
    """What the backend's engine kernel charges to compare one image."""
    return sum(us for _, us, _ in kernel_steps(spec, EngineConfig(backend=backend, precision="fp32")))


def table1_memory_mb(precision: str, backend: str, references: int = 10_000) -> float:
    """Table 1's last row: what ``references`` cached matrices occupy on the device."""
    per_image = EngineConfig(backend=backend, precision=precision).feature_matrix_bytes()
    return (references * per_image + CONTEXT_OVERHEAD_BYTES) / 1e6


class TestOpencvBaseline:
    def test_results_match_algorithm1(self):
        """The opencv backend computes Algorithm 1 in FP32: the same matches
        through the engine."""
        refs = {f"r{i}": make_descriptors(24, seed=i) for i in range(3)}
        query = noisy_copy(refs["r0"], 20.0, seed=1)
        answers = {}
        for backend in ("opencv", "algorithm1"):
            engine = TextureSearchEngine(EngineConfig(m=24, n=24, backend=backend, precision="fp32",
                                                      batch_size=2, min_matches=2))
            for ref_id, descriptors in refs.items():
                engine.add_reference(ref_id, descriptors)
            answers[backend] = pairs(engine.search(query))
        assert answers["opencv"] == answers["algorithm1"]
        assert max(good for _, good in answers["opencv"]) > 0

    def test_paper_speed_p100(self):
        """Table 1: OpenCV CUDA = 2,012 img/s on P100 (497 us/img)."""
        assert per_image_us(TESLA_P100, "opencv") == pytest.approx(497.0, rel=0.02)
        assert 1e6 / per_image_us(TESLA_P100, "opencv") == pytest.approx(2012, rel=0.05)

    def test_paper_speed_v100(self):
        """Sec. 3.3: 2,937 img/s on V100 (we accept a wider band)."""
        assert 1e6 / per_image_us(TESLA_V100, "opencv") == pytest.approx(2937, rel=0.25)

    def test_memory_matches_table1(self):
        assert table1_memory_mb("fp32", "opencv") == pytest.approx(4271, rel=0.01)

    def test_validation(self):
        engine = TextureSearchEngine(EngineConfig(m=24, n=24, backend="opencv", precision="fp32"))
        with pytest.raises(ValueError):
            engine.add_reference("r", np.ones((4, 3), np.float32))


class TestGarciaBaseline:
    def test_functionally_identical_to_ours(self):
        """The garcia backend is Algorithm 1 with another sort: the same
        matches through the engine, at a higher per-image cost."""
        refs = {f"r{i}": make_descriptors(16, seed=2 + i) for i in range(3)}
        query = noisy_copy(refs["r1"], 20.0, seed=3)
        answers = {}
        for backend in ("garcia", "algorithm1"):
            engine = TextureSearchEngine(EngineConfig(m=16, n=16, backend=backend, precision="fp32",
                                                      batch_size=2, min_matches=2))
            for ref_id, descriptors in refs.items():
                engine.add_reference(ref_id, descriptors)
            answers[backend] = engine.search(query)
        garcia, ours = answers["garcia"], answers["algorithm1"]
        assert pairs(garcia) == pairs(ours)
        assert pairs(garcia) and garcia.elapsed_us > ours.elapsed_us

    def test_memory_matches_table1(self):
        assert table1_memory_mb("fp32", "garcia") == pytest.approx(4307, rel=0.01)
        assert table1_memory_mb("fp16", "garcia") == pytest.approx(2307, rel=0.01)


class TestEfficiencyMetrics:
    def test_flops_per_image(self):
        assert gemm_flops_per_image(768, 768, 128) == 2 * 768 * 768 * 128

    def test_table4_p100_row(self):
        """45,539 img/s on P100 => ~6.7-6.9 TFLOPS => ~36% of 18.7.

        (The paper's own cells are ~3% inconsistent: 45,539 x 2mnd is
        6.88 TFLOPS, its table prints 6.69 — we allow that slack.)
        """
        report = gpu_efficiency(TESLA_P100, 45539)
        assert report.achieved_tflops == pytest.approx(6.69, rel=0.04)
        assert report.efficiency == pytest.approx(0.358, rel=0.04)

    def test_table4_v100_tensor_core_row(self):
        report = gpu_efficiency(TESLA_V100, 86519, tensor_core=True)
        assert report.efficiency == pytest.approx(0.114, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            gemm_flops_per_image(0, 1, 1)
        with pytest.raises(ValueError):
            gpu_efficiency(TESLA_P100, -1)
