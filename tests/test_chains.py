"""The serial chains the paper's tables add up, read from the engine's own
match kernels: Table 1's per-image chain, Table 3's batch chain and
Table 5's cache locations."""

import pytest

from repro.bench import ALL_EXPERIMENTS, images_per_s, kernel_steps
from repro.bench.experiments import table1_cublas, table3_batch_steps
from repro.core import EngineConfig
from repro.gpusim import TESLA_P100


def per_image_us(backend: str, precision: str = "fp32") -> float:
    return sum(us for _, us, _ in kernel_steps(TESLA_P100, EngineConfig(backend=backend, precision=precision)))


class TestAlgorithm1Steps:
    def test_step_names_match_table1(self):
        steps = kernel_steps(TESLA_P100, EngineConfig(backend="algorithm1", precision="fp32"))
        assert [table1_cublas.ROWS[step] for _, _, step in steps] == [
            "GEMM/step3", "Add N_R/step4", "Top-2 sort/step5",
            "Add N_Q and Sqrt/step6&7", "D2H copy/step8", "Post-processing/CPU",
        ]

    def test_insertion_total_matches_garcia(self):
        """Table 1 column 2: 330.3 us."""
        assert per_image_us("garcia") == pytest.approx(330.3, rel=0.02)

    def test_scan_total_matches_ours(self):
        """Table 1 column 3: 148.5 us."""
        assert per_image_us("algorithm1") == pytest.approx(148.5, rel=0.02)


class TestAlgorithm2Steps:
    def test_step_names_match_table3(self):
        steps = kernel_steps(TESLA_P100, EngineConfig(), 4)
        assert list(table3_batch_steps.table_rows(steps)) == [
            "HGEMM/step1", "Sort and Sqrt/step2&3",
            "D2H memory copy/step4", "Post-processing/CPU",
        ]

    def test_batch_1024_total(self):
        """Table 3: 21.96 us/img at batch 1024."""
        steps = kernel_steps(TESLA_P100, EngineConfig(), 1024)
        assert sum(us for _, us, _ in steps) / 1024 == pytest.approx(21.96, rel=0.02)

    def test_chain_speed(self):
        """Table 3's speed row is its batch over its total row."""
        steps = [("compute", 50.0, "GEMM"), ("cpu", 50.0, "Post-processing")]
        assert images_per_s(steps, 2) == pytest.approx(20_000.0)
        table = ALL_EXPERIMENTS["table3"].run()
        total = table.row_by("Execution step", "Total time (us)")
        speed = table.row_by("Execution step", "Speed (images/s)")
        assert speed[1:] == [pytest.approx(1e6 / us, rel=1e-3) for us in total[1:]]


class TestHybridSpeed:
    def test_location_ordering(self):
        table = ALL_EXPERIMENTS["table5"].run()
        gpu, pinned, pageable = (table.row_by("Cache type", label)[1] for label in (
            "GPU memory", "Host memory w/ pinned", "Host memory w/o pinned"))
        assert pageable < pinned < gpu

    def test_asymmetric_m_relaxes_transfer(self):
        """Sec. 7: halving m halves the PCIe requirement."""
        def pinned(m):
            return ALL_EXPERIMENTS["table5"].run(m=m).row_by("Cache type", "Host memory w/ pinned")[1]

        assert pinned(384) > 1.5 * pinned(768)
