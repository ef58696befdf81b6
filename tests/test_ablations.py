"""Ablation experiments (reduced scale)."""

import pytest

from repro.bench.experiments import ablations


class TestSortAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_sort_ablation(batches=[1, 256])

    def test_scan_always_wins(self, result):
        for row in result.rows:
            assert float(row[4].rstrip("x")) > 3.0

    def test_fp16_crossover(self, result):
        """FP16 scan slower at batch 1, faster at batch 256 (Sec. 4.2)."""
        assert result.summary["fp16_scan_penalty_batch1"] > 1.3
        assert result.summary["fp16_scan_gain_large_batch"] > 1.2


class TestQueryBatchAblation:
    def test_tradeoff_shape(self):
        result = ablations.run_query_batch_ablation(query_batches=[1, 4, 16])
        assert result.summary["throughput_gain"] > 1.3
        assert result.summary["latency_cost"] > 5.0
        latencies = result.column("latency per query (ms)")
        assert latencies == sorted(latencies)


class TestCbirAblation:
    def test_decisive_gap(self):
        """Per-image matching stays decisive; CBIR voting collapses."""
        result = ablations.run_cbir_ablation(n_bricks=16)
        assert result.summary["identification_decisive"] >= 0.8
        assert result.summary["decisive_gap"] > 0.3


class TestVerificationAblation:
    def test_roc_shape(self):
        result = ablations.run_verification_ablation(n_bricks=12)
        assert result.summary["eer"] < 0.2
        assert result.summary["genuine_median"] > result.summary["impostor_median"]
        # FRR grows with the threshold
        frrs = [float(row[2].rstrip("%")) for row in result.rows]
        assert frrs == sorted(frrs)


class TestLshAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_lsh_ablation(n_bricks=8, bit_widths=[64, 1024])

    def test_summary_is_pinned(self, result):
        """The LSH rows run ``lsh`` engines; this is the summary the
        per-feature matcher they replaced printed."""
        assert result.summary == {
            "fp16_margin": 14.5, "fp16_accuracy": 0.875,
            "lsh64_margin": pytest.approx(13.2), "lsh64_impostor_median": 2.5,
            "lsh1024_margin": 25.0, "lsh1024_impostor_median": 0.0,
        }

    def test_impostor_inflation_at_tight_budgets(self, result):
        assert (
            result.summary["lsh64_impostor_median"]
            >= result.summary["lsh1024_impostor_median"]
        )
        assert result.summary["fp16_accuracy"] >= 0.6
