"""Design-choice ablations (DESIGN.md Sec. 4): sort kernel, query
batching, CBIR vs. identification, verification ROC, LSH compression."""

from conftest import QUICK, attach_summary, record_result
from repro.bench.experiments import ablations


def test_ablation_sort_kernel(benchmark):
    result = ablations.run_sort_ablation()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark(ablations.run_sort_ablation)
    assert result.summary["batch1_scan_speedup"] > 4.0
    assert result.summary["fp16_scan_penalty_batch1"] > 1.3
    assert result.summary["fp16_scan_gain_large_batch"] > 1.2


def test_ablation_query_batching(benchmark):
    result = ablations.run_query_batch_ablation()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark(ablations.run_query_batch_ablation)
    assert result.summary["throughput_gain"] > 1.3
    assert result.summary["latency_cost"] > 5.0


def test_ablation_verification_roc(benchmark):
    result = ablations.run_verification_ablation()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark.pedantic(
        ablations.run_verification_ablation, kwargs=dict(n_bricks=6),
        rounds=1, iterations=1,
    )
    assert result.summary["eer"] < 0.15
    assert result.summary["genuine_median"] > 4 * max(result.summary["impostor_median"], 1)


def test_ablation_lsh_compression(benchmark):
    n_bricks = 8 if QUICK else 16
    result = ablations.run_lsh_ablation(n_bricks=n_bricks)
    record_result(result)
    attach_summary(benchmark, result)
    benchmark.pedantic(
        ablations.run_lsh_ablation, kwargs=dict(n_bricks=6, bit_widths=[64]),
        rounds=1, iterations=1,
    )
    assert result.summary["lsh64_impostor_median"] >= result.summary["lsh1024_impostor_median"]


def test_ablation_cbir(benchmark):
    n_bricks = 12 if QUICK else 40
    result = ablations.run_cbir_ablation(n_bricks=n_bricks)
    record_result(result)
    attach_summary(benchmark, result)
    benchmark.pedantic(
        ablations.run_cbir_ablation, kwargs=dict(n_bricks=8),
        rounds=1, iterations=1,
    )
    assert result.summary["identification_decisive"] >= 0.8
    assert result.summary["decisive_gap"] > 0.3
