"""The acceptance bars of the paper's evaluation and the system benches.

One case per experiment in ``ALL_EXPERIMENTS``.  Each runs its experiment
once, at its defaults, through ``repro.bench.run.run_experiment`` — the
function ``python -m repro.bench.run`` calls — so it writes the same
``benchmarks/results/<slug>.txt`` and ``BENCH_<experiment>.json`` a run of
the CLI writes, then checks the paper's qualitative claim (who wins, by
what factor) or the bench's acceptance bar.  Run from anywhere::

    PYTHONPATH=src python -m pytest -q benchmarks/

and ``git diff`` shows what moved.  ``backends`` and ``device-sweep`` only
regenerate their tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    cascade_bench,
    enrollment_bench,
    routing_bench,
)
from repro.bench.run import build_parser, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def fig1(result):
    assert 25.0 < result.summary["final_speedup"] < 40.0       # paper 31x
    assert 16.0 < result.summary["final_capacity_gain"] < 25.0  # paper 20x
    speeds = result.column("speed (img/s)")
    # batching is the single largest jump, as in the paper's figure
    jumps = [speeds[i + 1] / speeds[i] for i in range(len(speeds) - 1)]
    assert max(jumps) == jumps[2]


def table1(result):
    speeds = result.row_by("Execution step", "Speed (images/s)")[1:]
    opencv, garcia, ours, ours16 = speeds
    assert ours / opencv > 3.0  # paper: 3.3x
    assert garcia > opencv
    assert ours16 < ours  # FP16 batch-1 dip (Sec. 4.2)


def table2(result):
    errors = dict(zip(result.column("scale factor"), result.column("avg compression error")))
    assert errors["1"] == "overflow"
    assert errors["2^-1"] == "overflow"
    plateau = float(errors["2^-7"].rstrip("%"))
    deep = float(errors["2^-16"].rstrip("%"))
    assert 0 < plateau < 0.5
    assert deep > plateau


def table3(result):
    assert result.summary["speedup"] > 6.0           # paper: 7.9x
    assert result.summary["sort_reduction"] > 0.90   # paper: 94.5%
    assert result.summary["hgemm_reduction"] > 0.45  # paper: 55.6%


def fig4(result):
    # shape: large speedup from batching, flat past 256, TC on top
    assert 6.0 < result.summary["p100_speedup"] < 10.0
    assert result.summary["tensor_core_gain_at_max_batch"] > 1.15
    p100 = result.column("P100 (img/s)")
    assert p100[-1] / p100[-2] < 1.05


def table4(result):
    p100 = result.summary["Tesla P100 card"]
    v100 = result.summary["Tesla V100 card w/o Tensor Core"]
    tc = result.summary["Tesla V100 card w/ Tensor Core"]
    assert 0.30 < p100 < 0.42       # paper 35.8%
    assert 0.28 < v100 < 0.42       # paper 35.5%
    assert tc < 0.15                # paper 11.4% — TC peak is unreachable


def table5(result):
    gpu = result.row_by("Cache type", "GPU memory")[1]
    pinned = result.row_by("Cache type", "Host memory w/ pinned")[1]
    pageable = result.row_by("Cache type", "Host memory w/o pinned")[1]
    assert pageable < pinned < gpu  # paper's ordering
    assert 0.35 < pinned / gpu < 0.70  # paper: 44% drop to pinned host


def table6(result):
    b512 = [row for row in result.rows if row[0] == 512]
    speeds = [row[3] for row in b512]
    assert speeds == sorted(speeds)  # more streams, more speed
    assert result.summary["b512_s8_efficiency"] > 0.80  # paper 87.3%
    assert result.summary["theoretical_images_per_s"] < 49000  # PCIe bound


def table7(result):
    speeds = {(row[0], row[1]): row[3] for row in result.rows}
    assert speeds[(384, 768)] / speeds[(768, 768)] > 1.25  # paper +34.6%
    assert speeds[(384, 384)] > speeds[(384, 768)]
    acc = {(row[0], row[1]): float(row[2].rstrip("%")) for row in result.rows}
    assert acc[(768, 768)] - acc[(384, 768)] <= 3.0    # paper -0.28%
    assert acc[(384, 384)] < acc[(384, 768)] + 1e-9    # n-cut hurts
    assert acc[(256, 768)] < acc[(384, 768)] + 1e-9    # m=256 knee


def sec8(result):
    assert result.summary["functional_top1_correct"]
    # paper: 10.8 M cached matrices, 872,984 img/s, ~1.15 s for 1M
    assert result.summary["cluster_capacity_images"] == 10_824_021 or (
        abs(result.summary["cluster_capacity_images"] - 10.8e6) / 10.8e6 < 0.05
    )
    assert abs(result.summary["cluster_speed_images_per_s"] - 872_984) / 872_984 < 0.15


def serving(result):
    # batching must strictly beat per-query serving once four queries
    # contend for the device
    assert result.summary["fused_speedup_at_conc4"] > 1.0


def overload(result):
    # goodput under admission control must plateau (within 10% of its
    # peak) at 4x offered capacity, not collapse ...
    assert result.summary["goodput_plateaus"] is True
    assert result.summary["goodput_plateau_ratio"] >= 0.9
    # ... while the unprotected baseline's p99 keeps growing
    assert result.summary["unprotected_p99_growth_x"] > 1.5


def routing(result):
    # >= 5x fewer references swept at >= 0.95 recall@1 vs exhaustive on
    # the largest benched corpus ...
    assert result.summary["meets_reduction_bar"] is True
    point = result.summary["best_operating_point"]
    assert point["sweep_reduction_x"] >= routing_bench.MIN_REDUCTION
    assert point["recall_at_1_vs_exhaustive"] >= routing_bench.MIN_RECALL
    # ... and probing every list degenerates to the exhaustive path
    # bit-for-bit (routing never forks the search results)
    assert result.summary["router_off_bit_identical_at_full_probe"] is True


def cascade(result):
    # at default knobs on the largest corpus, the verdicts are bit-equal
    # to algorithm1 while >= 3x fewer descriptor pairs reach the exact
    # GEMM (prune cost charged, not free)
    assert result.summary["meets_reduction_bar"] is True
    point = result.summary["default_knobs_operating_point"]
    assert point["verdict_parity_vs_algorithm1"] is True
    assert point["gemm_pair_reduction_x"] >= cascade_bench.MIN_PAIR_REDUCTION
    assert point["cost_reduction_x"] >= cascade_bench.MIN_PAIR_REDUCTION


def enrollment(result):
    # at equal offered load, mixing enrollments into the trace degrades
    # search p99 by < 20% vs search-only ...
    assert result.summary["meets_bar"] is True
    assert result.summary["worst_p99_degradation"] < enrollment_bench.MAX_P99_DEGRADATION
    # ... and every enrollment is read-your-writes visible: the later
    # probe search returns it with corpus_epoch >= the ack's epoch
    assert result.summary["read_your_writes_recall_min"] == 1.0


def fault_tolerance(result):
    # a clean cluster must be answer-perfect, and the layer must keep
    # recall high while failing over under the worst injected rate
    assert result.summary["clean_recall"] == 1.0
    assert result.summary["worst_rate_recall"] >= 0.75
    assert result.summary["total_failed_over"] > 0
    assert result.summary["worst_rate_images_per_s"] > 0


def observability(result):
    # full instrumentation must stay under 5% wall-clock overhead on the
    # hot sweep path
    assert result.summary["within_budget"], result.summary


def slo(result):
    # on the unprotected overload replay the burn-rate alert must reach
    # CRITICAL before goodput collapses ...
    assert result.summary["critical_fired"] is True
    assert result.summary["critical_before_collapse"] is True
    assert result.summary["alert_lead_us"] > 0
    # ... the admission-controlled config never pages ...
    assert result.summary["protected_never_critical"] is True
    # ... and the telemetry itself costs <5% of a fused cluster sweep
    assert result.summary["overhead_within_budget"] is True
    assert result.summary["telemetry_overhead_pct"] < 5.0


def elastic(result):
    # the autoscaled fleet holds goodput within 5% of the peak-sized
    # static fleet at strictly fewer node-seconds ...
    assert result.summary["elastic_within_5pct_of_peak"] is True
    assert result.summary["elastic_cheaper_than_peak"] is True
    assert result.summary["node_seconds_saved"] > 0
    # ... the flash crowd pages CRITICAL and the page buys a reaction ...
    assert result.summary["flash_critical_fired"] is True
    # ... killing one replica of an R=2 shard never yields a partial ...
    assert result.summary["replica_kill_zero_partials"] is True
    # ... and the whole timeline replays byte-identically
    assert result.summary["deterministic_replay"] is True


def ablation_sort(result):
    assert result.summary["batch1_scan_speedup"] > 4.0
    assert result.summary["fp16_scan_penalty_batch1"] > 1.3
    assert result.summary["fp16_scan_gain_large_batch"] > 1.2


def ablation_query_batch(result):
    assert result.summary["throughput_gain"] > 1.3
    assert result.summary["latency_cost"] > 5.0


def ablation_cbir(result):
    assert result.summary["identification_decisive"] >= 0.8
    assert result.summary["decisive_gap"] > 0.3


def ablation_verification(result):
    assert result.summary["eer"] < 0.15
    assert result.summary["genuine_median"] > 4 * max(result.summary["impostor_median"], 1)


def ablation_lsh(result):
    assert result.summary["lsh64_impostor_median"] >= result.summary["lsh1024_impostor_median"]


BARS = {
    "fig1": fig1, "table1": table1, "table2": table2, "table3": table3, "fig4": fig4,
    "table4": table4, "table5": table5, "table6": table6, "table7": table7, "sec8": sec8,
    "serving": serving, "overload": overload, "routing": routing, "cascade": cascade,
    "enrollment": enrollment, "fault-tolerance": fault_tolerance,
    "observability": observability, "slo": slo, "elastic": elastic,
    "ablation-sort": ablation_sort, "ablation-query-batch": ablation_query_batch,
    "ablation-cbir": ablation_cbir, "ablation-verification": ablation_verification,
    "ablation-lsh": ablation_lsh,
}


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_experiment(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = run_experiment(name, build_parser().parse_args([name]))
    print("\n" + result.to_text())
    if name in BARS:
        BARS[name](result)
