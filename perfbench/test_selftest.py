"""Self-test of the benchmark itself, at tiny op counts.

    python -m pytest perfbench/test_selftest.py

Not part of the tier-1 suite (``testpaths`` is ``tests``).  The three
service-scale workloads run in-process in a second or two each;
``engine_paper`` costs ~10 s per pass even at one op, so only its input
generation is exercised here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_SECONDS = 0.5
SERVICE_WORKLOADS = ("rest_fanout", "serving_fused", "mutation_mix")
EXACT_METRICS = [m.name for m in metrics.END_TO_END if m.bound == metrics.EXACT]


def test_metric_names_and_units_are_well_formed():
    names = [name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(workloads.WORKLOADS):
        assert metrics.NAME_PATTERN.match(name), name
    assert len(metrics.PER_LAYER) <= 128


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    assert spec["end_to_end"] == metrics.contract_end_to_end()
    assert spec["per_layer"] == metrics.contract_per_layer()
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_exact_metrics_and_digests_repeat(name, tmp_path):
    first = harness.run_pass(name, seed=5, seconds=TINY_SECONDS, traced=False, out_dir=tmp_path)
    second = harness.run_pass(name, seed=5, seconds=TINY_SECONDS, traced=False, out_dir=tmp_path)
    assert first["correct"], first["problems"]
    for metric in EXACT_METRICS:
        if metric in first["end_to_end"]:
            assert first["end_to_end"][metric] == second["end_to_end"][metric], metric
    for digest in ("verdict_digest", "sim_digest"):
        assert first["digests"][digest] == second["digests"][digest]
    assert set(first["end_to_end"]) == {m for m, where in metrics.WHERE.items() if name in where}


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_traced_pass_attributes_the_window_and_cleans_up(name, tmp_path):
    plain = harness.run_pass(name, seed=5, seconds=TINY_SECONDS, traced=False, out_dir=tmp_path)
    traced = harness.run_pass(name, seed=5, seconds=TINY_SECONDS, traced=True, out_dir=tmp_path)
    assert tracer.leftover_wrappers() == []
    assert traced["correct"], traced["problems"]
    assert abs(traced["self_time_explained"] - 1.0) <= harness.SELF_TIME_TOLERANCE
    assert traced["digests"] == plain["digests"]
    layers = traced["per_layer"]
    assert set(layers) <= {metric for metric, *_ in metrics.PER_LAYER}
    assert layers["topk.calls"] > 0 and layers["blas.calls"] == layers["topk.calls"]
    assert layers["features.query_prep_per_request"] == workloads.WORKLOADS[name].nodes
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert len(trace["spans"]) > layers["topk.calls"]
    if name == "mutation_mix":
        assert layers["kvstore.bytes_written"] > 0 and layers["features.ref_prep_ms"] > 0
    if name == "serving_fused":
        assert layers["serving.groups"] == traced["attempted"]


def test_engine_paper_inputs_follow_the_seed():
    workload = workloads.WORKLOADS["engine_paper"]
    one = workload.generate(seed=1, scale=0.05)
    again = workload.generate(seed=1, scale=0.05)
    other = workload.generate(seed=2, scale=0.05)
    assert len(one["references"]) == 64 and one["references"][0][1].shape == (128, 384)
    assert np.array_equal(one["queries"][0][1], again["queries"][0][1])
    assert not np.array_equal(one["queries"][0][1], other["queries"][0][1])


def test_command_line_contract(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, str(HERE / "run.py"), "--workload", "rest_fanout", "--seed", "2",
               "--seconds", str(TINY_SECONDS), "--out", str(tmp_path / "result.json")]
    for trace, block in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(command + ["--trace", trace], stdout=subprocess.PIPE, text=True)
        assert done.returncode == 0
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in spec[block]]
        for m in spec[block]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert "rest_fanout op_p90_ms " in done.stdout

    # with nothing but BENCHMARK.json and perfbench/ there is no program to measure
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    bare = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rest_fanout",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert bare.returncode != 0 and bare.stdout == ""
