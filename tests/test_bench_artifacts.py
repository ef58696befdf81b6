"""The committed ``BENCH_*.json`` are the evidence CHANGES.md and
EXPERIMENTS.md quote: a ``--quick`` smoke run (smaller corpus, coarser
grid) must never be what is checked in, so ``repro.bench.run`` is the one
writer and writes only a run at the experiments' defaults."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.run import main

ROOT = Path(__file__).resolve().parent.parent


def test_no_committed_bench_artifact_is_a_quick_run():
    artifacts = sorted(ROOT.glob("BENCH_*.json"))
    assert len(artifacts) >= 7
    quick = [path.name for path in artifacts if json.loads(path.read_text()).get("quick")]
    assert quick == []


def test_a_quick_run_only_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["serving", "--quick"]) == 0
    assert "Serving" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_a_run_at_the_defaults_writes_the_committed_json_and_its_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["serving"]) == 0
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.*"))
    assert written == ["BENCH_serving.json", "benchmarks/results/serving.txt"]
    assert (tmp_path / "BENCH_serving.json").read_bytes() == (ROOT / "BENCH_serving.json").read_bytes()
    table = "benchmarks/results/serving.txt"
    assert (tmp_path / table).read_text() == (ROOT / table).read_text()
