"""The committed ``BENCH_*.json`` are the evidence CHANGES.md and
EXPERIMENTS.md quote: a ``--quick`` smoke run (smaller corpus, coarser
grid) must never be what is checked in."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_committed_bench_artifact_is_a_quick_run():
    artifacts = sorted(ROOT.glob("BENCH_*.json"))
    assert len(artifacts) >= 7
    quick = [path.name for path in artifacts if json.loads(path.read_text()).get("quick")]
    assert quick == []
