"""The printed paper tables, pinned.

``tests/golden/paper_tables.txt`` holds ``ExperimentResult.to_text()`` of
every simulated-clock table, figure and ablation that reads a cost chain,
a capacity or a memory footprint (the accuracy sweeps, Tables 2 and 7, are
left out).  What is pinned is the printed text, not the raw floats: two
sums of the same step costs may differ in the last bit and still print the
same.  Re-record only on purpose, with
``PYTHONPATH=src python -m tests.test_paper_tables``.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden" / "paper_tables.txt"
EXPERIMENTS = [
    "fig1", "table1", "table3", "fig4", "table4", "table5", "table6", "sec8",
    "device-sweep", "ablation-query-batch", "backends",
]


def printed() -> str:
    return "".join(f"[{name}]\n{ALL_EXPERIMENTS[name].run().to_text()}\n\n" for name in EXPERIMENTS)


def test_the_paper_tables_print_the_golden_text():
    assert printed() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(printed())
    print(f"wrote {GOLDEN}")
