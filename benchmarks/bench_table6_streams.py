"""Table 6 — multi-stream overlap of PCIe transfer and compute."""

from conftest import attach_summary, record_result
from repro.bench.experiments import table6_streams
from repro.bench.tables import swept
from repro.core import EngineConfig
from repro.gpusim import TESLA_P100


def test_table6_rows(benchmark):
    result = table6_streams.run()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark(table6_streams.run)
    b512 = [row for row in result.rows if row[0] == 512]
    speeds = [row[3] for row in b512]
    assert speeds == sorted(speeds)  # more streams, more speed
    assert result.summary["b512_s8_efficiency"] > 0.80  # paper 87.3%
    assert result.summary["theoretical_images_per_s"] < 49000  # PCIe bound


def test_stream_planner_kernel(benchmark):
    """One timing-only engine sweep of Table 6's 8-stream, batch-512 row."""
    benchmark(swept, TESLA_P100, EngineConfig(batch_size=512, streams=8), 8, host=True)
