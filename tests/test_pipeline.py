"""Table 6's multi-stream overlap: how the engine's sweep divides its host
batches over streams, the rule it applies, and the rows Table 6 reads off
timing-only sweeps of the engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import table6_streams
from repro.bench.experiments.table6_streams import stream_extra_gpu_bytes
from repro.bench.tables import kernel_steps, swept
from repro.core import EngineConfig
from repro.core.engine import hidden_us, overlap_us
from repro.gpusim import TESLA_P100

SPEC = TESLA_P100
SMALL = EngineConfig(m=96, n=128, batch_size=4)


def host_sweep(streams: int, n_batches: int):
    """A timing-only sweep of ``n_batches`` small host-resident batches
    over ``streams`` streams: the sweep and its µs per step."""
    return swept(SPEC, SMALL.with_updates(streams=streams), n_batches, host=True)


def charged(streams: int, n_batches: int) -> dict:
    return host_sweep(streams, n_batches)[1]


def rows(*grid, m=768):
    """``(speed, schedule efficiency)`` of Table 6's rows at ``grid``'s
    (batch, streams) cells, and the table's PCIe bound."""
    result = table6_streams.run(SPEC, grid=list(grid), m=m)
    cells = [(row[3], float(row[4].rstrip("%")) / 100) for row in result.rows]
    return cells, result.summary["theoretical_images_per_s"]


class TestPartition:
    """The sweep divides its host batches over the streams: every batch is
    staged and charged exactly once, whatever the stream count — streams
    change the clock, never what is charged."""

    def test_even_split(self):
        """Four batches over two streams: each charged once, and one stream's
        copies overlap the other's compute."""
        assert charged(2, 4) == pytest.approx({step: 4 * us for step, us in charged(1, 1).items()})
        (two, _), (one, _) = (host_sweep(s, 4) for s in (2, 1))
        assert two.elapsed_us < one.elapsed_us

    def test_uneven_split(self):
        assert charged(3, 10) == pytest.approx({step: 10 * us for step, us in charged(1, 1).items()})

    def test_more_workers_than_items(self):
        one, spread = host_sweep(1, 1), host_sweep(3, 1)
        assert spread[1] == one[1]  # the same charges, only fewer of them serialised
        assert spread[0].elapsed_us <= one[0].elapsed_us

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            host_sweep(0, 1)

    @given(st.integers(1, 50), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, n_batches, streams):
        busy = charged(streams, n_batches)
        assert busy == pytest.approx({step: n_batches * us for step, us in charged(1, 1).items()})


class TestStreamPlan:
    def test_more_streams_more_throughput(self):
        cells, _ = rows(*((512, s) for s in (1, 2, 4, 8)))
        speeds = [speed for speed, _ in cells]
        assert speeds == sorted(speeds)

    def test_never_exceeds_theoretical(self):
        cells, bound = rows(*((512, s) for s in (1, 2, 4, 8, 16)))
        for speed, efficiency in cells:
            assert speed <= bound * 1.0001
            assert efficiency <= 1.0

    def test_table6_efficiency_band(self):
        """Paper: 52.5% at 1 stream -> 87.3% at 8 streams (batch 512)."""
        (_, eff1), (_, eff8) = rows((512, 1), (512, 8))[0]
        assert 0.40 < eff1 < 0.60
        assert 0.80 < eff8 < 0.95

    def test_theoretical_speed_matches_paper(self):
        """Sec. 6.2: PCIe-bound theoretical speed ~47,592 img/s."""
        assert rows((512, 1))[1] == pytest.approx(47592, rel=0.02)

    def test_extra_memory_matches_table6(self):
        """Table 6 footprints: 0.989 GB (1 stream) -> 5.819 GB (8)."""
        one = stream_extra_gpu_bytes(1, 512, 768, 768)
        eight = stream_extra_gpu_bytes(8, 512, 768, 768)
        assert one == pytest.approx(0.989e9, rel=0.1)
        assert eight == pytest.approx(5.819e9, rel=0.1)

    def test_memory_linear_in_streams(self):
        marginal1 = stream_extra_gpu_bytes(2, 256, 768, 768) - stream_extra_gpu_bytes(1, 256, 768, 768)
        marginal2 = stream_extra_gpu_bytes(3, 256, 768, 768) - stream_extra_gpu_bytes(2, 256, 768, 768)
        assert marginal1 == marginal2

    def test_compute_bound_cap(self):
        """At m=384 the transfer halves and compute becomes the
        bottleneck — throughput must cap below PCIe-bound theoretical."""
        ((speed, _),), _ = rows((512, 16), m=384)
        busy = sum(us for engine, us, _ in kernel_steps(SPEC, EngineConfig(m=384), 512)
                   if engine != "cpu")
        assert speed <= 512 / busy * 1e6 * 1.0001

    @given(st.integers(1, 16), st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_the_overlap_sits_between_the_device_and_the_serial_cycle(self, streams, h2d, busy, post):
        """More streams never cost more than one, and never less than the
        device work itself; one stream is the serial cycle, post-processing in."""
        serial = h2d + busy + post
        hidden = hidden_us(streams, h2d, [("compute", busy, "GEMM"), ("cpu", post, "Post")])
        cycle = serial - hidden
        assert hidden >= 0
        assert busy - 1e-9 <= cycle <= serial
        if streams == 1:
            assert cycle == serial
        else:
            assert cycle == pytest.approx(overlap_us(streams, h2d, busy))

    def test_no_host_work_hides_nothing(self):
        assert hidden_us(4, 0.0, []) == 0.0

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            swept(SPEC, EngineConfig(batch_size=512, streams=0), 1, host=True)
        with pytest.raises(ValueError):
            stream_extra_gpu_bytes(0, 512, 768, 768)
