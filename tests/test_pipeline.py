"""Multi-stream scheduler model and the event-driven stream simulation's
division of batches over streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.tables import staged_batch
from repro.core import EngineConfig
from repro.gpusim import KernelCalibration, TESLA_P100
from repro.pipeline import (
    overlap_us,
    plan_streams,
    simulate_stream_pipeline,
    stream_extra_gpu_bytes,
)

SPEC = TESLA_P100
CAL = KernelCalibration.for_device(SPEC)
SMALL = staged_batch(SPEC, EngineConfig(m=96, n=128), 4)


def plan(streams: int, batch: int, **config):
    """The overlap model over one host-resident ``batch`` as the engine prices it."""
    return plan_streams(streams, batch, *staged_batch(SPEC, EngineConfig(**config), batch))


def simulated(streams: int, n_batches: int):
    return simulate_stream_pipeline(SPEC, CAL, streams, n_batches, 4, *SMALL)


def issued(streams: int, n_batches: int) -> dict:
    """Busy time per step of ``n_batches`` small host-resident batches
    simulated over ``streams`` streams."""
    return simulated(streams, n_batches).engine_busy_us


class TestPartition:
    """The event simulation divides its batches over the streams: every
    batch is issued exactly once, whatever the stream count."""

    def test_even_split(self):
        """Four batches over two streams: each issued once, and one stream's
        copies overlap the other's compute."""
        assert issued(2, 4) == pytest.approx({step: 4 * us for step, us in issued(1, 1).items()})
        two, one = (simulated(s, 4) for s in (2, 1))
        assert two.elapsed_us < one.elapsed_us

    def test_uneven_split(self):
        assert issued(3, 10) == pytest.approx({step: 10 * us for step, us in issued(1, 1).items()})

    def test_more_workers_than_items(self):
        one = simulated(1, 1)
        spread = simulated(3, 1)
        assert spread.elapsed_us == one.elapsed_us  # idle streams issue nothing

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulate_stream_pipeline(SPEC, CAL, 0, 1, 4, *SMALL)

    @given(st.integers(1, 50), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, n_batches, streams):
        busy = issued(streams, n_batches)
        assert busy == pytest.approx({step: n_batches * us for step, us in issued(1, 1).items()})


class TestStreamPlan:
    def test_more_streams_more_throughput(self):
        speeds = [
            plan(s, 512).throughput_images_per_s for s in (1, 2, 4, 8)
        ]
        assert speeds == sorted(speeds)

    def test_never_exceeds_theoretical(self):
        for streams in (1, 2, 4, 8, 16):
            planned = plan(streams, 512)
            assert planned.throughput_images_per_s <= planned.theoretical_images_per_s * 1.0001

    def test_table6_efficiency_band(self):
        """Paper: 52.5% at 1 stream -> 87.3% at 8 streams (batch 512)."""
        eff1 = plan(1, 512).schedule_efficiency
        eff8 = plan(8, 512).schedule_efficiency
        assert 0.40 < eff1 < 0.60
        assert 0.80 < eff8 < 0.95

    def test_theoretical_speed_matches_paper(self):
        """Sec. 6.2: PCIe-bound theoretical speed ~47,592 img/s."""
        assert plan(1, 512).theoretical_images_per_s == pytest.approx(47592, rel=0.02)

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
        planned = plan(16, 512, m=384)
        compute_cap = 512 / planned.busy_us * 1e6
        assert planned.throughput_images_per_s <= compute_cap * 1.0001

    @given(st.integers(1, 16), st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_the_overlap_sits_between_the_device_and_the_serial_cycle(self, streams, h2d, busy, post):
        """More streams never cost more than one, and never less than the
        device work itself; one stream is the serial cycle, post-processing in."""
        planned = plan_streams(streams, 1, h2d, [("compute", busy, "GEMM"), ("cpu", post, "Post")])
        assert busy <= planned.cycle_us <= planned.serial_us == h2d + busy + post
        assert planned.hidden_us >= 0
        assert planned.cycle_us == (planned.serial_us if streams == 1 else overlap_us(streams, h2d, busy))

    def test_no_host_work_hides_nothing(self):
        assert plan_streams(4, 0, 0.0, []).hidden_us == 0.0

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            plan_streams(0, 512, *staged_batch(SPEC, EngineConfig(), 512))
        with pytest.raises(ValueError):
            stream_extra_gpu_bytes(0, 512, 768, 768)
