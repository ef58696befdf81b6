"""Timeline tracer: capture, overlap analysis, Chrome export."""

import json

import pytest

from repro.gpusim import GPUDevice, TESLA_P100, TimelineTracer


@pytest.fixture
def traced():
    device = GPUDevice(TESLA_P100)
    tracer = TimelineTracer()
    tracer.attach(device)
    yield device, tracer
    tracer.detach()


class TestCapture:
    def test_events_recorded(self, traced):
        device, tracer = traced
        device.submit("compute", 10.0, step="GEMM")
        device.submit("h2d", 5.0, step="copy")
        assert len(tracer.events) == 2
        assert tracer.events[0].engine == "compute"
        assert tracer.events[0].duration_us == 10.0
        assert tracer.events[0].step == "GEMM"
        # same (default) stream: the copy queued behind the kernel
        assert tracer.events[1].start_us == 10.0

    def test_stream_names_captured(self, traced):
        device, tracer = traced
        s = device.create_stream("mystream")
        device.submit("compute", 1.0, stream=s)
        assert tracer.events[0].stream == "mystream"

    def test_detach_restores(self, traced):
        device, tracer = traced
        tracer.detach()
        device.submit("compute", 1.0)
        assert tracer.events == []

    def test_double_attach_rejected(self, traced):
        device, _tracer = traced
        with pytest.raises(ValueError):
            TimelineTracer().attach(device)

    def test_detach_removes_monkeypatched_submit(self, traced):
        device, tracer = traced
        tracer.detach()
        # the wrapper must be gone entirely, not replaced by a pinned
        # bound method shadowing the class implementation
        assert "submit" not in device.__dict__

    def test_attach_detach_attach_cycle(self, traced):
        device, tracer = traced
        device.submit("compute", 1.0)
        tracer.detach()
        device.submit("compute", 1.0)  # untraced
        tracer.attach(device)
        device.submit("compute", 1.0)
        assert len(tracer.events) == 2
        # a *different* tracer can also take over after detach
        tracer.detach()
        other = TimelineTracer()
        other.attach(device)
        device.submit("compute", 1.0)
        other.detach()
        assert len(other.events) == 1

    def test_detach_without_attach_is_noop(self):
        TimelineTracer().detach()  # must not raise

    def test_attached_context_manager(self):
        device = GPUDevice(TESLA_P100)
        tracer = TimelineTracer()
        with tracer.attached(device) as t:
            assert t is tracer
            device.submit("compute", 2.0)
        device.submit("compute", 2.0)  # outside the block: untraced
        assert len(tracer.events) == 1
        assert "submit" not in device.__dict__

    def test_attached_detaches_on_exception(self):
        device = GPUDevice(TESLA_P100)
        tracer = TimelineTracer()
        with pytest.raises(RuntimeError):
            with tracer.attached(device):
                raise RuntimeError("boom")
        assert "submit" not in device.__dict__
        with tracer.attached(device):  # re-attach works
            device.submit("compute", 1.0)
        assert len(tracer.events) == 1

    def test_attach_idempotent(self, traced):
        device, tracer = traced
        tracer.attach(device)  # no-op
        device.submit("compute", 1.0)
        assert len(tracer.events) == 1


class TestAnalysis:
    def test_engine_busy_and_utilisation(self, traced):
        device, tracer = traced
        s1 = device.create_stream()
        s2 = device.create_stream()
        device.submit("compute", 10.0, stream=s1)
        device.submit("h2d", 4.0, stream=s2)
        busy = tracer.engine_busy_us()
        assert busy == {"compute": 10.0, "h2d": 4.0}
        util = tracer.engine_utilisation()
        assert util["compute"] == pytest.approx(1.0)
        assert util["h2d"] == pytest.approx(0.4)

    def test_overlap_measures_concurrency(self, traced):
        device, tracer = traced
        s1 = device.create_stream()
        s2 = device.create_stream()
        device.submit("compute", 10.0, stream=s1)  # [0, 10]
        device.submit("h2d", 6.0, stream=s2)       # [0, 6]
        assert tracer.overlap_us("compute", "h2d") == pytest.approx(6.0)
        assert tracer.overlap_us("compute", "d2h") == 0.0

    def test_serial_chain_has_no_overlap(self, traced):
        device, tracer = traced
        # default stream: everything serialises
        device.submit("h2d", 5.0)
        device.submit("compute", 5.0)
        assert tracer.overlap_us("compute", "h2d") == 0.0

    def test_empty_trace(self):
        tracer = TimelineTracer()
        assert tracer.engine_utilisation() == {}
        assert tracer.engine_busy_us() == {}


class TestChromeExport:
    def test_valid_json_with_metadata(self, traced):
        device, tracer = traced
        device.submit("compute", 3.0, step="GEMM")
        device.submit("d2h", 1.0, step="result")
        payload = json.loads(tracer.to_chrome_trace())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 2
        assert {m["args"]["name"] for m in meta} == {"compute", "d2h"}
        assert complete[0]["name"] == "GEMM"
        assert complete[0]["dur"] == 3.0


class TestWithPipeline:
    def test_multistream_overlap_visible(self):
        """The tracer shows what the Sec. 6.2 design buys: H2D overlapped
        with compute once multiple streams are used."""
        # two streams driven by hand, with tracing
        device = GPUDevice(TESLA_P100)
        tracer = TimelineTracer()
        tracer.attach(device)
        streams = [device.create_stream(f"s{i}") for i in range(2)]
        for i in range(4):
            s = streams[i % 2]
            device.h2d(10**7, stream=s)
            device.gemm(768, 768, 128, batch=64, stream=s)
        device.synchronize()
        overlap = tracer.overlap_us("compute", "h2d")
        assert overlap > 0  # copies hidden behind kernels
        tracer.detach()
