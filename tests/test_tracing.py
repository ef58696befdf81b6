"""Timeline tracer: capture, per-engine analysis and the Perfetto export
of its events through :func:`repro.obs.to_perfetto`."""

import json

import pytest

from repro.gpusim import GPUDevice, TESLA_P100, TimelineTracer
from repro.obs import to_perfetto


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
        # one in-order queue: the copy queued behind the kernel
        assert tracer.events[1].start_us == 10.0

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


class TestChromeExport:
    def test_valid_json_with_metadata(self, traced):
        device, tracer = traced
        device.submit("compute", 3.0, step="GEMM")
        device.submit("d2h", 1.0, step="result")
        payload = json.loads(to_perfetto([], tracer.events))
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        lanes = [
            e for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(complete) == 2
        assert {m["args"]["name"] for m in lanes} == {"compute", "d2h"}
        assert complete[0]["name"] == "GEMM"
        assert complete[0]["dur"] == 3.0
