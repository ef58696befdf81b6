"""Timeline tracing for the simulated device.

Attach a :class:`TimelineTracer` to a :class:`GPUDevice` and every
submitted operation is recorded as ``(engine, step, start, end)`` on the
device's one queue.  The trace can be read as ``events`` or exported,
one lane per engine, as Perfetto JSON by :func:`repro.obs.to_perfetto` —
the view GPU engineers would take of the real system's nvprof output,
reproduced for the simulator.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .engine_model import GPUDevice

__all__ = ["TraceEvent", "TimelineTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One operation on the simulated timeline."""

    engine: str
    step: str
    start_us: float
    end_us: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class TimelineTracer:
    """Records every ``GPUDevice.submit`` while attached."""

    events: list[TraceEvent] = field(default_factory=list)

    def attach(self, device: GPUDevice) -> None:
        """Wrap the device's ``submit`` to capture events.

        Only one tracer may be attached to a device at a time; attach
        is idempotent for the same tracer.
        """
        if getattr(device, "_tracer", None) is self:
            return
        if getattr(device, "_tracer", None) is not None:
            raise ValueError("device already has a tracer attached")
        original = device.submit

        def traced_submit(engine, duration_us, step=None):
            end = original(engine, duration_us, step=step)
            self.events.append(
                TraceEvent(engine=engine, step=step or engine, start_us=end - duration_us, end_us=end)
            )
            return end

        device.submit = traced_submit  # type: ignore[method-assign]
        device._tracer = self  # type: ignore[attr-defined]
        self._device = device
        self._original_submit = original

    def detach(self) -> None:
        """Restore the device's original ``submit``.

        When ``attach`` wrapped the plain class method (the common
        case), the shadowing instance attribute is *deleted* rather
        than re-assigned: assigning the captured bound method back
        would leave a permanent instance attribute pinning this
        tracer's closure chain alive, and a later ``attach`` would
        capture that stale binding — detach/attach cycles must leave
        the device exactly as constructed.
        """
        device = getattr(self, "_device", None)
        if device is None:
            return
        original = self._original_submit
        if original == type(device).submit.__get__(device):
            # we shadowed the class method: remove the shadow entirely
            device.__dict__.pop("submit", None)
        else:
            # someone else's instance-level submit was wrapped (e.g. a
            # stacked instrumentation layer): restore that binding
            device.submit = original  # type: ignore[method-assign]
        device._tracer = None  # type: ignore[attr-defined]
        self._device = None
        self._original_submit = None

    @contextmanager
    def attached(self, device: GPUDevice):
        """Scope-bound attachment: ``with tracer.attached(device):``
        records submissions inside the block and always detaches on
        exit, even when the block raises.  Yields the tracer."""
        self.attach(device)
        try:
            yield self
        finally:
            self.detach()
