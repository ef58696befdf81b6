"""Request-scoped span tracing across every tier.

A *trace* follows one request from its ingress (web tier dispatch or
the serving batcher) down through the cluster scatter, the node RPC,
the engine's cache sweep and the per-batch cache staging.  Each layer
opens a :class:`Span` with ``tracer.span(name, layer=...)``; the
current span lives in a :mod:`contextvars` variable, so propagation is
implicit — no API grows a ``trace_id`` parameter, and a span opened
three layers down parents correctly onto whatever is active.

The tracer is **off by default** and free when off (one attribute
check per call site).  When enabled, the *outermost* span mints a new
``trace_id`` and becomes the trace root; ids are deterministic
counters, so identical runs export identical structure.

Span timestamps are host wall-clock microseconds (``perf_counter_ns``)
rebased to the tracer's first span: nesting is therefore guaranteed by
construction (a child's ``with`` block is strictly inside its
parent's).  Simulated durations are attached as span *attributes*
(``sim_elapsed_us``) rather than span bounds — the simulated clocks of
different devices are not one timeline, the host clock is.

Export is Chrome/Perfetto JSON (:func:`to_perfetto`): request spans
render as one lane per trace under a ``requests`` process, and the
events of a :class:`~repro.gpusim.tracing.TimelineTracer` can be
merged in as ``device`` lanes so a single file shows the request
hierarchy above the engine rows it generated.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter_ns

__all__ = ["RequestTracer", "Span", "default_tracer", "to_perfetto"]

_current_span: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

#: what a disabled tracer hands every ``with`` site: it enters to ``None``
#: and holds no state, so the one instance nests and re-enters freely.
_NO_SPAN = nullcontext()


@dataclass
class Span:
    """One timed operation inside a trace."""

    name: str
    layer: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start_us: float
    end_us: float = 0.0
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def set(self, **attrs: object) -> None:
        """Attach attributes mid-span (results, simulated durations)."""
        self.attrs.update(attrs)


class RequestTracer:
    """Process-wide span collector with implicit context propagation."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._trace_seq = 0
        self._span_seq = 0
        self._t0_ns: int | None = None

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop collected spans and restart the id sequences."""
        self.spans = []
        self._trace_seq = 0
        self._span_seq = 0
        self._t0_ns = None

    def _now_us(self) -> float:
        now = perf_counter_ns()
        if self._t0_ns is None:
            self._t0_ns = now
        return (now - self._t0_ns) / 1e3

    # -- span API -------------------------------------------------------
    def span(self, name: str, layer: str = "app", **attrs: object):
        """Open a span under the current one (minting a trace at the
        root).  Yields the :class:`Span`, or ``None`` when disabled —
        callers guard attribute writes with ``if span is not None`` or
        use :meth:`annotate`.  The off switch is here, not at the call
        site: a disabled tracer returns one shared no-op context."""
        if not self.enabled:
            return _NO_SPAN
        return self._open(name, layer, attrs)

    @contextmanager
    def _open(self, name: str, layer: str, attrs: dict):
        parent = _current_span.get()
        if parent is None:
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq:06d}"
            parent_id = None
            depth = 0
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            depth = parent.depth + 1
        self._span_seq += 1
        span = Span(
            name=name,
            layer=layer,
            trace_id=trace_id,
            span_id=self._span_seq,
            parent_id=parent_id,
            start_us=self._now_us(),
            depth=depth,
            attrs=attrs,
        )
        token = _current_span.set(span)
        try:
            yield span
        finally:
            span.end_us = self._now_us()
            _current_span.reset(token)
            self.spans.append(span)

    def current(self) -> Span | None:
        return _current_span.get()

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the active span, if any (no-op cost
        of one contextvar read when tracing is enabled)."""
        if not self.enabled:
            return
        span = _current_span.get()
        if span is not None:
            span.attrs.update(attrs)

    # -- views ----------------------------------------------------------
    def traces(self) -> dict[str, list[Span]]:
        """Spans grouped by trace id, each list in start order."""
        grouped: dict[str, list[Span]] = {}
        for span in sorted(self.spans, key=lambda s: (s.start_us, s.span_id)):
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace_shape(self, trace_id: str) -> list[tuple[int, str, str]]:
        """``(depth, layer, name)`` tuples in start order — the
        structural fingerprint of one trace (timestamps excluded), used
        to compare a group-of-1 trace against a plain search trace."""
        return [
            (s.depth, s.layer, s.name)
            for s in self.traces().get(trace_id, [])
        ]

    # -- export ---------------------------------------------------------
    def to_perfetto(self, engine_events=(), counters=()) -> str:
        return to_perfetto(self.spans, engine_events, counters)

    def export(self, path, engine_events=(), counters=()) -> None:
        """Write the Perfetto JSON trace file."""
        from pathlib import Path

        Path(path).write_text(self.to_perfetto(engine_events, counters))


#: pids in the merged export: request spans above, device lanes below,
#: telemetry counter tracks last.
_REQUESTS_PID = 1
_DEVICE_PID = 2
_TELEMETRY_PID = 3


def to_perfetto(spans, engine_events=(), counters=()) -> str:
    """Merge request spans, simulated device rows and telemetry counter
    tracks into one Chrome-tracing / Perfetto JSON document.

    ``spans`` are :class:`Span` objects (host-clock timestamps, one
    lane per trace under the ``requests`` process); ``engine_events``
    are :class:`~repro.gpusim.tracing.TraceEvent`-shaped objects
    (simulated timestamps, one lane per device engine under the
    ``device`` process, categorised by engine); ``counters`` are
    ``{"series", "ts", "value"}`` dicts, typically from
    :meth:`repro.obs.timeseries.TimeSeriesRecorder.perfetto_counters`
    (simulated timestamps, one ``ph: "C"`` counter track per series
    under the ``telemetry`` process).  The processes keep their own
    timebases — Perfetto renders them as separate tracks in the same
    file.
    """
    records: list[dict] = []
    trace_tids: dict[str, int] = {}
    for span in sorted(spans, key=lambda s: (s.start_us, s.span_id)):
        tid = trace_tids.setdefault(span.trace_id, len(trace_tids) + 1)
        records.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.duration_us, 3),
                "pid": _REQUESTS_PID,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
        )
    for trace_id, tid in trace_tids.items():
        records.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _REQUESTS_PID,
                "tid": tid,
                "args": {"name": f"trace {trace_id}"},
            }
        )

    engines = sorted({e.engine for e in engine_events})
    engine_tid = {engine: i + 1 for i, engine in enumerate(engines)}
    for event in engine_events:
        records.append(
            {
                "name": event.step,
                "cat": event.engine,
                "ph": "X",
                "ts": event.start_us,
                "dur": event.duration_us,
                "pid": _DEVICE_PID,
                "tid": engine_tid[event.engine],
                "args": {"sim_time": True},
            }
        )
    for engine, tid in engine_tid.items():
        records.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _DEVICE_PID,
                "tid": tid,
                "args": {"name": engine},
            }
        )
    counter_series: set[str] = set()
    for point in counters:
        series = str(point["series"])
        counter_series.add(series)
        records.append(
            {
                "name": series,
                "ph": "C",
                "ts": point["ts"],
                "pid": _TELEMETRY_PID,
                "args": {"value": point["value"]},
            }
        )

    for pid, name in (
        (_REQUESTS_PID, "requests"),
        (_DEVICE_PID, "device"),
        (_TELEMETRY_PID, "telemetry"),
    ):
        if pid == _DEVICE_PID and not engines:
            continue
        if pid == _TELEMETRY_PID and not counter_series:
            continue
        records.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
    return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})


_default = RequestTracer()


def default_tracer() -> RequestTracer:
    """The process-wide tracer every instrument site writes to."""
    return _default
