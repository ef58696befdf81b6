"""Unified observability: labeled metrics + request-scoped tracing.

Telemetry is scoped to the system it measures.  Each
:class:`~repro.distributed.cluster.DistributedSearchSystem` (and each
:class:`~repro.core.engine.TextureSearchEngine` built on its own) owns
one :class:`Observability` handle, exposed as ``.obs``, and hands it to
every part it builds:

* ``obs.registry`` — the :class:`MetricsRegistry` that system's cache,
  engines, nodes, cluster, web tier and serving loop write their
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` series to.
  Exposed as a JSON snapshot and as Prometheus text via the REST route
  ``GET /metrics``.  Two systems in one process share no series.
* ``obs.recorder`` — an optional :class:`TimeSeriesRecorder` that
  scrapes the registry on the simulated clock into a ring buffer
  (windowed rates and sliding-window percentiles); and ``obs.slo`` —
  an optional :class:`SloEngine` evaluating declarative
  :class:`SloPolicy` objectives with multi-window burn-rate rules into
  an OK→WARNING→CRITICAL alert history (``GET /metrics/history``, the
  ``"slo"`` stats block, and Perfetto counter tracks).  Both are
  ``None`` until a caller assigns one.

The request tracer stays process-wide: :func:`default_tracer` follows
one request from ingress down to the engine's cache sweep, keyed by
trace id.  Off by default; enable it (``default_tracer().enable()`` or
``python -m repro.bench.run ... --trace out.json``) and every search
exports as Perfetto/Chrome JSON, optionally merged with a
:class:`~repro.gpusim.tracing.TimelineTracer`'s simulated device lanes
(:func:`to_perfetto`).

See ``docs/observability.md`` for the metric catalogue, label
conventions and how to open traces in Perfetto.
"""

from .handle import Observability
from .metrics import (
    DEFAULT_US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .reqctx import (
    Deadline,
    DeadlineFanOut,
    current_deadline,
    deadline_scope,
)
from .slo import (
    CRITICAL,
    OK,
    WARNING,
    AlertEvent,
    AlertLog,
    BurnRateRule,
    SeriesSelection,
    SloEngine,
    SloPolicy,
)
from .timeseries import TimeSeriesRecorder
from .tracing import RequestTracer, Span, default_tracer, to_perfetto

__all__ = [
    "AlertEvent",
    "AlertLog",
    "BurnRateRule",
    "CRITICAL",
    "Counter",
    "DEFAULT_US_BUCKETS",
    "Deadline",
    "DeadlineFanOut",
    "Gauge",
    "OK",
    "WARNING",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RequestTracer",
    "SeriesSelection",
    "SloEngine",
    "SloPolicy",
    "Span",
    "TimeSeriesRecorder",
    "current_deadline",
    "deadline_scope",
    "default_tracer",
    "to_perfetto",
]
