"""Time-series telemetry on the simulated clock.

The registry (:mod:`repro.obs.metrics`) is *cumulative*: counters only
grow, histograms remember every observation since process start.  That
answers "how many, ever" but not the questions an autoscaler or an SLO
engine must ask — "what is the p99 over the last five simulated
seconds", "how fast is goodput burning right now".  This module adds
the missing axis: a :class:`TimeSeriesRecorder` scrapes the registry at
a fixed cadence of **simulated** time and keeps the samples in a ring
buffer, from which windowed views are derived:

* counters → :meth:`~TimeSeriesRecorder.rate` (per-second deltas),
* gauges → :meth:`~TimeSeriesRecorder.last` (most recent value),
* histograms → *bucket deltas* between window edges →
  :meth:`~TimeSeriesRecorder.window_percentile` (sliding-window
  nearest-rank p50/p95/p99, quantised to bucket upper bounds) and
  :meth:`~TimeSeriesRecorder.window_error_fraction` (share of
  observations above a threshold — the raw material of burn rates).

Determinism rules
-----------------
* **No wall-clock reads.**  The recorder owns a monotone simulated
  clock advanced only by explicit hooks: :meth:`~TimeSeriesRecorder.advance_to`
  from drivers that own an absolute timeline (the serving event loop)
  and :meth:`~TimeSeriesRecorder.advance_by` from relative drivers
  (cluster search/enroll ops called outside any loop).  A driver that
  owns absolute time wraps its run in
  :meth:`~TimeSeriesRecorder.exclusive` so nested relative hooks (the
  cluster call *inside* a serving executor) do not double-advance.
* **Samples land on the grid.**  Crossing one or more interval
  boundaries takes exactly one sample, stamped at the *last* boundary
  crossed — identical event timelines scrape identical sample
  timelines, which is what makes alert histories byte-comparable.
* **Events attribute forward.**  Instrument sites advance the clock
  *before* recording events that happen at the new time, so a sample
  at boundary ``T`` never contains an event from after ``T``; events
  between boundaries appear in the next sample.  Attribution
  granularity is therefore one interval.

A recorder watches one system's registry and is attached by assigning
it to that system's :class:`~repro.obs.Observability` handle
(``system.obs.recorder``); the handle's hooks, which the serving loop
and the cluster call, are no-ops while none is attached (one attribute
read), keeping the uninstrumented hot path at the same cost the
observability bench already budgets.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping, Sequence

from .metrics import Histogram, MetricsRegistry

__all__ = ["Sample", "TimeSeriesRecorder"]

#: default scrape cadence — 50 simulated ms, comfortably finer than any
#: serving-level SLO window while keeping a 256-deep ring under 13 s.
DEFAULT_INTERVAL_US = 50_000.0

#: default ring-buffer depth (samples retained).
DEFAULT_RETENTION = 256


class Sample:
    """One scrape: everything the registry held at simulated ``t_us``.

    ``data`` maps metric name → {label-values tuple → point}; a point is
    a ``float`` (counter/gauge) or a ``(bucket_counts, sum, count)``
    tuple (histogram, cumulative since process start — windowed views
    subtract two samples).
    """

    __slots__ = ("t_us", "data")

    def __init__(self, t_us: float, data: dict) -> None:
        self.t_us = t_us
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample(t_us={self.t_us}, metrics={len(self.data)})"


def _match(labelnames: Sequence[str], key: tuple, labels: Mapping[str, str]) -> bool:
    """Does the child at ``key`` satisfy the (possibly partial) label
    selection?  An empty selection matches every child — selections sum
    across matches, so ``labels={}`` aggregates a whole family."""
    child = dict(zip(labelnames, key))
    return all(child.get(k) == str(v) for k, v in labels.items())


class TimeSeriesRecorder:
    """Deterministic scraper of one registry, with ring-buffer retention."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_us: float = DEFAULT_INTERVAL_US,
        retention: int = DEFAULT_RETENTION,
    ) -> None:
        if interval_us <= 0:
            raise ValueError(f"interval_us must be > 0, got {interval_us}")
        if retention < 2:
            raise ValueError(f"retention must be >= 2 samples, got {retention}")
        self.interval_us = float(interval_us)
        self.retention = int(retention)
        self._registry = registry
        self._samples: deque[Sample] = deque(maxlen=self.retention)
        #: metric name -> (kind, labelnames, buckets-or-None); refreshed
        #: at every scrape so late-registered series are picked up.
        self._meta: dict[str, tuple[str, tuple[str, ...], tuple[float, ...] | None]] = {}
        self._listeners: list[Callable[[Sample], None]] = []
        self._exclusive_depth = 0
        self.now_us = 0.0
        self._next_boundary = self.interval_us
        self._take_sample(0.0)  # baseline: windows delta against t=0

    # -- clock ----------------------------------------------------------
    def advance_to(self, now_us: float) -> None:
        """Advance the simulated clock to an absolute time (monotone:
        a reading behind the clock is ignored).  Crossing one or more
        sample boundaries scrapes once, at the last boundary crossed."""
        now_us = float(now_us)
        if now_us <= self.now_us:
            return
        self.now_us = now_us
        if now_us >= self._next_boundary:
            boundary = math.floor(now_us / self.interval_us) * self.interval_us
            self._take_sample(boundary)
            self._next_boundary = boundary + self.interval_us

    def advance_by(self, delta_us: float) -> None:
        """Advance the clock by a relative simulated duration.  No-op
        inside an :meth:`exclusive` scope — the absolute driver already
        accounts that time."""
        if self._exclusive_depth or delta_us <= 0:
            return
        self.advance_to(self.now_us + float(delta_us))

    @contextmanager
    def exclusive(self):
        """Mark an absolute-timeline driver's scope: :meth:`advance_by`
        calls from code nested under it are suppressed so simulated time
        is charged exactly once."""
        self._exclusive_depth += 1
        try:
            yield self
        finally:
            self._exclusive_depth -= 1

    def flush(self) -> Sample:
        """Force a scrape at the current clock reading (off-grid; used
        to close out a run so the final window sees every event)."""
        return self._take_sample(self.now_us)

    # -- sampling -------------------------------------------------------
    def _take_sample(self, t_us: float) -> Sample:
        data: dict[str, dict[tuple, object]] = {}
        for name, metric in self._registry._metrics.items():
            buckets = getattr(metric, "buckets", None)
            self._meta[name] = (metric.kind, metric.labelnames, buckets)
            series: dict[tuple, object] = {}
            if metric.labelnames:
                children = metric._children.items()
            else:
                children = ((), metric),
            for key, child in children:
                if isinstance(child, Histogram):
                    series[key] = (
                        tuple(child.bucket_counts), child.sum, child.count
                    )
                else:
                    series[key] = child.value
            data[name] = series
        sample = Sample(t_us, data)
        if self._samples and self._samples[-1].t_us == t_us:
            self._samples[-1] = sample  # re-scrape of the same instant
        else:
            self._samples.append(sample)
        for listener in list(self._listeners):
            listener(sample)
        return sample

    def add_listener(self, fn: Callable[[Sample], None]) -> None:
        """Call ``fn(sample)`` after every new sample (the SLO engine
        subscribes here, so alerts evaluate on the sample grid)."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[Sample], None]) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[Sample]:
        return list(self._samples)

    # -- point lookups --------------------------------------------------
    def _point(self, sample: Sample, name: str, labels: Mapping[str, str] | None):
        """Aggregated point for one metric in one sample: matching
        children are summed (floats, or bucket arrays element-wise)."""
        series = sample.data.get(name)
        if not series:
            return None
        meta = self._meta.get(name)
        labelnames = meta[1] if meta else ()
        labels = labels or {}
        total = None
        for key, point in series.items():
            if labels and not _match(labelnames, key, labels):
                continue
            if total is None:
                total = point if isinstance(point, float) else (
                    list(point[0]), point[1], point[2]
                )
            elif isinstance(point, float):
                total += point
            else:
                counts, s, c = total
                total = (
                    [a + b for a, b in zip(counts, point[0])],
                    s + point[1], c + point[2],
                )
        return total

    def _bracket(self, window_us: float) -> tuple[Sample, Sample] | None:
        """(start, end) samples spanning the trailing window: end is
        the newest sample, start the newest sample at least
        ``window_us`` older (clamped to the oldest retained — a window
        longer than the ring degrades gracefully, never errors)."""
        if len(self._samples) < 2:
            return None
        end = self._samples[-1]
        cutoff = end.t_us - float(window_us)
        # windows are short relative to retention: scan from the right
        # instead of materialising the whole timestamp list
        start = self._samples[0]
        for sample in reversed(self._samples):
            if sample.t_us <= cutoff:
                start = sample
                break
        if start.t_us >= end.t_us:
            return None
        return start, end

    # -- windowed views -------------------------------------------------
    def last(self, name: str, labels: Mapping[str, str] | None = None) -> float:
        """Latest sampled value of a counter or gauge (summed over the
        label selection); 0.0 before the first matching sample."""
        if not self._samples:
            return 0.0
        point = self._point(self._samples[-1], name, labels)
        return float(point) if isinstance(point, (int, float)) else 0.0

    def delta(
        self, name: str, window_us: float,
        labels: Mapping[str, str] | None = None,
    ) -> float:
        """Counter increase over the trailing window (clamped at 0 so a
        mid-run registry reset reads as silence, not a negative rate)."""
        bracket = self._bracket(window_us)
        if bracket is None:
            return 0.0
        start, end = bracket
        v0 = self._point(start, name, labels)
        v1 = self._point(end, name, labels)
        if not isinstance(v1, (int, float)):
            return 0.0
        v0 = v0 if isinstance(v0, (int, float)) else 0.0
        return max(float(v1) - float(v0), 0.0)

    def rate(
        self, name: str, window_us: float,
        labels: Mapping[str, str] | None = None,
    ) -> float:
        """Counter rate (per *second* of simulated time) over the
        trailing window."""
        bracket = self._bracket(window_us)
        if bracket is None:
            return 0.0
        start, end = bracket
        span_us = end.t_us - start.t_us
        if span_us <= 0:
            return 0.0
        return self.delta(name, window_us, labels) / (span_us / 1e6)

    def window_histogram(
        self, name: str, window_us: float,
        labels: Mapping[str, str] | None = None,
    ) -> tuple[tuple[float, ...], list[int], int, float]:
        """``(bounds, bucket_deltas, count, sum)`` for the trailing
        window — the histogram of *only* the observations inside it.
        Per-bucket deltas are clamped at 0 (registry resets)."""
        meta = self._meta.get(name)
        bounds = meta[2] if meta else None
        if bounds is None:
            return (), [], 0, 0.0
        bracket = self._bracket(window_us)
        if bracket is None:
            return bounds, [0] * (len(bounds) + 1), 0, 0.0
        start, end = bracket
        h0 = self._point(start, name, labels)
        h1 = self._point(end, name, labels)
        if not isinstance(h1, tuple):
            return bounds, [0] * (len(bounds) + 1), 0, 0.0
        if not isinstance(h0, tuple):
            h0 = ([0] * len(h1[0]), 0.0, 0)
        deltas = [max(a - b, 0) for a, b in zip(h1[0], h0[0])]
        return bounds, deltas, max(h1[2] - h0[2], 0), max(h1[1] - h0[1], 0.0)

    def window_percentile(
        self, name: str, p: float, window_us: float,
        labels: Mapping[str, str] | None = None,
    ) -> float:
        """Nearest-rank percentile of the observations inside the
        trailing window, computed from histogram bucket deltas.

        The answer is quantised to bucket *upper bounds* (the smallest
        bound with at least ``p``% of the windowed observations at or
        below it); observations past the last bound report ``inf``.
        Returns 0.0 for an empty window.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        bounds, deltas, count, _ = self.window_histogram(name, window_us, labels)
        if count <= 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * count))
        running = 0
        for bound, n in zip(bounds, deltas):
            running += n
            if running >= rank:
                return float(bound)
        return math.inf

    def window_error_fraction(
        self, name: str, threshold_us: float, window_us: float,
        labels: Mapping[str, str] | None = None,
    ) -> tuple[int, int]:
        """``(errors, total)`` over the trailing window, where an error
        is an observation *above* ``threshold_us``.

        The threshold is quantised to the smallest bucket bound at or
        above it (bucket resolution is all a histogram knows); a
        threshold past the last bound counts only overflow observations.
        """
        bounds, deltas, count, _ = self.window_histogram(name, window_us, labels)
        if count <= 0:
            return 0, 0
        # quantise: everything in buckets whose bound <= the effective
        # (snapped-up) threshold bound is good; the rest — including
        # overflow — is late.
        effective = self.effective_threshold_us(bounds, threshold_us)
        good = sum(n for bound, n in zip(bounds, deltas) if bound <= effective)
        return count - good, count

    @staticmethod
    def effective_threshold_us(
        bounds: Sequence[float], threshold_us: float
    ) -> float:
        """The bucket bound a threshold quantises to (``inf`` when past
        the last bound) — surfaced so SLO policies can report the
        resolution they are actually evaluated at."""
        for bound in bounds:
            if bound >= threshold_us:
                return float(bound)
        return math.inf

    def histogram_bounds(self, name: str) -> tuple[float, ...]:
        meta = self._meta.get(name)
        return meta[2] if meta and meta[2] is not None else ()

    # -- export ---------------------------------------------------------
    def history(
        self,
        names: Iterable[str] | None = None,
        since_us: float | None = None,
        limit: int | None = None,
    ) -> dict:
        """JSON-ready sample history for ``GET /metrics/history``.

        ``names`` restricts to those metric families, ``since_us``
        drops samples older than the timestamp, ``limit`` keeps only
        the newest N surviving samples.
        """
        selected = set(names) if names is not None else None
        samples = [
            s for s in self._samples
            if since_us is None or s.t_us >= since_us
        ]
        if limit is not None and limit >= 0:
            samples = samples[-limit:] if limit else []
        meta_out = {}
        for name, (kind, labelnames, buckets) in sorted(self._meta.items()):
            if selected is not None and name not in selected:
                continue
            entry: dict = {"kind": kind, "labelnames": list(labelnames)}
            if buckets is not None:
                entry["buckets"] = list(buckets)
            meta_out[name] = entry
        out_samples = []
        for sample in samples:
            series_out: dict[str, list] = {}
            for name, series in sample.data.items():
                if selected is not None and name not in selected:
                    continue
                labelnames = self._meta.get(name, ("", (), None))[1]
                rows = []
                for key, point in series.items():
                    labels = dict(zip(labelnames, key))
                    if isinstance(point, tuple):
                        rows.append({
                            "labels": labels,
                            "buckets": list(point[0]),
                            "sum": point[1],
                            "count": point[2],
                        })
                    else:
                        rows.append({"labels": labels, "value": point})
                series_out[name] = rows
            out_samples.append({"t_us": sample.t_us, "series": series_out})
        return {
            "interval_us": self.interval_us,
            "retention": self.retention,
            "now_us": self.now_us,
            "n_samples": len(out_samples),
            "meta": meta_out,
            "samples": out_samples,
        }

    def perfetto_counters(
        self, names: Iterable[str] | None = None
    ) -> list[dict]:
        """Counter-track points for :func:`repro.obs.to_perfetto`: one
        point per (sample, series), counters/gauges by value and
        histograms by cumulative observation count.  Timestamps are
        simulated microseconds — the telemetry process keeps its own
        timebase next to the request and device processes."""
        selected = set(names) if names is not None else None
        points: list[dict] = []
        for sample in self._samples:
            for name, series in sample.data.items():
                if selected is not None and name not in selected:
                    continue
                labelnames = self._meta.get(name, ("", (), None))[1]
                for key, point in series.items():
                    value = point[2] if isinstance(point, tuple) else point
                    label = name
                    if key:
                        inner = ",".join(
                            f"{k}={v}" for k, v in zip(labelnames, key)
                        )
                        label = f"{name}{{{inner}}}"
                    points.append({
                        "series": label,
                        "ts": sample.t_us,
                        "value": float(value),
                    })
        return points
