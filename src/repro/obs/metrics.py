"""Labeled metrics primitives and the registry one system owns.

The paper's argument is built on measurement (per-step breakdowns in
Tables 1/3, cluster throughput in Sec. 8); this module makes the same
accounting first-class for the *running system*: every layer registers
named :class:`Counter` / :class:`Gauge` / :class:`Histogram` series in
one :class:`MetricsRegistry` and the web tier exposes them as a JSON
snapshot and Prometheus text exposition (``GET /metrics``).

Design rules
------------
* **One registry per system**, held by the system's
  :class:`~repro.obs.Observability` handle: each part the system builds
  binds its metric families when it is constructed, and the registry
  deduplicates by name, so a cluster's nodes aggregate into the same
  series unless a label distinguishes them, while a second cluster in
  the same process writes to a registry of its own.
* **Labels are sparse**: a metric created with ``labelnames`` only
  materialises a child series the first time that label combination is
  observed, and snapshots list series in first-seen order (stable for
  tests and diffing).
* **Hot-path cost is one attribute check**: the registry carries an
  ``enabled`` flag consulted by every ``inc``/``set``/``observe``, so
  the ``observability`` bench experiment can measure the
  instrumentation's own wall-clock overhead honestly.
* **No locks**: the simulator is single-threaded by construction (the
  event loops simulate concurrency rather than spawning it); if a real
  transport is ever added, guard ``_get_child`` and the value updates.

Metric names follow Prometheus conventions: ``repro_`` namespace,
``_total`` suffix for counters, ``_us`` suffix for microsecond
histograms.  The full catalogue lives in ``docs/observability.md``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_US_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: default buckets for microsecond-duration histograms: roughly
#: logarithmic from kernel-launch scale (10us) to multi-second sweeps.
DEFAULT_US_BUCKETS = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 500_000.0, 1_000_000.0, 5_000_000.0,
)

_RESERVED_LABELS = frozenset({"le"})


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (integers lose the '.0')."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format 0.0.4:
    backslash, double-quote and line-feed must be backslash-escaped
    (in that order — escaping the escapes first keeps it reversible)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Common machinery: a named family of label -> child series."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        bad = _RESERVED_LABELS.intersection(labelnames)
        if bad:
            raise ValueError(f"reserved label name(s): {sorted(bad)}")
        self.name = name
        self.help = help_
        self.labelnames = tuple(labelnames)
        self._registry = registry
        #: label-values tuple -> child, in first-seen order
        self._children: dict[tuple[str, ...], _Metric] = {}
        if not self.labelnames:
            self._init_series()

    # -- label plumbing -------------------------------------------------
    def labels(self, **labelvalues: object):
        """The child series for one label combination (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = type(self).__new__(type(self))
            child.name = self.name
            child.help = self.help
            child.labelnames = ()
            child._registry = self._registry
            child._children = {}
            child._copy_config(self)
            child._init_series()
            self._children[key] = child
        return child

    def _copy_config(self, parent: "_Metric") -> None:  # pragma: no cover
        pass

    def _init_series(self) -> None:
        raise NotImplementedError

    @property
    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    def _series(self) -> Iterable[tuple[dict[str, str], "_Metric"]]:
        """(labels, child) pairs — the bare series itself if unlabeled."""
        if self.labelnames:
            for key, child in self._children.items():
                yield dict(zip(self.labelnames, key)), child
        else:
            yield {}, self

    def reset(self) -> None:
        """Zero every series (children are kept, not dropped)."""
        for _labels, child in self._series():
            child._init_series()

    # -- export ---------------------------------------------------------
    def snapshot_value(self):
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": labels, **child.snapshot_value()}
                for labels, child in self._series()
            ],
        }

    def expose(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for labels, child in self._series():
            lines.extend(child._expose_series(labels))
        return lines

    def _expose_series(self, labels: dict[str, str]) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (``*_total``)."""

    kind = "counter"

    def _init_series(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot_value(self) -> dict:
        return {"value": self.value}

    def _expose_series(self, labels: dict[str, str]) -> list[str]:
        return [f"{self.name}{_format_labels(labels)} {_format_value(self.value)}"]


class Gauge(_Metric):
    """A value that can go up and down (queue depth, bytes resident)."""

    kind = "gauge"

    def _init_series(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        if self._enabled:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._enabled:
            self.value += amount

    def snapshot_value(self) -> dict:
        return {"value": self.value}

    def _expose_series(self, labels: dict[str, str]) -> list[str]:
        return [f"{self.name}{_format_labels(labels)} {_format_value(self.value)}"]


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Also usable standalone (no registry) as a cheap accumulator — the
    serving tier builds per-run histograms this way and the report
    layer reads ``sum``/``count``/``mean`` back.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_US_BUCKETS,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        super().__init__(name, help_, labelnames, registry)

    def _copy_config(self, parent: "_Metric") -> None:
        self.buckets = parent.buckets  # type: ignore[attr-defined]

    def _init_series(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        self.sum += value
        self.count += 1
        # first bound >= value (bounds are sorted), overflow past the end
        # — binary search instead of the linear scan; this sits on the
        # engine's per-sweep hot path
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot_value(self) -> dict:
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            cumulative.append({"le": bound, "count": running})
        return {"sum": self.sum, "count": self.count, "buckets": cumulative}

    def _expose_series(self, labels: dict[str, str]) -> list[str]:
        lines = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            le = 'le="%s"' % _format_value(bound)
            lines.append(f"{self.name}_bucket{_format_labels(labels, le)} {running}")
        inf = 'le="+Inf"'
        lines.append(f"{self.name}_bucket{_format_labels(labels, inf)} {self.count}")
        lines.append(f"{self.name}_sum{_format_labels(labels)} {_format_value(self.sum)}")
        lines.append(f"{self.name}_count{_format_labels(labels)} {self.count}")
        return lines


class MetricsRegistry:
    """One system's metric namespace.

    ``counter``/``gauge``/``histogram`` are *get-or-create*: calling
    twice with the same name returns the same family (so every engine
    in a cluster shares one series), but re-using a name across metric
    kinds is an error.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self.enabled = True

    # -- registration ---------------------------------------------------
    def _get_or_create(self, cls, name: str, help_: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(name, help_, labelnames, registry=self, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_, labelnames)

    def gauge(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_, labelnames)

    def histogram(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_US_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_, labelnames, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return list(self._metrics)

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Zero every series; registrations (and children) survive."""
        for metric in self._metrics.values():
            metric.reset()

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready ``{name: {type, help, series}}`` mapping."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n" if lines else ""

    def value(self, name: str, **labelvalues: object) -> float:
        """Convenience: current value of a counter/gauge, summed over
        every series whose labels match ``labelvalues`` — one series
        when every label is given, all of a label's children when it is
        left out (0.0 if the metric or label combination does not exist
        yet)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        wanted = {k: str(v) for k, v in labelvalues.items()}
        return sum(
            (
                getattr(child, "value", 0.0)
                for labels, child in metric._series()
                if all(labels.get(k) == v for k, v in wanted.items())
            ),
            0.0,
        )
