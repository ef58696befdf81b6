"""One system's telemetry handle.

An :class:`Observability` is owned by the system it measures — a
:class:`~repro.distributed.cluster.DistributedSearchSystem`, or a
:class:`~repro.core.engine.TextureSearchEngine` built on its own — and
passed down to every part that system builds, so each part binds its
metric families to the owner's registry and two systems in one process
never share a series.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import MetricsRegistry
from .slo import SloEngine
from .timeseries import TimeSeriesRecorder

__all__ = ["Observability"]


class Observability:
    """A fresh :class:`MetricsRegistry` plus the optional
    :class:`TimeSeriesRecorder` and :class:`SloEngine` watching it.

    A caller attaches either by assigning it (``system.obs.recorder =
    TimeSeriesRecorder(system.obs.registry)``); ``GET /metrics/history``
    and the ``"slo"`` stats block read them from here.  The clock hooks
    below are what the serving loop and the cluster call: each is a
    no-op while no recorder is attached.
    """

    __slots__ = ("registry", "recorder", "slo")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.recorder: TimeSeriesRecorder | None = None
        self.slo: SloEngine | None = None

    @property
    def now_us(self) -> float | None:
        """The recorder's simulated instant, or ``None`` with no recorder
        (then replica warm-up and drain time are not modelled)."""
        recorder = self.recorder
        return recorder.now_us if recorder is not None else None

    def advance_to(self, now_us: float) -> None:
        """Hook for absolute-timeline drivers (the serving event loop)."""
        recorder = self.recorder
        if recorder is not None:
            recorder.advance_to(now_us)

    def advance_by(self, delta_us: float) -> None:
        """Hook for relative drivers (cluster ops outside any event loop)."""
        recorder = self.recorder
        if recorder is not None:
            recorder.advance_by(delta_us)

    @contextmanager
    def exclusive(self):
        """:meth:`TimeSeriesRecorder.exclusive` of the attached recorder;
        a no-op without one."""
        recorder = self.recorder
        if recorder is None:
            yield None
            return
        with recorder.exclusive():
            yield recorder
