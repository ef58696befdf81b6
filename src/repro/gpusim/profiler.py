"""Per-step timing capture.

The paper's Tables 1 and 3 break the pipeline into named steps (GEMM,
add-N_R, top-2 sort, D2H copy, post-processing).  :class:`StepProfiler`
accumulates simulated durations under those names so the benchmark
harness can print the same rows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["StepRecord", "StepProfiler"]


@dataclass
class StepRecord:
    name: str
    total_us: float = 0.0
    calls: int = 0


class StepProfiler:
    """Accumulates named step durations in insertion order."""

    def __init__(self) -> None:
        self._steps: "OrderedDict[str, StepRecord]" = OrderedDict()
        self.enabled = True

    def add(self, name: str, duration_us: float) -> None:
        if not self.enabled:
            return
        if duration_us < 0:
            raise ValueError("durations must be non-negative")
        record = self._steps.get(name)
        if record is None:
            record = StepRecord(name)
            self._steps[name] = record
        record.total_us += duration_us
        record.calls += 1

    def reset(self) -> None:
        self._steps.clear()

    def total_us(self) -> float:
        return sum(r.total_us for r in self._steps.values())

    def records(self) -> list[StepRecord]:
        return list(self._steps.values())

    def as_dict(self) -> dict[str, float]:
        """Map of step name -> total simulated microseconds."""
        return {name: rec.total_us for name, rec in self._steps.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._steps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{r.name}={r.total_us:.1f}us" for r in self._steps.values())
        return f"StepProfiler({inner})"
