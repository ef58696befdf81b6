"""Table formatting for the experiment runners, and the one reader of
what the engine charges.

Every experiment returns an :class:`ExperimentResult`; the benchmark
harness prints it in the same row/column layout as the paper's table so
paper-vs-measured comparison is an eyeball diff.  Every cost a table
prints is a step list the engine's own match kernel charges
(:func:`kernel_steps`), plus, for a streamed batch, the H2D the sweep
stages (:func:`staged_batch`); the tables only relabel and add it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.config import EngineConfig
from ..core.registry import create_kernel
from ..gpusim.device import DeviceSpec
from ..gpusim.engine_model import GPUDevice
from ..gpusim.pcie import h2d_time_us

__all__ = ["ExperimentResult", "format_table", "fmt", "images_per_s", "kernel_steps", "staged_batch"]


def kernel_steps(spec: DeviceSpec, config: EngineConfig, batch: int = 1,
                 n_queries: int = 1) -> list[tuple]:
    """What the engine's kernel for ``config`` charges on ``spec`` to match
    a ``batch``-image reference batch against ``n_queries`` queries:
    ``(engine, us, step)`` tuples, in charge order."""
    return create_kernel(config).batch_steps(GPUDevice(spec), batch, n_queries)


def staged_batch(spec: DeviceSpec, config: EngineConfig, batch: int) -> tuple[float, list[tuple]]:
    """A host-resident ``batch``-image batch as the engine's sweep prices it:
    its pinned H2D µs and its kernel's step list — what
    :func:`repro.pipeline.scheduler.plan_streams` and
    :func:`repro.pipeline.event_sim.simulate_stream_pipeline` take."""
    return h2d_time_us(spec, batch * config.feature_matrix_bytes()), kernel_steps(spec, config, batch)


def images_per_s(steps: list[tuple], images: int = 1) -> float:
    """Images (or pairs) per second of a serial chain that covers ``images``."""
    return images / sum(us for _, us, _ in steps) * 1e6


def fmt(value: Any, digits: int = 2) -> str:
    """Human formatting: floats rounded, large ints with separators."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{digits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table."""
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Structured output of one table/figure reproduction."""

    name: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: free-form scalar findings ("speedup": 7.9, ...), used by tests.
    summary: dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        if self.summary:
            pairs = ", ".join(f"{k}={fmt(v)}" for k, v in self.summary.items())
            text += f"\nsummary: {pairs}"
        return text

    def column(self, header: str) -> list[Any]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_by(self, header: str, value: Any) -> list[Any]:
        idx = self.headers.index(header)
        for row in self.rows:
            if row[idx] == value:
                return row
        raise KeyError(f"no row with {header}={value!r}")
