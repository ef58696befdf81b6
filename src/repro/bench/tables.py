"""Table formatting for the experiment runners, and the one reader of
what the engine charges.

Every experiment returns an :class:`ExperimentResult`; the benchmark
harness prints it in the same row/column layout as the paper's table so
paper-vs-measured comparison is an eyeball diff.  Every cost a table
prints is one the engine charges: a per-step table relabels and adds up
the step list of its match kernel (:func:`kernel_steps`), and a speed
over cached batches — GPU- or host-resident, over any number of streams
— is read off a timing-only sweep of the engine itself (:func:`swept`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.batching import ReferenceBatch
from ..core.compute import compute_scope
from ..core.config import EngineConfig
from ..core.engine import TextureSearchEngine
from ..core.registry import create_kernel
from ..core.results import Sweep
from ..gpusim.device import DeviceSpec
from ..gpusim.engine_model import GPUDevice

__all__ = ["ExperimentResult", "format_table", "fmt", "images_per_s", "kernel_steps", "pcie_bound",
           "swept"]


def kernel_steps(spec: DeviceSpec, config: EngineConfig, batch: int = 1,
                 n_queries: int = 1) -> list[tuple]:
    """What the engine's kernel for ``config`` charges on ``spec`` to match
    a ``batch``-image reference batch against ``n_queries`` queries:
    ``(engine, us, step)`` tuples, in charge order."""
    return create_kernel(config).batch_steps(GPUDevice(spec), batch, n_queries)


def swept(spec: DeviceSpec, config: EngineConfig, batches: int, host: bool = False,
          pinned: bool = True) -> tuple[Sweep, dict[str, float]]:
    """One query's search of ``batches`` full ``config.batch_size``-image
    batches by a :class:`~repro.core.engine.TextureSearchEngine` on
    ``spec``: the :class:`~repro.core.results.Sweep` and its µs per step.

    The batches are GPU-resident, or with ``host`` all staged from
    (``pinned``) host memory over ``config.streams`` streams.  They hold
    no bytes: each tensor (and ``N_R`` vector, if the kernel caches one) is
    a zero-stride view of one zero in the dtype the kernel stores, whose
    ``nbytes`` is still the full size, so the cache and the H2D see real
    sizes.  The search's compute scope is never run: every batch is
    charged, none is matched.  A kernel with a prefilter is refused
    (``ValueError``): it would read the zeros as codes with no valid word
    and prune every slot, so the sweep would time the prefilter alone.
    """
    rng = np.random.default_rng(0)
    kernel = create_kernel(config)
    if kernel.has_prefilter:
        raise ValueError(f"swept cannot time the {config.backend!r} backend: its prefilter "
                         "needs codes, and byte-free batches hold none")
    matrix, norms = kernel.prepare_reference(rng.random((config.d, config.m), dtype=np.float32))

    def empty(batch_id: int) -> ReferenceBatch:
        shape = (config.batch_size,)
        return ReferenceBatch(
            batch_id, np.arange(batch_id * config.batch_size, (batch_id + 1) * config.batch_size),
            np.broadcast_to(matrix.dtype.type(0), shape + matrix.shape),
            None if norms is None else np.broadcast_to(norms.dtype.type(0), shape + norms.shape))

    stack = [empty(batch_id) for batch_id in range(batches + host)]
    nbytes = stack[0].nbytes
    engine = TextureSearchEngine(
        config, GPUDevice(spec), host_cache_bytes=batches * nbytes if host else 0,
        gpu_cache_bytes=nbytes if host else None, pinned=pinned, kernel=kernel)
    for batch in stack:
        engine.cache.add(batch)
    if host:
        # FIFO demotion is the only way to the host level: with a one-batch
        # GPU level the extra batch demoted the last swept one; drop it
        engine.cache.remove(stack[-1].batch_id)
    with compute_scope():  # never run
        sweep = engine.search_group([rng.random((config.d, config.n), dtype=np.float32)])
    return sweep, engine.stats.step_times_us


def pcie_bound(sweep: Sweep, step_us: dict[str, float]) -> float:
    """The images per second a :func:`swept` sweep's own H2D allows: Table
    6's theoretical speed (Eq. 4)."""
    return sweep.images_searched / step_us["H2D copy"] * 1e6


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
