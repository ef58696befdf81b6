"""Benchmark harness: table formatting, the reader of what the engine's
kernels charge, and the per-table/figure experiment runners."""

from .experiments import ALL_EXPERIMENTS
from .tables import ExperimentResult, fmt, format_table, images_per_s, kernel_steps

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "fmt",
    "format_table",
    "images_per_s",
    "kernel_steps",
]
