"""The functional plane of a sweep, owned by whoever gathers the sweeps.

An engine's sweep *charges* its batches and *submits* them here; the
matches are computed when the scope is run.  With no scope open that is
at once (:func:`current_compute` hands out a scope of one).  A tier that
fans a request out to many engines in one process opens a scope around
the fan-out (:func:`compute_scope`, the ambient idiom of
:func:`repro.obs.deadline_scope`) and runs it once after: jobs that are
provably one computation — same kernel class, equal config, bit-equal
query operand — become one stacked kernel call.
Only *when* and *in how many calls* matches are computed is decided here;
a scope that is never run has charged everything and computed nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = ["SweepCompute", "compute_scope", "current_compute"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    bits = f"u{a.itemsize}"  # stored bits, not values: -0.0 is not 0.0 and NaN is itself
    return a is b or (
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(bits), b.view(bits)))


class SweepCompute:
    """Stacks submitted by sweeps, computed together by :meth:`run`."""

    def __init__(self) -> None:
        self._jobs: list[tuple] = []

    def submit(self, kernel, stack, survivors, query, deliver) -> None:
        """Queue one sweep's charged batches, each beside its prefilter's
        survivor mask (or ``None``).  ``deliver(stacked)`` receives the
        per-query match lists ``kernel.match_batch_multi(None, stack, query,
        survivors)`` would return (``[]`` for an empty stack)."""
        self._jobs.append((kernel, stack, survivors, query, deliver))

    def run(self) -> None:
        """Compute every queued job, those that are one computation over
        different references as one call, and deliver each its share."""
        jobs, self._jobs = self._jobs, []
        fused: list[list[tuple]] = []
        for job in jobs:
            kernel, stack, _, query, deliver = job
            if not stack:
                deliver([])
                continue
            for group in fused:
                first, _, _, asked, _ = group[0]
                if (
                    type(kernel) is type(first) and kernel.config == first.config
                    and query.aux is None and asked.aux is None
                    and _same_bits(query.matrix, asked.matrix)
                ):
                    group.append(job)
                    break
            else:
                fused.append([job])
        for group in fused:
            kernel, _, _, query, _ = group[0]
            stacked = kernel.match_batch_multi(
                None, [batch for job in group for batch in job[1]], query,
                [mask for job in group for mask in job[2]])
            taken = 0
            for _, stack, _, _, deliver in group:
                images = sum(batch.size for batch in stack)
                deliver([matches[taken : taken + images] for matches in stacked])
                taken += images


class _AtOnce(SweepCompute):
    """The scope of one a sweep gets when nobody gathers it."""

    def submit(self, kernel, stack, survivors, query, deliver) -> None:
        super().submit(kernel, stack, survivors, query, deliver)
        self.run()


_scope: ContextVar["SweepCompute | None"] = ContextVar("repro_core_compute", default=None)


@contextmanager
def compute_scope():
    """Collect the sweeps made below this block; the caller ``run()``s what it yields."""
    scope = SweepCompute()
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)


def current_compute() -> SweepCompute:
    """The scope a sweep submits to: the open one, else one that runs at once."""
    return _scope.get() or _AtOnce()
