"""Request-scoped overload context: the request deadline.

Overload protection needs one piece of per-request state to flow from
the ingress (the serving batcher or a REST request) down to the
engine's cache sweep without growing every API a parameter: a
**deadline** — how much simulated time the request is still worth
spending.  The engine checks it between cache batches and stops
sweeping when it expires (returning a partial result) instead of
burning simulated GPU time on an answer nobody is waiting for.

It rides the same :mod:`contextvars` mechanism the request tracer uses
(:mod:`repro.obs.tracing`): a ``with deadline_scope(...)`` block at the
ingress, ``current_deadline()`` reads anywhere below it.

Deadlines are *budgets of simulated time*, not absolute timestamps —
the tiers keep separate simulated clocks (each device has its own), so
an absolute deadline has no single timeline to live on.  The leaf that
spends simulated time (the engine sweep, the cluster's retry backoff)
charges the budget; :class:`DeadlineFanOut` handles the scatter-gather
case where a serially-simulated fan-out models *concurrent* node
sweeps: every branch starts from the same spent amount and the join
charges only the slowest branch, exactly like the cluster's
``max(node_time)`` latency arithmetic.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "Deadline",
    "DeadlineFanOut",
    "current_deadline",
    "deadline_scope",
]

_deadline: ContextVar["Deadline | None"] = ContextVar(
    "repro_obs_deadline", default=None
)


@dataclass
class Deadline:
    """A simulated-time budget charged as work is performed.

    ``budget_us`` is the total simulated time the request may spend;
    ``spent_us`` accumulates charges from the layers that actually
    consume simulated time.  ``expired`` never un-expires on its own —
    but a :class:`DeadlineFanOut` branch may rewind ``spent_us`` to
    model concurrency (see module docstring).
    """

    budget_us: float
    spent_us: float = 0.0

    def __post_init__(self) -> None:
        if self.budget_us < 0:
            raise ValueError(f"budget_us must be >= 0, got {self.budget_us}")

    @property
    def expired(self) -> bool:
        return self.spent_us >= self.budget_us

    def charge(self, elapsed_us: float) -> None:
        """Record ``elapsed_us`` of simulated time spent on this request."""
        if elapsed_us > 0:
            self.spent_us += elapsed_us


class DeadlineFanOut:
    """Deadline accounting for a concurrent fan-out simulated serially.

    The cluster iterates its nodes one by one, but models them as
    running *concurrently* (the gather's latency is the max node time).
    Charging the deadline serially would burn the budget ``n_nodes``
    times too fast, so each :meth:`branch` rewinds ``spent_us`` to the
    fan-out's starting point and :meth:`join` charges only the slowest
    branch::

        fan = DeadlineFanOut(current_deadline())
        for node in nodes:
            with fan.branch():
                ...  # node attempt; engine sweeps charge the deadline
        fan.join()

    A ``None`` deadline makes every method a no-op, so call sites need
    no guards.
    """

    def __init__(self, deadline: Deadline | None) -> None:
        self.deadline = deadline
        self._base_us = deadline.spent_us if deadline is not None else 0.0
        self._slowest_us = 0.0

    @property
    def expired_at_entry(self) -> bool:
        """True when the budget was already gone before the fan-out."""
        return self.deadline is not None and self._base_us >= self.deadline.budget_us

    @contextmanager
    def branch(self):
        """One concurrent branch: starts from the fan-out's base spend."""
        if self.deadline is None:
            yield
            return
        self.deadline.spent_us = self._base_us
        try:
            yield
        finally:
            self._slowest_us = max(
                self._slowest_us, self.deadline.spent_us - self._base_us
            )

    def join(self) -> None:
        """Settle the fan-out: charge the slowest branch once."""
        if self.deadline is not None:
            self.deadline.spent_us = self._base_us + self._slowest_us


@contextmanager
def deadline_scope(budget_us: float):
    """Attach a fresh :class:`Deadline` of ``budget_us`` simulated time
    to the current context; yields it for post-hoc inspection."""
    deadline = Deadline(budget_us=float(budget_us))
    token = _deadline.set(deadline)
    try:
        yield deadline
    finally:
        _deadline.reset(token)


def current_deadline() -> Deadline | None:
    """The deadline governing the current request, if any."""
    return _deadline.get()

