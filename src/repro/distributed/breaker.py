"""Per-node circuit breakers for the scatter-gather path.

The retry machinery (PR 1) makes one sick node *survivable*, but not
*cheap*: a node that keeps timing out is still attempted — and charged
against the gather's latency — on every single search until its
failure streak crosses the ``HealthTracker``'s ``down_after``
threshold (which one interleaved success resets).  A circuit breaker
layers a failure-*rate* view on top of the health tracker's
failure-*streak* view and stops sending traffic to a node that is
statistically sick:

``CLOSED``
    Normal operation; every outcome feeds a sliding window of the last
    ``window`` attempts.  When the window holds at least
    ``min_samples`` outcomes and the failure fraction reaches
    ``failure_rate``, the breaker opens.
``OPEN``
    The cluster skips the node without attempting it (its shard is
    reported unsearched, no timeout/backoff time is charged).  After
    ``cooldown_ops`` skipped operations the breaker moves to half-open
    — cooldown is counted in *operations*, not wall-clock, because the
    simulation has no global clock across requests (and it keeps the
    state machine deterministic under seeded faults).
``HALF_OPEN``
    Probe traffic flows again: ``probe_successes`` consecutive
    successes close the breaker (window cleared — the node earned a
    fresh record); any failure re-opens it for another cooldown.

The breaker is deliberately *stateless about why* an attempt failed —
crash, transient, timeout all count the same — so it composes with the
retry policy and fault injector without coordination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..obs import Observability

__all__ = ["BreakerPolicy", "BreakerState", "CircuitBreaker"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for the state machine above."""

    window: int = 10
    min_samples: int = 4
    failure_rate: float = 0.5
    cooldown_ops: int = 8
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError(
                f"min_samples must be in [1, window={self.window}], "
                f"got {self.min_samples}"
            )
        if not 0.0 < self.failure_rate <= 1.0:
            raise ValueError(
                f"failure_rate must be in (0, 1], got {self.failure_rate}"
            )
        if self.cooldown_ops < 1:
            raise ValueError(f"cooldown_ops must be >= 1, got {self.cooldown_ops}")
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class CircuitBreaker:
    """Sliding-window failure-rate breaker; pure function of the
    outcome sequence, so seeded fault runs replay identically."""

    def __init__(
        self, policy: BreakerPolicy | None = None, obs: Observability | None = None
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._transitions_total = (obs or Observability()).registry.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions, by destination state",
            ("to",),
        )
        self.state = BreakerState.CLOSED
        self._window: deque[bool] = deque(maxlen=self.policy.window)
        self._skips_while_open = 0
        self._probe_streak = 0
        self.total_skips = 0
        self.transitions: dict[str, int] = {s.value: 0 for s in BreakerState}

    # ------------------------------------------------------------------
    def _transition(self, state: BreakerState) -> None:
        if state is self.state:
            return
        self.state = state
        self.transitions[state.value] += 1
        self._transitions_total.labels(to=state.value).inc()
        if state is BreakerState.OPEN:
            self._skips_while_open = 0
        elif state is BreakerState.HALF_OPEN:
            self._probe_streak = 0
        elif state is BreakerState.CLOSED:
            self._window.clear()

    @property
    def failure_fraction(self) -> float:
        """Failure share of the sliding window (0.0 while empty)."""
        if not self._window:
            return 0.0
        return sum(1 for ok in self._window if not ok) / len(self._window)

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Should the cluster attempt this node right now?

        ``False`` counts one skipped operation toward the open
        cooldown; once the cooldown elapses the breaker half-opens and
        the *next* call returns ``True`` (the probe).
        """
        if self.state is BreakerState.OPEN:
            self._skips_while_open += 1
            self.total_skips += 1
            if self._skips_while_open >= self.policy.cooldown_ops:
                self._transition(BreakerState.HALF_OPEN)
            return False
        return True

    def record_success(self) -> BreakerState:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= self.policy.probe_successes:
                self._transition(BreakerState.CLOSED)
            return self.state
        self._window.append(True)
        return self.state

    def record_failure(self) -> BreakerState:
        if self.state is BreakerState.HALF_OPEN:
            # the probe failed: straight back to open for a new cooldown
            self._transition(BreakerState.OPEN)
            return self.state
        self._window.append(False)
        if (
            self.state is BreakerState.CLOSED
            and len(self._window) >= self.policy.min_samples
            and self.failure_fraction >= self.policy.failure_rate
        ):
            self._transition(BreakerState.OPEN)
        return self.state

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "state": self.state.value,
            "failure_fraction": round(self.failure_fraction, 4),
            "window": len(self._window),
            "total_skips": self.total_skips,
            "transitions": dict(self.transitions),
        }
