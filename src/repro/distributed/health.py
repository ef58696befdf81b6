"""Node health model for the distributed tier.

Production similarity-search deployments (and the paper's 14-container
cluster, Sec. 8) must answer two questions about every GPU container:
*is it serving?* and *should the router keep sending it traffic?*  This
module models the answer as a three-state machine per node:

``UP``
    Serving normally.
``DEGRADED``
    Recent transient failures or timeouts; still searched, but the
    cluster is one bad streak away from failing it over.
``DOWN``
    Crashed or declared dead after too many consecutive failures.  The
    web tier skips the node and the cluster fails it over (its shard is
    re-hydrated from the KV store onto the survivors).

Transitions are driven by the scatter-gather path recording successes
and failures; ``DOWN`` is sticky until an explicit :meth:`revive`
(a failed-over node never silently rejoins).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["NodeHealth", "HealthPolicy", "HealthTracker"]


class NodeHealth(Enum):
    """Serving state of one GPU container."""

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for failure-driven state transitions.

    ``degraded_after`` consecutive failures mark a node ``DEGRADED``;
    ``down_after`` consecutive failures declare it ``DOWN``.  One
    success resets the streak and (unless the node is ``DOWN``)
    restores ``UP``.
    """

    degraded_after: int = 1
    down_after: int = 3

    def __post_init__(self) -> None:
        if self.degraded_after < 1:
            raise ValueError("degraded_after must be >= 1")
        if self.down_after < self.degraded_after:
            raise ValueError("down_after must be >= degraded_after")


class HealthTracker:
    """Per-node failure accounting + the state machine above."""

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self.state = NodeHealth.UP
        self.consecutive_failures = 0
        self.total_failures = 0
        self.total_successes = 0
        self.heartbeats = 0

    # ------------------------------------------------------------------
    def record_success(self) -> NodeHealth:
        self.total_successes += 1
        self.consecutive_failures = 0
        if self.state is not NodeHealth.DOWN:
            self.state = NodeHealth.UP
        return self.state

    def record_failure(self) -> NodeHealth:
        """A transient failure or timeout; may escalate the state."""
        self.total_failures += 1
        self.consecutive_failures += 1
        if self.state is NodeHealth.DOWN:
            return self.state
        if self.consecutive_failures >= self.policy.down_after:
            self.state = NodeHealth.DOWN
        elif self.consecutive_failures >= self.policy.degraded_after:
            self.state = NodeHealth.DEGRADED
        return self.state

    def record_crash(self) -> NodeHealth:
        """A hard failure (container died): straight to ``DOWN``."""
        self.total_failures += 1
        self.consecutive_failures += 1
        self.state = NodeHealth.DOWN
        return self.state

    def revive(self) -> NodeHealth:
        """Operator/failover action: clear the streak, return to ``UP``."""
        self.state = NodeHealth.UP
        self.consecutive_failures = 0
        return self.state

    def snapshot(self) -> dict:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "total_successes": self.total_successes,
            "heartbeats": self.heartbeats,
        }
