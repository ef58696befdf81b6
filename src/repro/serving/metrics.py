"""Serving-tier accounting: per-request latency percentiles and fused
group occupancy.

Percentiles use the nearest-rank definition (no interpolation) so that
reports are exactly reproducible across numpy versions and never invent
values absent from the sample.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from .batcher import BatchPolicy, GroupRecord, RequestRecord

__all__ = ["Rejected", "ServingReport", "percentile"]

#: group sizes are bounded by the policy's max_batch (<= 64 at REST).
GROUP_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class Rejected:
    """Typed shed outcome for one request that never executed.

    ``reason`` is ``"reject-new"`` (queue full, this request bounced)
    or ``"deadline-expired"`` (its deadline passed while it waited).
    ``retry_after_us`` hints how long (simulated) the client should
    wait before retrying — the time until the device frees up plus the
    policy's wait budget; 0 when no estimate exists.
    """

    request_id: int
    arrival_us: float
    shed_us: float
    reason: str
    retry_after_us: float = 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: smallest value with at least ``p``\\%
    of the sample at or below it.  Empty input returns 0.0."""
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _payload_images(payload) -> int:
    """Pairs compared for one request's result payload — works for
    :class:`~repro.core.results.Answer` objects and REST dict bodies."""
    value = getattr(payload, "images_searched", None)
    if value is None and isinstance(payload, dict):
        value = payload.get("images_searched")
    return int(value or 0)


@dataclass
class ServingReport:
    """Everything the serving bench reports for one (trace, policy) run."""

    policy: BatchPolicy
    records: list[RequestRecord] = field(default_factory=list)
    groups: list[GroupRecord] = field(default_factory=list)
    #: the admission queue's high-water mark, set by the event loop
    peak_queue_depth: int = 0
    #: requests shed by admission control or expired deadlines —
    #: they never executed and are absent from ``records``.
    rejected: list[Rejected] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def n_offered(self) -> int:
        """Every request the trace offered, executed or shed."""
        return self.n_requests + self.n_rejected

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed (0.0 on an empty trace)."""
        if not self.n_offered:
            return 0.0
        return self.n_rejected / self.n_offered

    @property
    def shed_reasons(self) -> dict[str, int]:
        return dict(Counter(r.reason for r in self.rejected))

    @property
    def n_good(self) -> int:
        """Executed requests that also met their deadline (requests
        without a deadline always count)."""
        return sum(
            1 for r in self.records
            if r.deadline_us is None or r.completed_us <= r.deadline_us
        )

    @property
    def goodput_requests_per_s(self) -> float:
        """Deadline-meeting completions per second of makespan — the
        metric that collapses under metastable overload and plateaus
        under admission control."""
        span = self.makespan_us
        if span <= 0:
            return 0.0
        return self.n_good / (span / 1e6)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def makespan_us(self) -> float:
        """First arrival to last completion."""
        if not self.records:
            return 0.0
        start = min(r.arrival_us for r in self.records)
        end = max(r.completed_us for r in self.records)
        return end - start

    @property
    def total_images_searched(self) -> int:
        """Query-reference pairs compared across every request."""
        return sum(_payload_images(r.result) for r in self.records)

    @property
    def throughput_images_per_s(self) -> float:
        span = self.makespan_us
        if span <= 0:
            return 0.0
        return self.total_images_searched / (span / 1e6)

    @property
    def requests_per_s(self) -> float:
        span = self.makespan_us
        if span <= 0:
            return 0.0
        return self.n_requests / (span / 1e6)

    @property
    def mean_group_size(self) -> float:
        if not self.groups:
            return 0.0
        return sum(g.size for g in self.groups) / len(self.groups)

    @property
    def fused_occupancy(self) -> float:
        """How full the fused GEMMs ran relative to ``max_batch``."""
        if self.policy.max_batch <= 0:
            return 0.0
        return self.mean_group_size / self.policy.max_batch

    @property
    def mean_queue_wait_us(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.queue_wait_us for r in self.records) / len(self.records)

    @property
    def mean_execute_us(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.execute_us for r in self.records) / len(self.records)

    @property
    def trigger_counts(self) -> dict[str, int]:
        return dict(Counter(g.trigger for g in self.groups))

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50, 95, 99)
    ) -> dict[str, float]:
        latencies = [r.latency_us for r in self.records]
        return {
            f"p{p:g}": percentile(latencies, p) for p in percentiles
        }

    def to_dict(self) -> dict:
        """Deterministic JSON-ready summary (floats rounded to 3 dp)."""
        pct = self.latency_percentiles()
        return {
            "max_batch": self.policy.max_batch,
            "max_wait_us": round(self.policy.max_wait_us, 3),
            "n_requests": self.n_requests,
            "n_groups": self.n_groups,
            "makespan_us": round(self.makespan_us, 3),
            "throughput_images_per_s": round(self.throughput_images_per_s, 3),
            "requests_per_s": round(self.requests_per_s, 3),
            "latency_us": {
                "p50": round(pct["p50"], 3),
                "p95": round(pct["p95"], 3),
                "p99": round(pct["p99"], 3),
                "mean_queue_wait": round(self.mean_queue_wait_us, 3),
                "mean_execute": round(self.mean_execute_us, 3),
            },
            "mean_group_size": round(self.mean_group_size, 3),
            "fused_occupancy": round(self.fused_occupancy, 3),
            "peak_queue_depth": self.peak_queue_depth,
            "triggers": {
                k: self.trigger_counts[k] for k in sorted(self.trigger_counts)
            },
            "n_rejected": self.n_rejected,
            "shed_rate": round(self.shed_rate, 4),
            "shed_reasons": {
                k: self.shed_reasons[k] for k in sorted(self.shed_reasons)
            },
            "n_good": self.n_good,
            "goodput_requests_per_s": round(self.goodput_requests_per_s, 3),
        }
