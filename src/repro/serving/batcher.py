"""The admission queue and its deterministic event loop.

:class:`DynamicBatcher` is a FIFO admission queue governed by a
:class:`BatchPolicy`: a group launches when ``max_batch`` requests are
pending ("size" trigger) or when the oldest pending request has waited
``max_wait_us`` ("timeout" trigger), whichever trips first.  Requests
that arrive while a group is executing join the *next* group —
continuous batching, not static windowing.

Overload protection is opt-in per policy: ``max_queue_depth`` bounds
the queue (arrivals beyond it are shed with a typed
:class:`~repro.serving.metrics.Rejected` outcome and a
``retry_after_us`` hint), and requests may carry a ``deadline_us`` —
expired ones are shed at dispatch instead of wasting a sweep, and the
surviving group executes under a :func:`repro.obs.deadline_scope`
covering its tightest member so downstream sweeps can truncate.

:func:`simulate_serving` advances a simulated microsecond clock over a
sorted arrival trace.  The device is modelled as a single serial
executor (one fused sweep at a time, matching the engine's serialized
device timeline); each launch charges the executor-reported
``elapsed_us`` and records per-request queue wait, execution span and
end-to-end latency.  No wall-clock reads anywhere — identical traces
replay byte-identical schedules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..errors import ExecutorContractError
from ..obs import MetricsRegistry, Observability, deadline_scope, default_tracer
from .metrics import GROUP_SIZE_BUCKETS, Rejected, ServingReport

_TRACER = default_tracer()

__all__ = [
    "BatchPolicy",
    "DynamicBatcher",
    "GroupRecord",
    "RequestRecord",
    "ServingRequest",
    "build_trace",
    "simulate_serving",
]


@dataclass(frozen=True)
class BatchPolicy:
    """Admission policy: launch at ``max_batch`` pending requests or
    once the oldest has waited ``max_wait_us``, whichever trips first.

    ``max_batch=1`` degenerates to per-query serving (the baseline);
    ``max_wait_us=0`` launches whatever is pending as soon as the
    device frees up, never holding a request back for company.

    ``max_queue_depth`` bounds the admission queue (0 = unbounded, the
    pre-overload-protection behaviour).  An arrival that finds the
    queue full is bounced (``"reject-new"``).
    """

    max_batch: int = 8
    max_wait_us: float = 0.0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class ServingRequest:
    """One query submission: an arrival timestamp plus an opaque query
    payload (a descriptor matrix for engine executors, anything the
    executor understands otherwise).

    ``deadline_us`` is an optional *absolute* simulated-time deadline:
    a request still queued past it is shed instead of dispatched, and
    one dispatched close to it truncates downstream sweeps via
    :func:`repro.obs.deadline_scope`.  ``None`` means "wait forever".
    """

    request_id: int
    arrival_us: float
    query: Any
    deadline_us: float | None = None


@dataclass
class GroupRecord:
    """One fused launch: which requests rode together and why."""

    group_id: int
    request_ids: list[int]
    trigger: str  # "size" | "timeout"
    launched_us: float
    completed_us: float

    @property
    def size(self) -> int:
        return len(self.request_ids)

    @property
    def execute_us(self) -> float:
        return self.completed_us - self.launched_us


@dataclass
class RequestRecord:
    """Per-request latency decomposition: ``latency = queue_wait + execute``."""

    request_id: int
    group_id: int
    group_size: int
    arrival_us: float
    dispatched_us: float
    completed_us: float
    result: Any = field(default=None, repr=False)
    deadline_us: float | None = None

    @property
    def queue_wait_us(self) -> float:
        return self.dispatched_us - self.arrival_us

    @property
    def execute_us(self) -> float:
        return self.completed_us - self.dispatched_us

    @property
    def latency_us(self) -> float:
        return self.completed_us - self.arrival_us


class DynamicBatcher:
    """FIFO admission queue; pure policy, no clock of its own."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._pending: deque[ServingRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, request: ServingRequest) -> None:
        self._pending.append(request)

    def deadline_us(self) -> float | None:
        """When the oldest pending request's wait budget expires."""
        if not self._pending:
            return None
        return self._pending[0].arrival_us + self.policy.max_wait_us

    def trigger(self, now_us: float) -> str | None:
        """Which bound (if any) says "launch now"?"""
        if not self._pending:
            return None
        if len(self._pending) >= self.policy.max_batch:
            return "size"
        if now_us >= self.deadline_us():
            return "timeout"
        return None

    def take(self) -> list[ServingRequest]:
        """Pop the oldest ``max_batch`` pending requests."""
        count = min(self.policy.max_batch, len(self._pending))
        return [self._pending.popleft() for _ in range(count)]


def build_trace(
    arrivals: Sequence[float],
    queries: Sequence[Any],
    deadline_us: float | None = None,
) -> list[ServingRequest]:
    """Zip arrival times with query payloads into a trace.  Request ids
    follow submission order, which also breaks arrival-time ties.

    ``deadline_us`` is a *relative* per-request budget: each request's
    absolute deadline is its arrival time plus the budget.
    """
    if len(arrivals) != len(queries):
        raise ValueError(
            f"{len(arrivals)} arrivals but {len(queries)} queries"
        )
    if deadline_us is not None and deadline_us <= 0:
        raise ValueError(f"deadline_us must be > 0, got {deadline_us}")
    return [
        ServingRequest(
            request_id=i,
            arrival_us=float(t),
            query=q,
            deadline_us=None if deadline_us is None else float(t) + float(deadline_us),
        )
        for i, (t, q) in enumerate(zip(arrivals, queries))
    ]


class _LoopMetrics:
    """The serving loop's families on one registry, with the children the
    loop touches per request pre-bound (no label lookup in the loop)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_serving_requests_total",
            "Requests admitted by the serving batcher",
        )
        groups = registry.counter(
            "repro_serving_groups_total",
            "Fused groups launched, by admission trigger",
            ("trigger",),
        )
        self.size_trigger = groups.labels(trigger="size")
        self.timeout_trigger = groups.labels(trigger="timeout")
        self.queue_depth = registry.gauge(
            "repro_serving_queue_depth",
            "Requests pending in the admission queue right now",
        )
        self.group_size = registry.histogram(
            "repro_serving_group_size",
            "Requests fused per launched group",
            buckets=GROUP_SIZE_BUCKETS,
        )
        self.queue_wait_us = registry.histogram(
            "repro_serving_queue_wait_us",
            "Simulated time requests waited for admission",
        )
        self.shed = registry.counter(
            "repro_serving_shed_total",
            "Requests shed by the serving tier, by reason",
            ("reason",),
        )
        completions = registry.counter(
            "repro_serving_completions_total",
            "Requests completed by the serving tier, by SLO outcome "
            "(good = finished within its deadline or had none)",
            ("outcome",),
        )
        self.completed_good = completions.labels(outcome="good")
        self.completed_late = completions.labels(outcome="late")
        self.latency_us = registry.histogram(
            "repro_serving_latency_us",
            "End-to-end simulated request latency (queue wait + execution)",
        )


def simulate_serving(
    executor,
    trace: Iterable[ServingRequest],
    policy: BatchPolicy,
) -> ServingReport:
    """Run the event loop: admit arrivals, trip the policy, charge the
    executor, account latency.  Returns a :class:`ServingReport`.

    ``executor`` is any object with
    ``execute(queries) -> (payloads, elapsed_us)`` — see
    :mod:`repro.serving.executors`.  The loop meters into
    ``executor.obs``, the backend's telemetry handle (every built-in
    executor exposes one), and drives the simulated clock of the
    recorder attached to it; an executor without one meters into a
    private handle.

    With a bounded queue (``policy.max_queue_depth > 0``) arrivals
    that find it full are shed; requests whose
    ``deadline_us`` passes while they wait are shed at dispatch.  Shed
    requests never execute — they come back as typed
    :class:`~repro.serving.metrics.Rejected` outcomes in
    ``report.rejected``, each with a ``retry_after_us`` hint.
    """
    requests = sorted(trace, key=lambda r: r.arrival_us)
    batcher = DynamicBatcher(policy)
    records: list[RequestRecord] = []
    groups: list[GroupRecord] = []
    rejected: list[Rejected] = []
    peak_queue_depth = 0
    obs = getattr(executor, "obs", None) or Observability()
    loop = _LoopMetrics(obs.registry)

    i = 0
    n = len(requests)
    t = 0.0
    free_at = 0.0

    def _shed(request: ServingRequest, now_us: float, reason: str) -> None:
        loop.shed.labels(reason=reason).inc()
        if reason == "deadline-expired":
            retry_after_us = 0.0  # retrying a missed deadline buys nothing
        else:
            # earliest the device could even start it, plus its full
            # wait budget: the soonest a retry stands a fair chance
            retry_after_us = max(free_at - now_us, 0.0) + policy.max_wait_us
        rejected.append(
            Rejected(
                request_id=request.request_id,
                arrival_us=request.arrival_us,
                shed_us=now_us,
                reason=reason,
                retry_after_us=retry_after_us,
            )
        )

    while i < n or len(batcher):
        if not len(batcher):
            t = max(t, requests[i].arrival_us)
        while i < n and requests[i].arrival_us <= t:
            arrival = requests[i]
            i += 1
            if policy.max_queue_depth and len(batcher) >= policy.max_queue_depth:
                _shed(arrival, arrival.arrival_us, "reject-new")
                continue
            batcher.enqueue(arrival)
            loop.requests.inc()
        depth = len(batcher)
        loop.queue_depth.set(depth)
        peak_queue_depth = max(peak_queue_depth, depth)
        # this loop owns the absolute timeline: feed it to the attached
        # time-series recorder so samples land on simulated boundaries
        obs.advance_to(t)
        if t < free_at:
            # device busy: late arrivals admitted above join the next
            # group once the running sweep completes.
            t = free_at
            continue
        trig = batcher.trigger(t)
        if trig is None:
            # Idle device, under-full group, wait budget unspent: sleep
            # until the deadline or the next arrival, whichever first.
            deadline = batcher.deadline_us()
            if i < n:
                t = min(deadline, requests[i].arrival_us)
            else:
                t = deadline
            continue
        taken = batcher.take()
        loop.queue_depth.set(len(batcher))
        group = []
        for request in taken:
            if request.deadline_us is not None and t >= request.deadline_us:
                # expired while queued: shedding now is strictly better
                # than spending device time on an answer nobody awaits
                _shed(request, t, "deadline-expired")
            else:
                group.append(request)
        if not group:
            continue
        # the group's sweep runs under its tightest member's remaining
        # budget, so downstream engines can truncate instead of overrun
        budgets = [
            r.deadline_us - t for r in group if r.deadline_us is not None
        ]
        with _TRACER.span(
            "serving.group", layer="serving",
            size=len(group), trigger=trig,
        ) as span:
            queries = [r.query for r in group]
            # nested cluster calls advance the recorder *relatively*;
            # suppress them here — this loop charges the same simulated
            # time absolutely via advance_to below
            with obs.exclusive():
                if budgets:
                    with deadline_scope(min(budgets)):
                        payloads, elapsed_us = executor.execute(queries)
                else:
                    payloads, elapsed_us = executor.execute(queries)
            if span is not None:
                span.set(sim_elapsed_us=float(elapsed_us))
        if len(payloads) != len(group):
            raise ExecutorContractError(
                expected=len(group),
                got=len(payloads),
                executor=type(executor).__name__,
            )
        completed = t + float(elapsed_us)
        # launch-time events are stamped at t (the clock's position)…
        (loop.size_trigger if trig == "size" else loop.timeout_trigger).inc()
        loop.group_size.observe(float(len(group)))
        for request in group:
            loop.queue_wait_us.observe(t - request.arrival_us)
        # …then the clock advances before events stamped at `completed`,
        # so a sample at a boundary in (t, completed] excludes them
        obs.advance_to(completed)
        group_id = len(groups)
        groups.append(
            GroupRecord(
                group_id=group_id,
                request_ids=[r.request_id for r in group],
                trigger=trig,
                launched_us=t,
                completed_us=completed,
            )
        )
        for request, payload in zip(group, payloads):
            loop.latency_us.observe(completed - request.arrival_us)
            if request.deadline_us is None or completed <= request.deadline_us:
                loop.completed_good.inc()
            else:
                loop.completed_late.inc()
            records.append(
                RequestRecord(
                    request_id=request.request_id,
                    group_id=group_id,
                    group_size=len(group),
                    arrival_us=request.arrival_us,
                    dispatched_us=t,
                    completed_us=completed,
                    result=payload,
                    deadline_us=request.deadline_us,
                )
            )
        free_at = completed

    # the loop drained: leave the gauge telling the truth (an idle
    # queue), not frozen at the last pre-launch depth
    obs.advance_to(max(t, free_at))
    loop.queue_depth.set(0)

    records.sort(key=lambda r: r.request_id)
    rejected.sort(key=lambda r: r.request_id)
    return ServingReport(
        policy=policy, records=records, groups=groups,
        peak_queue_depth=peak_queue_depth, rejected=rejected,
    )
