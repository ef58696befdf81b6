"""Web tier with load balancing (Fig. 6's four RESTful containers).

The paper fronts the GPU containers with web-service containers; this
module models that tier: a :class:`WebTier` owns ``n_workers`` workers
sharing one stateless route table, dispatches incoming requests
round-robin, and tracks a simulated per-worker clock so concurrent
request bursts exhibit realistic queueing — each worker serialises its
own requests while different workers proceed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import default_tracer
from .cluster import DistributedSearchSystem, WEB_TIER_OVERHEAD_US
from .rest import Request, Response, build_api
from .serialization import serialize_descriptors

__all__ = ["DispatchRecord", "WebTier"]

#: request parsing/serialisation cost charged per request on its worker.
REQUEST_HANDLING_US = 500.0

_TRACER = default_tracer()


@dataclass
class DispatchRecord:
    """Outcome of one request through the web tier."""

    worker: int
    response: Response
    started_us: float
    completed_us: float

    @property
    def latency_us(self) -> float:
        """Time the request spent on its worker (completion − start).

        ``completed_us`` alone is an absolute worker-clock reading, so
        any queued request would report every predecessor's time too.
        """
        return self.completed_us - self.started_us


class WebTier:
    """Load-balanced front end over one search cluster."""

    def __init__(self, system: DistributedSearchSystem, n_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError("need at least one web worker")
        self.system = system
        self._web_requests = system.obs.registry.counter(
            "repro_web_requests_total",
            "Requests dispatched through the web tier, by route root and status",
            ("route", "status"),
        )
        self._router = build_api(system)  # stateless: every worker shares it
        self.worker_clock_us = [0.0] * n_workers
        self.requests_handled = [0] * n_workers
        self._next = 0

    @property
    def n_workers(self) -> int:
        return len(self.worker_clock_us)

    def _pick_worker(self) -> int:
        worker = self._next
        self._next = (self._next + 1) % self.n_workers
        return worker

    def handle(self, request: Request) -> DispatchRecord:
        """Dispatch one request; the worker's clock advances by the
        handling cost plus (for searches) the cluster's simulated time."""
        worker = self._pick_worker()
        started = self.worker_clock_us[worker]
        root = request.path.split("/", 2)[1] if "/" in request.path else request.path
        with _TRACER.span(
            "web.request", layer="web",
            method=request.method, path=request.path, worker=worker,
        ) as span:
            response = self._router.handle(request)
            if span is not None:
                span.set(status=response.status)
        # route label uses only the first path segment — ids would
        # explode the label cardinality
        self._web_requests.labels(route=root, status=response.status).inc()
        cost = REQUEST_HANDLING_US
        if request.path in ("/search", "/search/batch") and response.ok:
            # the cluster already accounts the web overhead once;
            # subtract it so the tier model doesn't double charge
            # (batch responses carry the group's shared elapsed_us)
            cost += max(0.0, response.body.get("elapsed_us", 0.0) - WEB_TIER_OVERHEAD_US)
        self.worker_clock_us[worker] = started + cost
        self.requests_handled[worker] += 1
        return DispatchRecord(
            worker=worker,
            response=response,
            started_us=started,
            completed_us=self.worker_clock_us[worker],
        )

    def handle_burst(self, requests: list[Request]) -> list[DispatchRecord]:
        """Dispatch a burst arriving simultaneously; returns records in
        submission order.  Makespan is :meth:`makespan_us` afterwards."""
        return [self.handle(request) for request in requests]

    def health(self) -> Response:
        """Health-check the cluster through a web worker (the probe is
        a real request: it is load-balanced and charged like any other)."""
        return self.handle(Request("GET", "/health")).response

    def elastic(self) -> Response:
        """Fleet elasticity rollup through a web worker
        (``GET /elastic``): replica topology, warming/draining counts,
        node-seconds cost, and autoscaler state."""
        return self.handle(Request("GET", "/elastic")).response

    def enroll(self, ref_id: str, descriptors) -> Response:
        """Online enrollment through a web worker (``POST /enroll``); the
        descriptors travel as a serialized fp32 feature record."""
        body = {"id": str(ref_id), "descriptors": serialize_descriptors(descriptors)}
        return self.handle(Request("POST", "/enroll", body)).response

    def delete_reference(self, ref_id: str) -> Response:
        """Online deletion through a web worker
        (``DELETE /reference/{id}``); idempotent."""
        return self.handle(Request("DELETE", f"/reference/{ref_id}")).response

    def makespan_us(self) -> float:
        """Completion time of the busiest worker."""
        return max(self.worker_clock_us)

    def reset_clocks(self) -> None:
        self.worker_clock_us = [0.0] * self.n_workers
