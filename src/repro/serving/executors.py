"""Group executors: the pluggable back half of the serving loop.

Each executor turns one admitted group into ``(payloads, elapsed_us)``
where ``payloads`` has one entry per query (in order) and
``elapsed_us`` is the simulated time the whole group occupied the
backend.  The event loop treats the backend as serial, so
``elapsed_us`` is exactly how long the device (or cluster) is busy.

Executors are duck-typed — :class:`GroupExecutor` documents the
contract; anything with a matching ``execute`` works.  Each built-in
executor exposes its backend's telemetry handle as ``obs``, which the
serving loop meters into.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = [
    "ClusterGroupExecutor",
    "FusedEngineExecutor",
    "GroupExecutor",
    "MixedClusterExecutor",
    "SerialEngineExecutor",
    "WebTierBatchExecutor",
]


class GroupExecutor(ABC):
    """Contract: serve one fused group, report per-query payloads and
    the simulated time the group held the backend."""

    name: str = "abstract"

    @abstractmethod
    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        """Return ``(payloads, elapsed_us)`` with ``len(payloads) ==
        len(queries)``."""


class FusedEngineExecutor(GroupExecutor):
    """One engine, one fused sweep per group: every reference batch is
    staged (H2D) once and answers all queries in the group."""

    name = "engine-fused"

    def __init__(self, engine) -> None:
        self.engine = engine
        self.obs = engine.obs

    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        sweep = self.engine.search_group(queries)
        return list(sweep.answers), sweep.elapsed_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FusedEngineExecutor({self.engine!r})"


class SerialEngineExecutor(GroupExecutor):
    """Per-query baseline: the same engine, but each query runs its own
    full sweep back-to-back.  This is what serving looks like without
    the batcher — every query re-pays H2D staging and kernel launches."""

    name = "engine-serial"

    def __init__(self, engine) -> None:
        self.engine = engine
        self.obs = engine.obs

    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        answers = [self.engine.search(q) for q in queries]
        elapsed_us = float(sum(a.elapsed_us for a in answers))
        return answers, elapsed_us


class ClusterGroupExecutor(GroupExecutor):
    """Whole-group dispatch across the sharded cluster: one scatter per
    shard serves the entire group, shard sweeps overlap, and per-query
    partial-result metadata survives in each payload.

    ``nprobe`` / ``recall_target`` pass through to the cluster's
    candidate-routing tier (no-ops on a router-less cluster), so a
    serving deployment can pin its accuracy/cost point per executor.
    """

    name = "cluster-fused"

    def __init__(
        self,
        system,
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> None:
        self.system = system
        self.obs = system.obs
        self.nprobe = nprobe
        self.recall_target = recall_target

    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        sweep = self.system.search_group(
            queries, nprobe=self.nprobe, recall_target=self.recall_target
        )
        return list(sweep.answers), sweep.elapsed_us


class MixedClusterExecutor(ClusterGroupExecutor):
    """Search *and* corpus-mutation traffic on one cluster backend.

    Requests in a group are either plain queries (a bare descriptor
    array, served as :class:`ClusterGroupExecutor` serves them) or mutations:
    ``("enroll", ref_id, descriptors)`` and ``("delete", ref_id)``
    tuples.  Mutations are applied first, then the remaining searches
    run as one fused ``search_group`` so a mutation admitted before a
    search in the same group is visible to it (group-local
    read-your-writes).  Payload order mirrors query order: mutations
    yield their :class:`EnrollmentAck` / :class:`DeletionAck`,
    searches their :class:`~repro.core.results.Answer`.

    Timing model: mutations are host-side work (serialisation, KV
    writes, router absorb) at :data:`ENROLL_COST_US` each, and they
    overlap the group's GPU sweep — the backend is held for the *max*
    of the mutation time and the search time, not their sum.  A
    mutation-only group is charged its mutation time alone.
    """

    name = "cluster-mixed"

    #: per-mutation web/KV handling cost (µs) charged to the backend on
    #: top of the cluster's own simulated time.
    ENROLL_COST_US = 300.0

    @staticmethod
    def _is_mutation(query: Any) -> bool:
        return isinstance(query, tuple) and len(query) >= 2 and query[0] in (
            "enroll", "delete",
        )

    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        payloads: list[Any] = [None] * len(queries)
        mutation_us = 0.0
        search_us = 0.0
        searches: list[tuple[int, Any]] = []
        for slot, query in enumerate(queries):
            if not self._is_mutation(query):
                searches.append((slot, query))
                continue
            op = query[0]
            if op == "enroll":
                payloads[slot] = self.system.enroll(query[1], query[2])
            else:
                payloads[slot] = self.system.delete(query[1])
            mutation_us += self.ENROLL_COST_US
        if searches:
            answers, search_us = super().execute([q for _, q in searches])
            for (slot, _), answer in zip(searches, answers):
                payloads[slot] = answer
        return payloads, max(mutation_us, search_us)


class WebTierBatchExecutor(GroupExecutor):
    """The full front door: groups go through the load balancer as
    ``POST /search/batch`` requests, each query a serialized fp32
    :class:`~repro.distributed.serialization.FeatureRecord`, so executor
    time includes web-tier overhead and the payloads are the JSON-style
    response dicts."""

    name = "webtier-batch"

    def __init__(
        self,
        tier,
        top: int = 5,
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> None:
        self.tier = tier
        self.obs = tier.system.obs
        self.top = top
        self.nprobe = nprobe
        self.recall_target = recall_target

    def execute(self, queries: list[Any]) -> tuple[list[Any], float]:
        # Imported here so repro.serving does not hard-depend on the
        # distributed tier (engine-only users never touch REST).
        from ..distributed.rest import Request
        from ..distributed.serialization import serialize_descriptors

        body = {"queries": [serialize_descriptors(q) for q in queries], "top": self.top}
        if self.nprobe is not None:
            body["nprobe"] = self.nprobe
        if self.recall_target is not None:
            body["recall_target"] = self.recall_target
        record = self.tier.handle(Request("POST", "/search/batch", body))
        response = record.response
        if not response.ok:
            raise RuntimeError(
                f"/search/batch failed with {response.status}: "
                f"{response.body.get('error')}"
            )
        return list(response.body["queries"]), record.latency_us
