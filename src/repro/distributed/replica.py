"""Replica groups: one shard served by 1..R GPU containers.

The paper's distributed tier (Sec. 8) places each reference shard on
exactly one container, so losing a node immediately degrades results to
``partial`` until KV re-hydration completes.  Production similarity-
search fleets scale *reads* by replicating hot shards instead (FAISS-
style sharded search replicates the index across GPUs); this module
models that: a :class:`ReplicaGroup` is the set of containers that all
hold the same shard's reference set, and the cluster's scatter-gather
spreads read load across the group's healthy replicas, transparently
retrying on a sibling before the shard is ever reported unsearched.

Replica lifecycle (the graceful part of elasticity)::

    WARMING ──ready_at_us──▶ SERVING ──drain──▶ DRAINING ──grace──▶ detached

* A **warming** replica has already hydrated its hybrid cache from the
  KV store, but does not take read traffic until its readiness gate
  passes (``ready_at_us`` on the simulated clock — cache warm-up is not
  free).  It *does* observe corpus mutations, so it is consistent the
  moment it becomes ready.
* A **serving** replica takes reads and mutations.
* A **draining** replica takes no *new* reads but finishes in-flight
  work and keeps observing mutations; after ``DRAIN_GRACE_US`` of
  simulated time it is detached.  Nothing is dropped on scale-down.

Mutations (enroll/update/delete) propagate to **every** attached
replica regardless of state, so all replicas of a group advance the
same index-epoch sequence and a search answered by any replica reports
the same ``corpus_epoch`` — the PR 7 tombstone-consistency contract now
holds across replicas, not just across failover replays.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs import Observability

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.results import Answer, Sweep
    from .node import SearchNode

__all__ = [
    "ReplicaGroup",
    "ReplicaState",
    "DRAIN_GRACE_US",
    "WARMUP_BASE_US",
    "WARMUP_US_PER_REF",
]

#: simulated time a draining replica keeps running to finish in-flight
#: work before it is detached (it takes no new reads in the meantime).
DRAIN_GRACE_US = 2_000.0

#: fixed simulated cost of bringing a fresh replica online (container
#: start, KV connection, engine init) before per-reference cache warm-up.
WARMUP_BASE_US = 5_000.0

#: simulated per-reference cache warm-up cost (KV read + deserialise +
#: preprocess + H2D staging of one reference matrix).
WARMUP_US_PER_REF = 200.0


class ReplicaState(Enum):
    """Lifecycle state of one replica within its group."""

    WARMING = "warming"
    SERVING = "serving"
    DRAINING = "draining"


class ReplicaGroup:
    """The containers jointly serving one shard.

    ``shard_id`` is the stable logical shard name (minted from the
    founding primary's node id — with replication factor 1 the group
    degenerates to exactly the pre-replica system, bit for bit).  The
    group owns a deterministic read cursor so successive reads rotate
    across serving replicas (load spreading without randomness).

    Health is deliberately *not* filtered here: a DOWN replica is still
    offered to the gather, whose attempt fails fast through the node's
    fault gate and falls over to the next sibling — that keeps the
    breaker/health bookkeeping identical to the single-replica system
    and lets :meth:`DistributedSearchSystem.repair` observe the death.
    """

    def __init__(
        self,
        shard_id: str,
        nodes: list[SearchNode] | None = None,
        obs: Observability | None = None,
    ) -> None:
        registry = (obs or Observability()).registry
        self._breaker_skips = registry.counter(
            "repro_cluster_breaker_skipped_total",
            "Node attempts skipped because the node's circuit breaker was open",
        )
        self._replica_retries = registry.counter(
            "repro_cluster_replica_retries_total",
            "Read slices transparently retried on a sibling replica after the "
            "chosen reader failed (the shard only lands in unsearched_shards "
            "when every serving replica is exhausted)",
        )
        self.shard_id = str(shard_id)
        self.nodes: list[SearchNode] = list(nodes or [])
        self._cursor = 0
        for node in self.nodes:
            node.shard_id = self.shard_id

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaGroup({self.shard_id!r}, "
            f"replicas={[n.node_id for n in self.nodes]})"
        )

    # -- membership -----------------------------------------------------
    @property
    def primary(self) -> SearchNode:
        if not self.nodes:
            raise ValueError(f"replica group {self.shard_id!r} is empty")
        return self.nodes[0]

    def attach(self, node: SearchNode) -> None:
        node.shard_id = self.shard_id
        self.nodes.append(node)

    def detach(self, node_id: str) -> SearchNode:
        for i, node in enumerate(self.nodes):
            if node.node_id == node_id:
                return self.nodes.pop(i)
        raise KeyError(node_id)

    def get(self, node_id: str) -> SearchNode | None:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        return None

    # -- epochs ---------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The shard's index epoch: the high-water mark across replicas
        (replicas advance in lockstep; a replica that missed a mutation
        because it was crashed is behind and gets detached by repair)."""
        return max((node.epoch for node in self.nodes), default=0)

    @property
    def n_references(self) -> int:
        """The shard's reference count as served (max across replicas —
        a warming replica may still be catching up)."""
        return max((node.n_references for node in self.nodes), default=0)

    # -- lifecycle ------------------------------------------------------
    def promote_ready(self, now_us: float | None) -> None:
        """Promote warming replicas whose readiness gate has passed.

        The gate is twofold: the simulated warm-up time has elapsed
        (``now_us`` is ``None`` when no recorder is attached — then time
        is not modelled and warm-up is instantaneous) *and* the replica
        has caught up to the shard's reference set and epoch, so it can
        never serve a stale view.
        """
        target_epoch = self.epoch
        target_refs = self.n_references
        for node in self.nodes:
            if node.replica_state is not ReplicaState.WARMING:
                continue
            if now_us is not None and now_us < node.ready_at_us:
                continue
            if node.n_references < target_refs or node.epoch < target_epoch:
                continue
            node.replica_state = ReplicaState.SERVING

    def drained(self, now_us: float | None) -> list[SearchNode]:
        """Draining replicas whose grace period has elapsed (ready to be
        detached).  With no recorder attached the grace is immediate."""
        out = []
        for node in self.nodes:
            if node.replica_state is not ReplicaState.DRAINING:
                continue
            if now_us is None or now_us >= node.draining_since_us + DRAIN_GRACE_US:
                out.append(node)
        return out

    def active(self) -> list[SearchNode]:
        """Replicas counted toward the desired size (serving + warming;
        draining replicas are already on their way out)."""
        return [
            n for n in self.nodes
            if n.replica_state is not ReplicaState.DRAINING
        ]

    # -- read selection -------------------------------------------------
    def readers(self, now_us: float | None = None) -> list[SearchNode]:
        """Replicas eligible for reads right now, in deterministic
        rotated order (the cursor advances one slot per call so
        successive reads spread across the group).

        Eligible = state ``SERVING``; warming replicas are promoted
        first if their gate passed, draining replicas take no new
        reads.  The caller tries them in order: the first is the chosen
        reader, the rest are failover siblings.
        """
        self.promote_ready(now_us)
        eligible = [
            n for n in self.nodes if n.replica_state is ReplicaState.SERVING
        ]
        if not eligible:
            return []
        start = self._cursor % len(eligible)
        self._cursor += 1
        return eligible[start:] + eligible[:start]

    def read(
        self,
        n_queries: int,
        attempt: Callable[["SearchNode", Sequence[int]], tuple[Sweep | None, float, int]],
        now_us: float | None = None,
    ) -> tuple[list[Answer] | None, float, int]:
        """Answer a group of ``n_queries`` from this shard's replicas.

        The queries are partitioned round-robin over the eligible
        readers whose circuit breaker admits them; the slices sweep
        concurrently, so the shard's time is the slowest slice.  A
        failed slice is retried transparently down the rotated sibling
        chain (sequentially — its time is the sum of the attempts)
        before the shard is given up.

        ``attempt(replica, query_indices)`` runs one slice on one
        replica and returns ``(sweep | None, elapsed_us, retries)``.
        Returns ``(answers, shard_us, retries)`` with one answer per
        query in submission order — each under its own slice's sweep —
        or ``answers=None`` when no reader
        was admitted or some slice exhausted every sibling (the shard
        is unsearched).
        """
        workers = []
        for replica in self.readers(now_us):
            if replica.breaker is not None and not replica.breaker.allow():
                self._breaker_skips.inc()
                continue
            workers.append(replica)
        answers: list = [None] * n_queries
        shard_us = 0.0
        retries = 0
        if not workers:
            return None, shard_us, retries
        for w in range(min(len(workers), n_queries)):
            indices = range(w, n_queries, len(workers))
            answered = None
            slice_us = 0.0
            for j, replica in enumerate(workers[w:] + workers[:w]):
                if j:
                    self._replica_retries.inc()
                answered, node_us, node_retries = attempt(replica, indices)
                slice_us += node_us
                retries += node_retries
                if answered is not None:
                    break
            shard_us = max(shard_us, slice_us)
            if answered is None:
                return None, shard_us, retries
            for i, answer in zip(indices, answered.answers):
                answers[i] = answer
        return answers, shard_us, retries

    def snapshot(self) -> dict:
        """Replica-group rollup for stats/health payloads."""
        return {
            "shard_id": self.shard_id,
            "replicas": [
                {
                    "node_id": n.node_id,
                    "state": n.replica_state.value,
                    "health": n.health.state.value,
                    "epoch": n.epoch,
                    "references": n.n_references,
                }
                for n in self.nodes
            ],
            "epoch": self.epoch,
            "references": self.n_references,
        }
