"""The distributed texture search system (Sec. 8, Fig. 6).

``DistributedSearchSystem`` shards reference matrices round-robin over
its GPU containers (the paper allocates them "equally to those 14 GPU
containers"), persists every record in the Redis-like store, and
answers searches by scatter-gather: the query fans out to all nodes,
each scans its shard, and the best match wins globally.

Simulated wall-clock of one search is the *maximum* node time (the
nodes run concurrently) plus a fixed web/network overhead; aggregate
throughput is the sum of node throughputs — this is the arithmetic
behind the paper's 872,984 img/s on 14 P100s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.compute import compute_scope
from ..core.config import EngineConfig
from ..core.kernels import QueryMatrix, ReferenceMatrix
from ..core.registry import create_kernel
from ..core.results import Answer, Sweep
from ..errors import (
    ClusterError,
    DegradedClusterError,
    HalfPrecisionOverflowError,
    InvalidDescriptorsError,
    NodeDownError,
    TransientNodeError,
)
from ..gpusim.device import DeviceSpec, TESLA_P100
from ..obs import (
    DeadlineFanOut,
    Observability,
    current_deadline,
    default_tracer,
)
from ..routing import CandidateRouter, RouteDecision, RouterPolicy
from ..routing import build_router as _make_router
from .breaker import BreakerPolicy
from .enrollment import (
    DeletionAck,
    EnrollmentAck,
    EpochRegistry,
    TombstoneLog,
)
from .health import NodeHealth
from .kvstore import KVStore
from .node import NodeConfig, SearchNode
from .replica import (
    WARMUP_BASE_US,
    WARMUP_US_PER_REF,
    ReplicaGroup,
    ReplicaState,
)
from .serialization import FeatureRecord, deserialize_record, serialize_record

__all__ = [
    "DistributedSearchSystem",
    "RetryPolicy",
    "STATS_SCHEMA_VERSION",
]

#: request routing + result aggregation overhead of the web tier per
#: search (REST parsing, Redis metadata lookups, fan-out RPC).
WEB_TIER_OVERHEAD_US = 2000.0

#: version of the ``GET /stats`` payload shape; bump when keys change.
STATS_SCHEMA_VERSION = 9

_TRACER = default_tracer()

#: the header counts a gather sums over the shard sweeps that answered a query
_COUNTS = ("images_searched", "images_skipped", "images_pruned", "cascade_pruned")


#: the registry-backed blocks of ``GET /stats``: block -> key ->
#: (metric name, label values).  A label left out sums over all of its
#: children (``kind`` of the router metrics: every router kind counts,
#: whichever kinds exist).  A new metric joins ``/stats`` by adding one
#: row here.
_STATS_BLOCKS: dict[str, dict[str, tuple[str, dict[str, str]]]] = {
    "cache": {
        "adds_total": ("repro_cache_adds_total", {}),
        "demotions_total": ("repro_cache_demotions_total", {}),
        "evictions_total": ("repro_cache_evictions_total", {}),
        "sweep_hits_total": ("repro_cache_sweep_lookups_total", {"result": "hit"}),
        "sweep_misses_total": ("repro_cache_sweep_lookups_total", {"result": "miss"}),
    },
    "fault_tolerance": {
        "searches_single_total": ("repro_cluster_searches_total", {"kind": "single"}),
        "searches_group_total": ("repro_cluster_searches_total", {"kind": "group"}),
        "retries_total": ("repro_cluster_retries_total", {}),
        "unsearched_shards_total": ("repro_cluster_unsearched_shards_total", {}),
        "partial_results_total": ("repro_cluster_partial_results_total", {}),
        "failovers_total": ("repro_cluster_failovers_total", {}),
    },
    "routing": {
        "nominations_routed_total": (
            "repro_router_nominations_total", {"outcome": "routed"}
        ),
        "nominations_exhaustive_total": (
            "repro_router_nominations_total", {"outcome": "exhaustive"}
        ),
        "candidate_hits_total": ("repro_router_candidate_hit_total", {"result": "hit"}),
        "candidate_misses_total": ("repro_router_candidate_hit_total", {"result": "miss"}),
        "unrouted_shards_total": ("repro_cluster_unrouted_shards_total", {}),
        "images_pruned_total": ("repro_engine_images_pruned_total", {}),
    },
    "cascade": {
        "images_pruned_total": ("repro_engine_cascade_pruned_total", {}),
    },
    "enrollment": {
        "enrolls_total": ("repro_enrollment_ops_total", {"op": "enroll"}),
        "updates_total": ("repro_enrollment_ops_total", {"op": "update"}),
        "deletes_total": ("repro_enrollment_ops_total", {"op": "delete"}),
        "cache_removals_total": ("repro_cache_removals_total", {}),
        "router_refresh_incremental_total": (
            "repro_router_refresh_total", {"mode": "incremental"}
        ),
        "router_refresh_rebuild_total": (
            "repro_router_refresh_total", {"mode": "rebuild"}
        ),
    },
    "overload": {
        "shed_reject_new_total": ("repro_serving_shed_total", {"reason": "reject-new"}),
        "shed_deadline_expired_total": (
            "repro_serving_shed_total", {"reason": "deadline-expired"}
        ),
        "deadline_expired_sweeps_total": ("repro_engine_deadline_expired_total", {}),
        "deadline_skipped_shards_total": (
            "repro_cluster_deadline_skipped_shards_total", {}
        ),
        "breaker_skipped_total": ("repro_cluster_breaker_skipped_total", {}),
        "breaker_opened_total": ("repro_breaker_transitions_total", {"to": "open"}),
    },
}


@dataclass(frozen=True)
class RetryPolicy:
    """Per-node retry/timeout knobs for scatter-gather searches.

    A node attempt fails on a transient error or when its simulated
    latency exceeds ``timeout_us`` (0 disables the timeout).  Failed
    attempts are retried up to ``max_attempts`` total, waiting
    ``backoff_us * backoff_multiplier**retry`` of simulated time before
    each retry; a node that exhausts its attempts is skipped and its
    shard reported unsearched.
    """

    max_attempts: int = 3
    timeout_us: float = 0.0
    backoff_us: float = 1000.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_us < 0 or self.backoff_us < 0:
            raise ValueError("timeout_us and backoff_us must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_for(self, retry_index: int) -> float:
        """Simulated wait before the ``retry_index``-th retry (0-based)."""
        return self.backoff_us * self.backoff_multiplier**retry_index


class DistributedSearchSystem:
    """Fourteen-GPU-container texture identification service (scalable
    to any node count)."""

    def __init__(
        self,
        n_nodes: int = 14,
        engine_config: EngineConfig | None = None,
        device_spec: DeviceSpec = TESLA_P100,
        node_config: NodeConfig | None = None,
        store: KVStore | None = None,
        retry_policy: RetryPolicy | None = None,
        min_shard_fraction: float = 0.0,
        auto_failover: bool = True,
        fault_injector=None,
        health_policy=None,
        breaker_policy: BreakerPolicy | None = None,
        router_policy: RouterPolicy | None = None,
        replication_factor: int = 1,
    ) -> None:
        if n_nodes < 1:
            raise ClusterError("a cluster needs at least one node")
        if not 0.0 <= min_shard_fraction <= 1.0:
            raise ClusterError("min_shard_fraction must be in [0, 1]")
        if replication_factor < 1:
            raise ClusterError("replication_factor must be >= 1")
        self.engine_config = engine_config or EngineConfig(m=384, n=768)
        #: this system's telemetry: every part built below meters into it
        self.obs = Observability()
        registry = self.obs.registry
        searches = registry.counter(
            "repro_cluster_searches_total",
            "Scatter-gather searches answered by the cluster",
            ("kind",),
        )
        self._search_single = searches.labels(kind="single")
        self._search_group = searches.labels(kind="group")
        self._retries = registry.counter(
            "repro_cluster_retries_total",
            "Extra node attempts spent after transient failures or timeouts",
        )
        self._unsearched = registry.counter(
            "repro_cluster_unsearched_shards_total",
            "Populated shards skipped after exhausting their retry budget",
        )
        self._partials = registry.counter(
            "repro_cluster_partial_results_total",
            "Searches answered with at least one shard missing",
        )
        self._failovers = registry.counter(
            "repro_cluster_failovers_total",
            "DOWN nodes decommissioned and re-hydrated onto survivors",
        )
        self._deadline_skips = registry.counter(
            "repro_cluster_deadline_skipped_shards_total",
            "Populated shards never attempted because the request deadline had expired",
        )
        self._unrouted_skips = registry.counter(
            "repro_cluster_unrouted_shards_total",
            "Populated shards deliberately not fanned out to because the "
            "candidate router nominated other shards (pruning, not faults)",
        )
        self._scale_events = registry.counter(
            "repro_cluster_scale_events_total",
            "Fleet topology changes (shards commissioned/decommissioned, "
            "replicas attached/detached)",
            ("action",),
        )
        self._router_hits = registry.counter(
            "repro_router_candidate_hit_total",
            "Routed searches by whether the pruned gather still produced a "
            "scoring match (a live proxy for candidate recall; the routing "
            "bench measures true recall against the exhaustive path)",
            ("result",),
        )
        self._enroll_ops = registry.counter(
            "repro_enrollment_ops_total",
            "Corpus mutations through the enrollment path",
            ("op",),
        )
        #: the web tier's feature preparation (Fig. 6): the host-side,
        #: never-charged transforms run here once per request; the GPU
        #: containers behind it only match.
        self._kernel = create_kernel(self.engine_config)
        self.store = store or KVStore()
        #: durable per-shard epoch marks + deletion tombstones (the
        #: epoched-corpus contract lives in the KV store, like the
        #: feature blobs it protects).
        self.epochs = EpochRegistry(self.store, self.obs)
        self.tombstones = TombstoneLog(self.store, self.obs)
        self.retry_policy = retry_policy or RetryPolicy()
        self.min_shard_fraction = float(min_shard_fraction)
        self.auto_failover = bool(auto_failover)
        #: two-tier retrieval: ``None`` keeps the exhaustive
        #: scatter-gather bit-identical to the pre-routing system.
        self.router_policy = router_policy
        self._router: CandidateRouter | None = None
        self._node_config = node_config
        self._device_spec = device_spec
        self._health_policy = health_policy
        self._breaker_policy = breaker_policy
        self._node_seq = n_nodes  # next fresh node index (ids are never reused)
        self.fault_injector = None
        self.replication_factor = int(replication_factor)
        #: autoscaler attached via :meth:`Autoscaler.attach` (stats only).
        self.autoscaler = None
        #: node-seconds cost accounting on the simulated clock.
        self._node_started_us: dict[str, float] = {}
        self._node_seconds_retired = 0.0
        self.nodes = [
            SearchNode(
                f"gpu-{i:02d}", self.engine_config, device_spec, node_config,
                health_policy=health_policy, breaker_policy=breaker_policy,
                obs=self.obs,
            )
            for i in range(n_nodes)
        ]
        #: shard_id -> the replica group serving that shard.  Shard ids
        #: are minted from the founding primary's node id, so with
        #: ``replication_factor=1`` the topology (and every result
        #: payload keyed by shard) is bit-identical to the pre-replica
        #: system.
        self.groups: dict[str, ReplicaGroup] = {}
        for node in self.nodes:
            # a rebuilt cluster over a pre-existing store continues each
            # shard's epoch sequence instead of restarting from zero
            node.epoch = self.epochs.get(node.node_id)
            self.groups[node.node_id] = ReplicaGroup(node.node_id, [node], self.obs)
            self._stamp_start(node)
        from .sharding import RoundRobinPlacement

        self.placement = RoundRobinPlacement([node.node_id for node in self.nodes])
        self._placement: dict[str, str] = {}
        if fault_injector is not None:
            fault_injector.install(self)
        for shard_id in list(self.groups):
            for _ in range(self.replication_factor - 1):
                self.add_replica(shard_id)

    # ------------------------------------------------------------------
    def _node_by_id(self, node_id: str) -> SearchNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ClusterError(f"unknown node {node_id!r}")

    def _group_for_shard(self, shard_id: str) -> ReplicaGroup:
        try:
            return self.groups[shard_id]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_id!r}") from None

    def _group_of_node(self, node_id: str) -> ReplicaGroup | None:
        for group in self.groups.values():
            if group.get(node_id) is not None:
                return group
        return None

    def _stamp_start(self, node: SearchNode) -> None:
        now = self.obs.now_us
        self._node_started_us[node.node_id] = 0.0 if now is None else now

    def _retire_node(self, node: SearchNode) -> None:
        started = self._node_started_us.pop(node.node_id, None)
        now = self.obs.now_us
        if started is not None and now is not None:
            self._node_seconds_retired += max(now - started, 0.0) / 1e6

    def node_seconds(self) -> float:
        """Fleet cost so far in node-seconds of simulated time (retired
        nodes' lifetimes plus every live node's time since attach)."""
        total = self._node_seconds_retired
        now = self.obs.now_us
        if now is None:
            return total
        for node in self.nodes:
            started = self._node_started_us.get(node.node_id)
            if started is not None:
                total += max(now - started, 0.0) / 1e6
        return total

    def _replica_unreachable(self, node: SearchNode) -> bool:
        """Whether a mutation cannot land on this replica right now (it
        is behind from here on; repair detaches it when siblings hold
        the shard)."""
        if node.health.state is NodeHealth.DOWN:
            return True
        return (
            self.fault_injector is not None
            and self.fault_injector.is_crashed(node.node_id)
        )

    def _mutate_group(self, group: ReplicaGroup, op) -> None:
        """Apply one corpus mutation to every replica of ``group`` so
        all replicas advance the same epoch sequence in lockstep.

        Warming and draining replicas are included (they must stay
        consistent for promotion / in-flight work).  An unreachable
        replica is skipped *only when siblings exist* — it has diverged
        and repair will detach it; a single-replica shard mutates
        unconditionally, exactly the pre-replica behaviour (the KV
        store remains the system of record either way).
        """
        siblings = len(group.nodes) > 1
        for node in group.nodes:
            if siblings and self._replica_unreachable(node):
                continue
            op(node)

    def _prepared(self, transform, descriptors: np.ndarray):
        """One of the kernel's host-side transforms of client-supplied
        descriptors; what it rejects is the client's error, raised before
        the request has touched anything."""
        try:
            return transform(descriptors)
        except (ValueError, HalfPrecisionOverflowError) as exc:
            raise InvalidDescriptorsError(str(exc)) from exc

    def add(self, ref_id: str, descriptors: np.ndarray) -> str:
        """Enrol a reference; returns the shard that owns it.

        The raw descriptors are also persisted in the KV store (the
        system of record) so containers can re-hydrate after restarts.
        Every replica of the owning shard observes the mutation, so the
        group's ``corpus_epoch`` advances in lockstep — from one
        preparation, made here ahead of the write: descriptors the
        backend cannot prepare raise
        :class:`~repro.errors.InvalidDescriptorsError` with nothing
        written.
        """
        prepared = self._prepared(self._kernel.prepare_reference, descriptors)
        return self._commit_add(str(ref_id), descriptors, ReferenceMatrix(*prepared))

    def _commit_add(self, ref_id: str, descriptors: np.ndarray, prepared: ReferenceMatrix) -> str:
        """:meth:`add` past preparation: the durable write of the raw
        descriptors, then ``prepared`` to every replica."""
        record = FeatureRecord(
            ref_id=ref_id,
            matrix=np.asarray(descriptors, dtype=np.float32),
            precision="fp32",
            scale=1.0,
        )
        self.store.set(f"feature:{ref_id}", serialize_record(record))
        if ref_id in self._placement:
            group = self._group_for_shard(self._placement[ref_id])  # update in place
        else:
            group = self._group_for_shard(self.placement.place(ref_id))
            self._placement[ref_id] = group.shard_id
        self._mutate_group(group, lambda node: node.add(ref_id, prepared))
        self.store.hset("placement", ref_id, group.shard_id.encode())
        # the blob supersedes any earlier delete of this id; clearing
        # the tombstone makes re-enrollment a fresh logical record
        self.tombstones.clear(ref_id)
        self.epochs.record(group.shard_id, group.epoch)
        if self._router is not None:
            self._router.add(ref_id, record.matrix, group.shard_id)
        return group.shard_id

    def enroll(self, ref_id: str, descriptors: np.ndarray) -> EnrollmentAck:
        """Online enrollment under live traffic; returns an ack whose
        ``epoch`` gives the client read-your-writes (see
        :attr:`~repro.core.results.Sweep.corpus_epoch`).

        Unlike bulk :meth:`add`, the target shard's fault gate runs
        *before* anything is persisted: a crashed or flaky node raises
        (:class:`~repro.errors.NodeDownError` /
        :class:`~repro.errors.TransientNodeError`) and neither the KV
        store nor the placement map mutates — the client can retry,
        and after auto-failover the retry lands on a healthy owner.
        """
        ref_id = str(ref_id)
        with _TRACER.span("enroll", layer="cluster", ref=ref_id, op="enroll") as span:
            prepared = self._prepared(self._kernel.prepare_reference, descriptors)
            updated = ref_id in self._placement
            # peek, don't place: the gate must run against the shard
            # add() will commit to, and round-robin's place() consumes
            # its cursor
            target = self._placement.get(ref_id) or self.placement.peek(ref_id)
            group = self._group_for_shard(target)
            # gate the *full* replica set, not just the primary: the
            # mutation must land on every active replica to keep the
            # group's epochs in lockstep, so any crashed/flaky replica
            # fails the enrollment before anything is persisted
            for replica in group.active():
                replica._gate()
            shard_id = self._commit_add(ref_id, descriptors, ReferenceMatrix(*prepared))
            epoch = self.epochs.get(shard_id)
            self._enroll_ops.labels(op="update" if updated else "enroll").inc()
            if span is not None:
                span.set(node=shard_id, epoch=epoch, updated=updated)
        self.obs.advance_by(WEB_TIER_OVERHEAD_US)
        return EnrollmentAck(
            ref_id=ref_id, node_id=shard_id, epoch=epoch, updated=updated
        )

    def remove(self, ref_id: str) -> bool:
        ref_id = str(ref_id)
        shard_id = self._placement.pop(ref_id, None)
        if shard_id is None:
            return False
        group = self._group_for_shard(shard_id)
        # tombstone first: whatever replays after a crash from here on
        # (re-hydration, replica warm-up, cache warming) sees the
        # delete — a replica that missed this mutation can never
        # resurrect the reference on any sibling
        self.tombstones.mark(ref_id, shard_id, group.epoch + 1)
        self._mutate_group(group, lambda node: node.remove(ref_id))
        self.epochs.record(shard_id, group.epoch)
        self.store.delete(f"feature:{ref_id}")
        self.store.hdel("placement", ref_id)
        if self._router is not None:
            self._router.remove(ref_id)
        return True

    def delete(self, ref_id: str) -> DeletionAck:
        """Online deletion; idempotent (deleting an unknown id still
        writes a tombstone so a racing re-hydration of a stale blob
        cannot resurrect it)."""
        ref_id = str(ref_id)
        with _TRACER.span("enroll", layer="cluster", ref=ref_id, op="delete") as span:
            owner = self._placement.get(ref_id)
            if owner is not None:
                deleted = self.remove(ref_id)
                epoch = self.epochs.get(owner)
            else:
                self.tombstones.mark(ref_id, "", 0)
                deleted = False
                epoch = 0
            self._enroll_ops.labels(op="delete").inc()
            if span is not None:
                span.set(node=owner or "", epoch=epoch, deleted=deleted)
        self.obs.advance_by(WEB_TIER_OVERHEAD_US)
        return DeletionAck(
            ref_id=ref_id, node_id=owner or "", epoch=epoch, deleted=deleted
        )

    def has(self, ref_id: str) -> bool:
        return str(ref_id) in self._placement

    def get_record_bytes(self, ref_id: str) -> bytes | None:
        return self.store.get(f"feature:{ref_id}")

    # ------------------------------------------------------------------
    # elasticity / failover
    # ------------------------------------------------------------------
    def _mint_node(self, device_spec: DeviceSpec | None = None) -> SearchNode:
        """Mint a fresh GPU container with the next id in the sequence.

        Ids are minted from a monotonically increasing sequence, never
        from the current node count: after ``remove_node`` the count
        shrinks, and reusing it would mint an id that already exists,
        corrupting placement.
        """
        node = SearchNode(
            f"gpu-{self._node_seq:02d}",
            self.engine_config,
            device_spec or self.nodes[0].engine.device.spec,
            self._node_config,
            health_policy=self._health_policy,
            breaker_policy=self._breaker_policy,
            obs=self.obs,
        )
        self._node_seq += 1
        if self.fault_injector is not None:
            node.fault_injector = self.fault_injector
        return node

    def add_node(self, device_spec: DeviceSpec | None = None) -> SearchNode:
        """Attach a fresh (empty) GPU container as a new shard."""
        node = self._mint_node(device_spec)
        node.epoch = self.epochs.get(node.node_id)
        self.nodes.append(node)
        self.groups[node.node_id] = ReplicaGroup(node.node_id, [node], self.obs)
        self.placement.add_node(node.node_id)
        self._stamp_start(node)
        self._scale_events.labels(action="add_shard").inc()
        return node

    def add_replica(self, shard_id: str) -> SearchNode:
        """Attach a fresh replica to an existing shard's group.

        The replica warms its hybrid cache from the KV store (the
        system of record; tombstoned references are skipped so a delete
        that raced the warm-up never resurrects), syncs its index epoch
        from the durable registry, and — when a time-series recorder is
        attached to :attr:`obs` — enters ``WARMING`` until its readiness gate at
        ``now + WARMUP_BASE_US + WARMUP_US_PER_REF * n_refs`` passes.
        It observes corpus mutations from the moment it is attached, so
        it is consistent the instant it starts serving.
        """
        group = self._group_for_shard(shard_id)
        node = self._mint_node()
        with _TRACER.span(
            "cluster.add_replica", layer="cluster", shard=shard_id,
        ) as span:
            keys = [
                f"feature:{ref}"
                for ref, owner in sorted(self._placement.items())
                if owner == group.shard_id
            ]
            loaded = node.hydrate_from_store(self.store, keys)
            node.epoch = max(self.epochs.get(group.shard_id), group.epoch)
            now = self.obs.now_us
            if now is not None:
                node.replica_state = ReplicaState.WARMING
                node.ready_at_us = (
                    now + WARMUP_BASE_US + WARMUP_US_PER_REF * node.n_references
                )
            self.nodes.append(node)
            group.attach(node)
            self._stamp_start(node)
            if span is not None:
                span.set(node=node.node_id, warmed=loaded)
        self._scale_events.labels(action="add_replica").inc()
        return node

    def remove_replica(self, shard_id: str, node_id: str | None = None) -> SearchNode:
        """Gracefully shrink a shard's group by one replica.

        The chosen replica (the newest attached, unless ``node_id``
        picks one) stops taking new reads immediately, keeps observing
        mutations while it finishes in-flight work, and is detached
        after ``DRAIN_GRACE_US`` of simulated time by
        :meth:`poll_lifecycle` (immediately when no recorder is
        attached).  The last replica of a shard cannot be removed this
        way — that is shard decommissioning (:meth:`remove_node`).
        """
        group = self._group_for_shard(shard_id)
        active = group.active()
        if len(active) <= 1:
            raise ClusterError(
                f"cannot remove the last replica of shard {shard_id!r}; "
                "use remove_node to decommission the shard"
            )
        node = group.get(node_id) if node_id is not None else active[-1]
        if node is None:
            raise ClusterError(f"shard {shard_id!r} has no replica {node_id!r}")
        if node.replica_state is ReplicaState.DRAINING:
            return node
        now = self.obs.now_us
        node.replica_state = ReplicaState.DRAINING
        node.draining_since_us = 0.0 if now is None else now
        self._scale_events.labels(action="remove_replica").inc()
        self.poll_lifecycle()
        return node

    def poll_lifecycle(self) -> list[str]:
        """Advance replica lifecycles on the simulated clock: promote
        warming replicas whose readiness gate passed, detach draining
        replicas whose grace elapsed.  Returns the detached node ids."""
        now = self.obs.now_us
        detached: list[str] = []
        for group in self.groups.values():
            group.promote_ready(now)
            for node in group.drained(now):
                if len(group.nodes) <= 1:
                    continue  # never drain away a shard's only replica
                self._detach_replica(group, node)
                detached.append(node.node_id)
        return detached

    def _detach_replica(self, group: ReplicaGroup, node: SearchNode) -> None:
        """Drop one replica from its group (siblings keep the shard, so
        nothing re-hydrates and no placement changes)."""
        group.detach(node.node_id)
        self.nodes.remove(node)
        self._retire_node(node)

    def remove_node(self, node_id: str) -> int:
        """Decommission a container.

        A container whose replica group has siblings is simply detached
        — the siblings keep serving the shard, nothing moves.  The last
        replica of a shard decommissions the whole shard: the KV store
        is the system of record (Sec. 8), so the departing shard's
        references are re-hydrated from their serialized records onto
        the surviving shards round-robin.  Returns the number of
        references reassigned.  Removing the last node raises.
        """
        victim = self._node_by_id(node_id)
        group = self._group_of_node(node_id)
        if group is not None and len(group.nodes) > 1:
            self._detach_replica(group, victim)
            self._scale_events.labels(action="remove_replica").inc()
            return 0
        if len(self.nodes) <= 1:
            raise ClusterError("cannot remove the last node")
        shard_id = victim.shard_id
        self.nodes.remove(victim)
        self.groups.pop(shard_id, None)
        self._retire_node(victim)
        self.placement.remove_node(shard_id)
        self._scale_events.labels(action="remove_shard").inc()
        orphaned = [ref for ref, owner in self._placement.items() if owner == shard_id]
        adopters: set[str] = set()
        for ref_id in orphaned:
            blob = self.store.get(f"feature:{ref_id}")
            if blob is None or self.tombstones.contains(ref_id):
                # record lost with the node — or deleted while the node
                # was dying (the tombstone outlives the blob, so a
                # stale blob can never resurrect a deleted reference):
                # drop the placement entry either way
                del self._placement[ref_id]
                self.store.hdel("placement", ref_id)
                if self._router is not None:
                    self._router.remove(ref_id)
                continue
            adopter = self._group_for_shard(self.placement.place(ref_id))
            record = deserialize_record(blob)
            self._mutate_group(adopter, lambda node: node.add_record(record))
            self._placement[ref_id] = adopter.shard_id
            self.store.hset("placement", ref_id, adopter.shard_id.encode())
            adopters.add(adopter.shard_id)
            if self._router is not None:
                self._router.reassign(ref_id, adopter.shard_id)
        # adopting shards advanced their epochs (re-hydration is a
        # mutation of their reference sets); the dead shard's mark is
        # retired with it
        for adopter_id in sorted(adopters):
            self.epochs.record(adopter_id, self._group_for_shard(adopter_id).epoch)
        self.epochs.forget(shard_id)
        return len(orphaned)

    # ------------------------------------------------------------------
    # two-tier retrieval: the coarse candidate-routing tier
    # ------------------------------------------------------------------
    def build_router(self) -> CandidateRouter:
        """(Re)build the coarse routing tier from the system of record.

        The router trains on the raw descriptor records persisted in
        the KV store (``feature:*``) — the same blobs failover
        re-hydrates from — pooled to one vector per reference, with
        shard ownership taken from the live placement map.  References
        whose blobs were lost with a dead node are unroutable and
        excluded (they are equally unsearchable by the exhaustive
        path).  Subsequent :meth:`add` / :meth:`remove` /
        :meth:`remove_node` calls keep the router's corpus in sync;
        the routing index itself rebuilds lazily on the next
        nomination after a mutation.
        """
        if self.router_policy is None:
            raise ClusterError("cluster has no router_policy configured")
        router = _make_router(self.router_policy, d=self.engine_config.d, obs=self.obs)
        for ref_id, node_id in self._placement.items():
            blob = self.store.get(f"feature:{ref_id}")
            if blob is None:
                continue
            record = deserialize_record(blob)
            matrix = record.matrix.astype(np.float32)
            if record.precision == "fp16" and record.scale != 1.0:
                matrix = matrix / np.float32(record.scale)
            router.add(ref_id, matrix, node_id)
        router.fit()
        self._router = router
        return router

    @property
    def router(self) -> CandidateRouter | None:
        """The active routing tier (``None`` until the first routed
        search builds it, or when no ``router_policy`` is set)."""
        return self._router

    def _route(
        self,
        queries: list[np.ndarray],
        nprobe: int | None,
        recall_target: float | None,
    ) -> RouteDecision | None:
        """First-tier nomination for one query group (the union of the
        members' nominations), or ``None`` when routing is disabled."""
        if self.router_policy is None:
            return None
        if self._router is None:
            self.build_router()
        return self._router.nominate_group(queries, nprobe, recall_target)

    def _partition_routed(
        self, populated: list[ReplicaGroup], route: RouteDecision | None
    ) -> tuple[list[ReplicaGroup], list[str], bool]:
        """Split the populated shard set by the route's nomination.

        Returns ``(nominated_groups, unrouted_shard_ids, routed)``;
        an exhaustive (or absent) route nominates everything.
        """
        if route is None or route.exhaustive:
            return populated, [], False
        shard_set = set(route.shard_ids)
        nominated = [g for g in populated if g.shard_id in shard_set]
        unrouted = [g.shard_id for g in populated if g.shard_id not in shard_set]
        if unrouted:
            self._unrouted_skips.inc(len(unrouted))
        return nominated, unrouted, True

    # ------------------------------------------------------------------
    # fault-tolerant scatter-gather
    # ------------------------------------------------------------------
    def _attempt_with_retry(
        self,
        node: SearchNode,
        queries: list[QueryMatrix],
        candidates: frozenset[str] | None,
    ) -> tuple[Sweep | None, float, int]:
        """Search one query slice on one node under the retry policy.

        Returns ``(sweep | None, node_time_us, retries)``: ``None``
        means the node gave no answer; ``node_time_us`` is the
        simulated time this node kept the gather waiting (failed
        attempts included).

        Every attempt outcome feeds the node's circuit breaker (when
        one is configured), and backoff waits are charged against the
        ambient request deadline so a retry storm cannot hide from the
        budget.
        """
        policy = self.retry_policy
        deadline = current_deadline()
        breaker = node.breaker
        spent_us = 0.0
        retries = 0

        def _wait(attempt: int) -> float:
            wait_us = policy.backoff_for(attempt)
            if deadline is not None:
                deadline.charge(wait_us)
            return wait_us

        for attempt in range(policy.max_attempts):
            dead = False
            try:
                sweep = node.search_many(queries, candidate_ids=candidates)
            except NodeDownError:
                dead = True  # a dead container fails fast; no point retrying it
            except TransientNodeError:
                pass
            else:
                elapsed_us = sweep.elapsed_us
                if not (policy.timeout_us and elapsed_us > policy.timeout_us):
                    if breaker is not None:
                        breaker.record_success()
                    return sweep, spent_us + elapsed_us, retries
                # the caller hangs up at the timeout; the node's work
                # past it is wasted, so only the budget is charged
                spent_us += policy.timeout_us
                node.health.record_failure()
                if deadline is not None:
                    # the engine charged its full sweep while running;
                    # refund the portion past the hang-up point
                    deadline.spent_us -= max(elapsed_us - policy.timeout_us, 0.0)
            if breaker is not None:
                breaker.record_failure()
            # DOWN: the failure streak just crossed the down threshold
            if (
                dead
                or node.health.state is NodeHealth.DOWN
                or attempt + 1 >= policy.max_attempts
            ):
                break
            spent_us += _wait(attempt)
            retries += 1
        return None, spent_us, retries

    def _gather(
        self,
        queries: list[np.ndarray],
        nprobe: int | None,
        recall_target: float | None,
        search_counter,
    ) -> Sweep:
        """The one scatter-gather: fan a query group out to the serving
        shards and gather the answers per query.

        The fan-out is *per group*, not per query: each shard answers
        the whole group through :meth:`ReplicaGroup.read` (one RPC and
        one fault/health gate per reader per group), and all queries
        share the group's completion time.  With a ``router_policy``
        the coarse routing tier first nominates candidate shards and
        per-shard candidate references — the *union* over the group's
        members (:meth:`RouteDecision.merge`); only nominated shards
        are fanned out to (the rest land in ``unrouted_shards`` —
        deliberate pruning, never ``partial``) and each restricts its
        exact sweep to the nominated reference batches.  A member the
        router could not route falls the whole group back to
        exhaustive.

        Shards whose readers are all down, erroring, timing out or
        breaker-open past the retry budget, and shards shed by an
        expired deadline, land in ``unsearched_shards``.  If fewer
        than ``min_shard_fraction`` of the nominated populated shards
        answered, :class:`DegradedClusterError` is raised instead.  With
        ``auto_failover``, nodes that went ``DOWN`` during the gather are
        failed over afterwards.  The answer is a fold over the shard
        sweeps (docs/architecture.md, "One answer shape").
        """
        n_queries = len(queries)
        # prepared here once, not once per shard; the router keeps the raw
        prepared = [
            QueryMatrix(self._prepared(self._kernel.query_matrix, q)) for q in queries
        ]
        slowest_us = 0.0
        retries = 0
        unsearched: list[str] = []
        route = self._route(queries, nprobe, recall_target)
        populated = [g for g in self.groups.values() if g.n_references > 0]
        nominated, unrouted, routed = self._partition_routed(populated, route)
        fanout = DeadlineFanOut(current_deadline())
        targets, deadline_skipped = nominated, []
        if fanout.expired_at_entry:
            # the budget was gone before the fan-out even started
            targets, deadline_skipped = [], [group.shard_id for group in nominated]
            self._deadline_skips.inc(len(deadline_skipped))
        answered: list[list[Answer]] = []  # per answering shard, one answer per query
        epochs: dict[str, int] = {}
        with compute_scope() as compute:  # shards charge in here; run() computes them all
            for group in targets:
                candidates = (
                    frozenset(route.per_shard.get(group.shard_id, ()))
                    if routed else None
                )

                def attempt(replica: SearchNode, indices):  # runs inside read() below
                    with fanout.branch():
                        return self._attempt_with_retry(
                            replica, [prepared[i] for i in indices], candidates
                        )

                answers, shard_us, shard_retries = group.read(
                    n_queries, attempt, self.obs.now_us
                )
                slowest_us = max(slowest_us, shard_us)
                retries += shard_retries
                if answers is None:
                    unsearched.append(group.shard_id)
                else:
                    answered.append(answers)
                    epochs[group.shard_id] = group.epoch
            compute.run()
        fanout.join()
        unsearched.extend(deadline_skipped)
        if self.auto_failover:
            self.repair()
        search_counter.inc()
        if retries:
            self._retries.inc(retries)
        if unsearched:
            self._unsearched.inc(len(unsearched))
            self._partials.inc()
        # the fold: each query's matches and counts summed over the shard sweeps that
        # answered it; R > 1 slices a deadline cut apart give a query its own header
        matches = [[m for shard in answered for m in shard[i].matches] for i in range(n_queries)]
        shares = [
            tuple(sum(getattr(shard[i].sweep, name) for shard in answered) for name in _COUNTS)
            for i in range(n_queries)
        ]
        if routed:
            for found in matches:
                hit = any(m.score > 0 for m in found)
                self._router_hits.labels(result="hit" if hit else "miss").inc()
        elapsed = slowest_us + WEB_TIER_OVERHEAD_US
        _TRACER.annotate(
            nodes=len(populated), retries=retries, unsearched=len(unsearched),
            unrouted=len(unrouted), sim_elapsed_us=elapsed,
        )
        searched = len(nominated) - len(unsearched)
        if nominated and searched / len(nominated) < self.min_shard_fraction:
            raise DegradedClusterError(searched, len(nominated), self.min_shard_fraction)
        # standalone searches drive the simulated telemetry clock
        # relatively (no-op under a serving loop's exclusive scope)
        self.obs.advance_by(elapsed)
        shared = dict(
            elapsed_us=elapsed, retries=retries, unsearched_shards=tuple(unsearched),
            unrouted_shards=tuple(unrouted), routed=routed, shard_epochs=tuple(epochs.items()),
            deadline_expired=bool(deadline_skipped) or any(
                answer.sweep.deadline_expired for shard in answered for answer in shard
            ),
        )
        headers = {share: Sweep(**shared, **dict(zip(_COUNTS, share))) for share in set(shares)}
        return Sweep(
            answers=tuple(Answer(m, headers[share]) for m, share in zip(matches, shares)),
            **shared, **dict(zip(_COUNTS, map(max, zip(*shares)))),
        )

    def search(
        self,
        query_descriptors: np.ndarray,
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> Answer:
        """Scatter one query to all serving shards, gather and rank: a
        query group of one (see :meth:`_gather` for routing, fault and
        deadline semantics).  ``nprobe`` / ``recall_target`` override
        the ``router_policy`` per request."""
        with _TRACER.span("cluster.search", layer="cluster"):
            group = [query_descriptors]  # of one
            return self._gather(group, nprobe, recall_target, self._search_single).answers[0]

    def search_group(
        self,
        query_descriptor_list: list[np.ndarray],
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> Sweep:
        """Fused query-group scatter-gather (Sec. 5.3 applied
        cluster-wide) — the serving tier's unit of work; one shared
        fan-out answers every query (see :meth:`_gather`)."""
        if not query_descriptor_list:
            return Sweep()
        with _TRACER.span(
            "cluster.search_group", layer="cluster",
            queries=len(query_descriptor_list),
        ):
            return self._gather(
                query_descriptor_list, nprobe, recall_target, self._search_group
            )

    # ------------------------------------------------------------------
    # health / failover
    # ------------------------------------------------------------------
    def heartbeats(self) -> list[dict]:
        """Poll every container's health-check endpoint."""
        return [node.heartbeat() for node in self.nodes]

    def health_report(self) -> dict:
        """Cluster-level health rollup for the ``GET /health`` route."""
        beats = self.heartbeats()
        states = [beat["state"] for beat in beats]
        if all(state == NodeHealth.DOWN.value for state in states):
            status = "down"
        elif all(state == NodeHealth.UP.value for state in states):
            status = "up"
        else:
            status = "degraded"
        return {
            "status": status,
            "nodes": beats,
            "references": self.n_references,
            "min_shard_fraction": self.min_shard_fraction,
            "shards": {
                shard_id: [n.node_id for n in group.nodes]
                for shard_id, group in self.groups.items()
            },
        }

    def repair(self) -> list[str]:
        """Fail over every ``DOWN`` node.

        A dead replica whose group has siblings is simply detached —
        the surviving replicas already hold the shard at the current
        epoch, so failover costs nothing and no search ever degrades.
        A shard's *last* replica is decommissioned through the
        :meth:`remove_node` machinery: its placement entries are
        re-hydrated from the KV store onto the survivors (references
        whose blobs were lost are dropped).  The last node is never
        removed — an all-down cluster has nowhere to fail over to.
        Returns the ids of the nodes failed over.  Draining replicas
        whose grace elapsed are detached on the way.
        """
        self.poll_lifecycle()
        repaired: list[str] = []
        for node in list(self.nodes):
            if node.health.state is not NodeHealth.DOWN:
                continue
            group = self._group_of_node(node.node_id)
            if group is not None and len(group.nodes) > 1:
                self._detach_replica(group, node)
                repaired.append(node.node_id)
                self._failovers.inc()
                continue
            if len(self.nodes) <= 1:
                break
            self.remove_node(node.node_id)
            repaired.append(node.node_id)
            self._failovers.inc()
        return repaired

    # ------------------------------------------------------------------
    @property
    def n_references(self) -> int:
        return len(self._placement)

    def capacity_images(self) -> int:
        """Cluster capacity (Sec. 8: 10.8 M at m=384 FP16, 14 nodes)."""
        return sum(node.capacity_images() for node in self.nodes)

    def stats(self) -> dict:
        """Operational rollup for ``GET /stats``.

        ``schema_version`` is bumped whenever the payload shape
        changes so dashboards can gate on it.  The counter blocks are
        :data:`_STATS_BLOCKS` read off this system's own registry
        (``obs.registry``): they aggregate over this cluster's engines,
        caches and nodes, and over nothing else in the process.
        """
        payload = {
            "schema_version": STATS_SCHEMA_VERSION,
            "nodes": [node.stats() for node in self.nodes],
            "references": self.n_references,
            "capacity_images": self.capacity_images(),
            "kv_keys": self.store.dbsize(),
        }
        for block, keys in _STATS_BLOCKS.items():
            payload[block] = {
                key: self.obs.registry.value(metric, **labels)
                for key, (metric, labels) in keys.items()
            }
        payload["routing"].update(
            enabled=self.router_policy is not None,
            kind=self.router_policy.kind if self.router_policy else None,
        )
        payload["cascade"]["enabled"] = any(
            node.engine.kernel.has_prefilter for node in self.nodes
        )
        payload["enrollment"].update(
            tombstones_live=len(self.tombstones),
            epochs=self.epochs.snapshot(),
        )
        payload["slo"] = self._slo_stats()
        payload["elastic"] = self._elastic_stats()
        return payload

    def elastic_report(self) -> dict:
        """Fleet elasticity rollup for the ``GET /elastic`` route: the
        stats v8 ``elastic`` block on its own, without the cost of the
        full :meth:`stats` payload."""
        return self._elastic_stats()

    def _elastic_stats(self) -> dict:
        """The schema-v8 ``"elastic"`` block: replica topology, replica
        lifecycle counts, fleet cost, and scaling-event counters.  The
        ``autoscaler`` side reports ``enabled: False`` until one is
        attached, so the key is always present and dashboards can gate
        on it."""
        states = [node.replica_state for node in self.nodes]
        block: dict = {
            "replication": {
                shard_id: len(group.nodes)
                for shard_id, group in self.groups.items()
            },
            "replicas_total": len(self.nodes),
            "shards_total": len(self.groups),
            "warming": sum(1 for s in states if s is ReplicaState.WARMING),
            "draining": sum(1 for s in states if s is ReplicaState.DRAINING),
            "node_seconds": self.node_seconds(),
            "scale_events": {
                action: self.obs.registry.value(
                    "repro_cluster_scale_events_total", action=action
                )
                for action in (
                    "add_shard", "remove_shard", "add_replica", "remove_replica"
                )
            },
            "replica_retries_total": self.obs.registry.value(
                "repro_cluster_replica_retries_total"
            ),
            "autoscaler": {"enabled": False},
        }
        if self.autoscaler is not None:
            block["autoscaler"] = {"enabled": True, **self.autoscaler.to_dict()}
        return block

    def _slo_stats(self) -> dict:
        """The schema-v7 ``"slo"`` block: state of the time-series
        recorder and SLO engine attached to :attr:`obs` (both optional —
        the block reports ``enabled: False`` sides when none is attached,
        so the key is always present and dashboards can gate on it)."""
        recorder = self.obs.recorder
        engine = self.obs.slo
        block: dict = {
            "recorder": {"enabled": False},
            "engine": {"enabled": False},
            "transitions": {},
        }
        if recorder is not None:
            block["recorder"] = {
                "enabled": True,
                "interval_us": recorder.interval_us,
                "retention": recorder.retention,
                "now_us": recorder.now_us,
                "n_samples": len(recorder),
            }
        if engine is not None:
            block["engine"] = {"enabled": True, **engine.to_dict()}
            block["transitions"] = {
                state: sum(
                    self.obs.registry.value(
                        "repro_slo_transitions_total",
                        policy=policy.name, to=state,
                    )
                    for policy in engine.policies
                )
                for state in ("ok", "warning", "critical")
            }
        return block
