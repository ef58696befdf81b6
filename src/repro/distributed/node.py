"""One GPU container of the distributed system (Fig. 6).

A node owns one simulated GPU card, one search engine with a hybrid
cache (Sec. 8: 4 GB of the 16 GB card reserved for intermediates, the
remaining 12 GB + 64 GB host memory caching reference matrices = 76 GB
per container), and hydrates itself from the shared KV store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.config import EngineConfig
from ..core.engine import TextureSearchEngine
from ..core.kernels import QueryMatrix, ReferenceMatrix
from ..core.results import Answer, Sweep
from ..errors import NodeDownError, TransientNodeError
from ..gpusim.device import DeviceSpec, TESLA_P100
from ..gpusim.engine_model import GPUDevice
from ..obs import Observability, default_tracer
from .breaker import BreakerPolicy, CircuitBreaker
from .health import HealthPolicy, HealthTracker, NodeHealth
from .kvstore import KVStore
from .replica import ReplicaState
from .serialization import FeatureRecord, deserialize_record

__all__ = ["NodeConfig", "SearchNode"]

_TRACER = default_tracer()

GIB = 1024**3


@dataclass(frozen=True)
class NodeConfig:
    """Per-container resources (Sec. 8 defaults)."""

    engine_reserved_bytes: int = 4 * GIB
    host_cache_bytes: int = 64 * 10**9
    pinned: bool = True


class SearchNode:
    """A GPU container: engine + cache + KV hydration."""

    def __init__(
        self,
        node_id: str,
        engine_config: EngineConfig | None = None,
        device_spec: DeviceSpec = TESLA_P100,
        node_config: NodeConfig | None = None,
        health_policy: HealthPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.node_id = str(node_id)
        self.node_config = node_config or NodeConfig()
        device = GPUDevice(device_spec, reserved_bytes=self.node_config.engine_reserved_bytes)
        #: the engine meters into the cluster's handle (a private one
        #: for a node built on its own)
        self.engine = TextureSearchEngine(
            config=engine_config,
            device=device,
            host_cache_bytes=self.node_config.host_cache_bytes,
            pinned=self.node_config.pinned,
            obs=obs,
        )
        self.health = HealthTracker(health_policy)
        #: per-node circuit breaker (opt-in: ``None`` keeps the
        #: pre-breaker behaviour of attempting every serving node).
        self.breaker = (
            CircuitBreaker(breaker_policy, self.engine.obs)
            if breaker_policy is not None else None
        )
        #: optional :class:`~repro.distributed.faults.FaultInjector`
        #: consulted on every search-path operation.
        self.fault_injector = None
        #: monotonic index epoch of this shard's reference set; every
        #: corpus mutation (enroll/update/delete) advances it.  The
        #: cluster seeds it from the durable
        #: :class:`~repro.distributed.enrollment.EpochRegistry` so a
        #: replacement node continues the sequence instead of
        #: restarting from zero.
        self.epoch = 0
        #: logical shard this container replicates; until a
        #: :class:`~repro.distributed.replica.ReplicaGroup` adopts the
        #: node it is its own (single-replica) shard.
        self.shard_id = self.node_id
        #: replica lifecycle (see :mod:`repro.distributed.replica`); a
        #: standalone node serves immediately, exactly the pre-replica
        #: behaviour.
        self.replica_state = ReplicaState.SERVING
        #: simulated instant this replica's cache warm-up completes
        #: (readiness gate for WARMING replicas).
        self.ready_at_us = 0.0
        #: simulated instant draining began (DRAINING replicas detach
        #: after the grace period).
        self.draining_since_us = 0.0

    # ------------------------------------------------------------------
    # fault gating
    # ------------------------------------------------------------------
    def _gate(self) -> float:
        """Admission check for one search-path operation.

        Returns the injected latency multiplier; records the health
        transition for injected crashes/transients before re-raising.
        """
        if self.health.state is NodeHealth.DOWN:
            raise NodeDownError(self.node_id)
        if self.fault_injector is None:
            return 1.0
        try:
            return self.fault_injector.on_node_op(self.node_id)
        except NodeDownError:
            self.health.record_crash()
            raise
        except TransientNodeError:
            self.health.record_failure()
            raise

    # ------------------------------------------------------------------
    def add(self, ref_id: str, descriptors: np.ndarray | ReferenceMatrix) -> None:
        self.engine.add_reference(ref_id, descriptors)
        self.epoch += 1

    def enroll(self, ref_id: str, descriptors: np.ndarray) -> int:
        """Online enrollment: add (or update) one reference while the
        node may be serving searches; returns the shard's new index
        epoch.  Goes through the fault gate — a crashed node cannot
        ack an enrollment."""
        self._gate()
        self.add(ref_id, descriptors)
        return self.epoch

    def add_record(self, record: FeatureRecord) -> None:
        """Enrol a deserialized KV record.

        Records store raw (pre-RootSIFT, FP32-domain) descriptors so a
        node can re-quantise to its own engine configuration; FP16
        records are dequantised first.
        """
        matrix = record.matrix.astype(np.float32)
        if record.precision == "fp16" and record.scale != 1.0:
            matrix = matrix / np.float32(record.scale)
        self.add(record.ref_id, matrix)

    def remove(self, ref_id: str) -> bool:
        removed = self.engine.remove_reference(ref_id)
        if removed:
            self.epoch += 1
        return removed

    def has(self, ref_id: str) -> bool:
        return self.engine.has_reference(ref_id)

    def search(
        self,
        query_descriptors: np.ndarray | QueryMatrix,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> Answer:
        """One shard's sweep for one query: a group of one."""
        return self.search_many([query_descriptors], candidate_ids=candidate_ids).answers[0]

    def search_many(
        self,
        query_descriptor_list: list[np.ndarray | QueryMatrix],
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> Sweep:
        """One shard's sweep for a query group — the node's read entry:
        one RPC, one fault/health gate and one engine sweep per group.
        Members are raw descriptors or the cluster's prepared matrices.
        ``candidate_ids`` restricts the sweep to a routing tier's
        nominees (see :meth:`TextureSearchEngine.search_group`)."""
        with _TRACER.span(
            "node.search_group", layer="node",
            node=self.node_id, queries=len(query_descriptor_list),
        ) as span:
            multiplier = self._gate()
            sweep = self.engine.search_group(query_descriptor_list, candidate_ids=candidate_ids)
            if multiplier != 1.0:  # an injected slow node: the same answers, later
                header = replace(sweep, answers=(), elapsed_us=sweep.elapsed_us * multiplier)
                sweep = header.carrying(answer.matches for answer in sweep.answers)
            self.health.record_success()
            if span is not None:
                span.set(sim_elapsed_us=sweep.elapsed_us)
        return sweep

    def heartbeat(self) -> dict:
        """Cheap liveness probe: health state + shard occupancy.

        Unlike a search it never raises — a crashed container's
        heartbeat *reports* ``down`` (the monitor's view) rather than
        erroring.  Explicitly-crashed injected faults are discovered
        here, so health checks can detect death without live traffic.
        """
        if (
            self.fault_injector is not None
            and self.fault_injector.is_crashed(self.node_id)
            and self.health.state is not NodeHealth.DOWN
        ):
            self.health.record_crash()
        self.health.heartbeats += 1
        beat = {
            "node_id": self.node_id,
            "shard_id": self.shard_id,
            "replica_state": self.replica_state.value,
            "references": self.n_references,
            "epoch": self.epoch,
            **self.health.snapshot(),
        }
        if self.breaker is not None:
            beat["breaker"] = self.breaker.state.value
        return beat

    def hydrate_from_store(self, store: KVStore, keys: list[str]) -> int:
        """Load serialized feature records from the KV store.

        Tombstoned references (``tombstone:<ref_id>`` keys in the same
        store) are skipped: a delete that raced this node's hydration
        must never resurrect through an older feature blob.
        """
        from .enrollment import TOMBSTONE_PREFIX

        loaded = 0
        for key in keys:
            blob = store.get(key)
            if blob is None:
                continue
            record = deserialize_record(blob)
            if store.exists(f"{TOMBSTONE_PREFIX}{record.ref_id}"):
                continue
            self.add_record(record)
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    def snapshot_to_store(self, store: KVStore, prefix: str | None = None) -> int:
        """Persist this node's *prepared* cache state to the KV store.

        Unlike the raw-descriptor records under ``feature:*``, snapshot
        records hold the engine-precision matrices, so a restart can
        skip all preprocessing (:meth:`restore_from_store`).
        """
        from .serialization import serialize_record

        prefix = prefix if prefix is not None else f"snapshot:{self.node_id}:"
        records = self.engine.export_records()
        for record in records:
            store.set(f"{prefix}{record.ref_id}", serialize_record(record))
        return len(records)

    def restore_from_store(self, store: KVStore, prefix: str | None = None) -> int:
        """Warm-restart: re-enrol a :meth:`snapshot_to_store` snapshot.

        References deleted *after* the snapshot was taken (tombstones
        in the same store) stay deleted — the snapshot replays to the
        latest epoch's view, not the snapshot's.
        """
        from .enrollment import TOMBSTONE_PREFIX

        prefix = prefix if prefix is not None else f"snapshot:{self.node_id}:"
        records = []
        for key in store.keys(f"{prefix}*"):
            blob = store.get(key)
            if blob is not None:
                record = deserialize_record(blob)
                if store.exists(f"{TOMBSTONE_PREFIX}{record.ref_id}"):
                    continue
                records.append(record)
        return self.engine.import_records(records)

    # ------------------------------------------------------------------
    @property
    def n_references(self) -> int:
        return self.engine.n_references

    def capacity_images(self) -> int:
        return self.engine.capacity_images()

    def stats(self) -> dict:
        gpu_used, host_used = self.engine.cache.used_bytes
        return {
            "node_id": self.node_id,
            "shard_id": self.shard_id,
            "replica_state": self.replica_state.value,
            "device": self.engine.device.spec.name,
            "backend": self.engine.backend,
            "health": self.health.state.value,
            "breaker": self.breaker.state.value if self.breaker else "disabled",
            "references": self.n_references,
            "epoch": self.epoch,
            "capacity_images": self.capacity_images(),
            "gpu_cache_bytes": gpu_used,
            "host_cache_bytes": host_used,
            "searches": self.engine.stats.searches,
            "mean_images_per_s": self.engine.stats.mean_throughput_images_per_s,
            "cascade_prefilter": self.engine.kernel.has_prefilter,
            **self.engine.fragmentation(),
        }
