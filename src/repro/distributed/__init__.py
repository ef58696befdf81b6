"""Distributed texture search substrate (Sec. 8, Fig. 6): protobuf-like
serialization, a Redis-like KV store, GPU container nodes, the sharded
scatter-gather cluster, the RESTful API layer, and the fault-tolerance
layer (health states, deterministic fault injection, retries and
partial-result degradation), plus circuit breakers and the online
enrollment layer (per-shard index epochs, tombstones,
read-your-writes acks), and the elastic tier (replica groups with
graceful warm-up/drain lifecycles and the SLO-driven autoscaler)."""

from .autoscaler import Autoscaler, AutoscalerPolicy, ScalingEvent
from .breaker import BreakerPolicy, BreakerState, CircuitBreaker
from .enrollment import DeletionAck, EnrollmentAck, EpochRegistry, TombstoneLog
from .cluster import (
    DistributedSearchSystem,
    RetryPolicy,
    WEB_TIER_OVERHEAD_US,
)
from .faults import FaultInjector, FaultSpec
from .health import HealthPolicy, HealthTracker, NodeHealth
from .kvstore import KVStore
from .loadbalancer import DispatchRecord, WebTier
from .node import NodeConfig, SearchNode
from .replica import ReplicaGroup, ReplicaState
from .rest import Request, Response, Router, build_api
from ..routing import RouterPolicy
from .sharding import RoundRobinPlacement
from .serialization import (
    FeatureRecord,
    decode_varint,
    deserialize_record,
    encode_varint,
    serialize_record,
)

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DeletionAck",
    "EnrollmentAck",
    "EpochRegistry",
    "TombstoneLog",
    "DispatchRecord",
    "FaultInjector",
    "FaultSpec",
    "HealthPolicy",
    "HealthTracker",
    "NodeHealth",
    "RetryPolicy",
    "RoundRobinPlacement",
    "RouterPolicy",
    "DistributedSearchSystem",
    "FeatureRecord",
    "KVStore",
    "WebTier",
    "NodeConfig",
    "ReplicaGroup",
    "ReplicaState",
    "Request",
    "Response",
    "Router",
    "ScalingEvent",
    "SearchNode",
    "WEB_TIER_OVERHEAD_US",
    "build_api",
    "decode_varint",
    "deserialize_record",
    "encode_varint",
    "serialize_record",
]
