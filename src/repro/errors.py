"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DeviceError(ReproError):
    """Base class for simulated-GPU errors."""


class DeviceOutOfMemoryError(DeviceError):
    """Raised when a device allocation exceeds the remaining capacity.

    Mirrors ``cudaErrorMemoryAllocation``: the allocation that triggered the
    failure is reported together with the pool state so capacity-planning
    bugs are diagnosable.
    """

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = int(requested)
        self.free = int(free)
        self.total = int(total)
        super().__init__(
            f"device out of memory: requested {requested} B, "
            f"free {free} B of {total} B"
        )


class HalfPrecisionOverflowError(ReproError):
    """Raised when an FP16 conversion would overflow ``float16`` range.

    The paper (Table 2) marks scale factors ``1`` and ``2^-1`` as
    "overflow"; this exception is how the library surfaces that condition.
    """

    def __init__(self, scale: float, max_value: float) -> None:
        self.scale = float(scale)
        self.max_value = float(max_value)
        super().__init__(
            f"FP16 overflow with scale factor {scale!r}: "
            f"largest intermediate magnitude {max_value:.6g} exceeds "
            f"float16 max (65504)"
        )


class CacheError(ReproError):
    """Base class for hybrid-cache errors."""


class CacheCapacityError(CacheError):
    """Raised when an entry cannot fit even after evicting everything."""


class SerializationError(ReproError):
    """Raised when the wire format cannot decode a message."""


class ClusterError(ReproError):
    """Raised for distributed-system failures (missing shard, bad node)."""


class NodeError(ClusterError):
    """Base class for per-container failures; carries the node id."""

    def __init__(self, node_id: str, message: str) -> None:
        self.node_id = str(node_id)
        super().__init__(message)


class NodeDownError(NodeError):
    """The container is crashed/unreachable; the operation cannot succeed
    by retrying against the same node."""

    def __init__(self, node_id: str, reason: str = "node is down") -> None:
        super().__init__(node_id, f"node {node_id!r}: {reason}")


class TransientNodeError(NodeError):
    """A retryable per-request failure (dropped RPC, OOM blip, flaky
    link).  The node itself may still be healthy."""

    def __init__(self, node_id: str, reason: str = "transient failure") -> None:
        super().__init__(node_id, f"node {node_id!r}: {reason}")


class DegradedClusterError(ClusterError):
    """Too many shards were unsearchable to honour ``min_shard_fraction``."""

    def __init__(self, searched: int, total: int, min_fraction: float) -> None:
        self.searched = int(searched)
        self.total = int(total)
        self.min_fraction = float(min_fraction)
        super().__init__(
            f"only {searched}/{total} shards searchable, below the "
            f"min_shard_fraction={min_fraction} floor"
        )


class InvalidDescriptorsError(ClusterError, ValueError):
    """Descriptors the configured backend cannot prepare (wrong shape, a
    negative entry under RootSIFT, FP16 overflow at the configured
    scale).  The cluster raises it before anything is routed, written or
    fanned out, so the request has had no effect."""


class RestError(ReproError):
    """Raised by the REST layer; carries an HTTP-like status code."""

    def __init__(self, status: int, message: str) -> None:
        self.status = int(status)
        super().__init__(message)


class ServingError(ReproError):
    """Base class for serving-tier (admission/batching) failures."""


class ExecutorContractError(ServingError):
    """A :class:`~repro.serving.executors.GroupExecutor` broke its
    contract: the payload list must have exactly one entry per query in
    the group it was handed."""

    def __init__(self, expected: int, got: int, executor: str = "") -> None:
        self.expected = int(expected)
        self.got = int(got)
        self.executor = str(executor)
        who = f"executor {self.executor!r}" if self.executor else "executor"
        super().__init__(
            f"{who} returned {got} payloads for a group of {expected}"
        )
