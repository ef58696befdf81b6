"""Deterministic fault injection for the distributed tier (chaos testing).

The paper's headline number comes from a 14-container scatter-gather
system; at that scale node failure is routine, so the fault-tolerance
machinery needs a way to *cause* failures on demand.  A
:class:`FaultInjector` wraps :class:`~repro.distributed.node.SearchNode`
operations and KV-store reads with four fault kinds:

* **node crash** — the container dies; every later operation raises
  :class:`~repro.errors.NodeDownError` until it is revived (or failed
  over and decommissioned);
* **transient error** — one request fails retryably
  (:class:`~repro.errors.TransientNodeError`);
* **slow node** — the operation succeeds but its simulated latency is
  multiplied (feeds the cluster's per-attempt timeout);
* **KV blob loss** — a ``feature:*`` record reads back as missing, so
  failover must degrade by dropping the reference.

Determinism: every draw is a :func:`hashlib.blake2b` digest of
``(seed, node_id, per-node op counter, fault kind)`` — no global RNG,
no ordering sensitivity.  Re-running an identical workload with an
identically-seeded injector produces byte-identical fault sequences,
which is what lets the chaos suite assert "run twice, same outcome".
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass

from ..errors import NodeDownError, TransientNodeError

__all__ = ["FaultSpec", "FaultInjector"]


@dataclass(frozen=True)
class FaultSpec:
    """Per-operation fault probabilities (all default to "no faults")."""

    crash_rate: float = 0.0
    transient_rate: float = 0.0
    slow_rate: float = 0.0
    slow_multiplier: float = 8.0
    blob_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "transient_rate", "slow_rate", "blob_loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.slow_multiplier < 1.0:
            raise ValueError("slow_multiplier must be >= 1")


def _draw(seed: int, *parts: object) -> float:
    """A reproducible uniform draw in [0, 1) keyed on ``parts``."""
    token = ":".join(str(p) for p in (seed, *parts)).encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultInjector:
    """Seedable chaos monkey for :class:`SearchNode` + KV operations.

    Attach with :meth:`install` (or pass ``fault_injector=`` to
    :class:`~repro.distributed.cluster.DistributedSearchSystem`); nodes
    then consult :meth:`on_node_op` on every search, and the KV store
    consults :meth:`on_kv_get` on every read.
    """

    def __init__(self, spec: FaultSpec | None = None, seed: int = 0) -> None:
        self.spec = spec or FaultSpec()
        self.seed = int(seed)
        self._op_counts: dict[str, int] = defaultdict(int)
        self._crashed: set[str] = set()
        self._crash_at: dict[str, int] = {}
        self._lost_keys: set[str] = set()
        #: observability counters for the chaos suite / benchmark.
        self.injected = {"crash": 0, "transient": 0, "slow": 0, "blob_loss": 0}

    # ------------------------------------------------------------------
    # explicit, scripted faults (fully deterministic scenarios)
    # ------------------------------------------------------------------
    def crash(self, *node_ids: str) -> None:
        """Kill containers now; they stay dead until :meth:`revive`."""
        for node_id in node_ids:
            self._crashed.add(str(node_id))

    def crash_after(self, node_id: str, n_ops: int) -> None:
        """Schedule a crash on the ``n_ops``-th subsequent operation."""
        if n_ops < 1:
            raise ValueError("n_ops must be >= 1")
        self._crash_at[str(node_id)] = self._op_counts[str(node_id)] + int(n_ops)

    def revive(self, *node_ids: str) -> None:
        for node_id in node_ids:
            self._crashed.discard(str(node_id))
            self._crash_at.pop(str(node_id), None)

    def lose_blob(self, *keys: str) -> None:
        """Mark KV keys as lost (reads return "missing")."""
        self._lost_keys.update(str(k) for k in keys)

    def is_crashed(self, node_id: str) -> bool:
        return str(node_id) in self._crashed

    # ------------------------------------------------------------------
    # hooks consulted by the wrapped components
    # ------------------------------------------------------------------
    def on_node_op(self, node_id: str) -> float:
        """Gate one node operation.

        Returns the latency multiplier to apply (1.0 = full speed).
        Raises :class:`NodeDownError` for crashed nodes and
        :class:`TransientNodeError` for injected retryable failures.
        """
        node_id = str(node_id)
        self._op_counts[node_id] += 1
        count = self._op_counts[node_id]
        if node_id in self._crash_at and count >= self._crash_at[node_id]:
            self._crashed.add(node_id)
            del self._crash_at[node_id]
        if node_id in self._crashed:
            self.injected["crash"] += 1
            raise NodeDownError(node_id, "injected crash")
        spec = self.spec
        if spec.crash_rate and _draw(self.seed, node_id, count, "crash") < spec.crash_rate:
            self._crashed.add(node_id)
            self.injected["crash"] += 1
            raise NodeDownError(node_id, "injected crash")
        if spec.transient_rate and _draw(self.seed, node_id, count, "transient") < spec.transient_rate:
            self.injected["transient"] += 1
            raise TransientNodeError(node_id, "injected transient fault")
        if spec.slow_rate and _draw(self.seed, node_id, count, "slow") < spec.slow_rate:
            self.injected["slow"] += 1
            return float(spec.slow_multiplier)
        return 1.0

    def on_kv_get(self, key: str) -> bool:
        """True if the blob under ``key`` should read back as lost."""
        key = str(key)
        if key in self._lost_keys:
            self.injected["blob_loss"] += 1
            return True
        if self.spec.blob_loss_rate and _draw(self.seed, "kv", key, "loss") < self.spec.blob_loss_rate:
            # loss is permanent: a lost blob never reappears on re-read
            self._lost_keys.add(key)
            self.injected["blob_loss"] += 1
            return True
        return False

    # ------------------------------------------------------------------
    def install(self, system) -> None:
        """Wire this injector into a cluster: every node (current and
        future) and the KV store's ``feature:*`` reads."""
        system.fault_injector = self
        for node in system.nodes:
            node.fault_injector = self
        system.store.set_read_fault(
            lambda key: key.startswith("feature:") and self.on_kv_get(key)
        )
