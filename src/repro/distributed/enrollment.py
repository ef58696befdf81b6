"""Online enrollment: the epoched-corpus mutation path.

The paper's system serves a fixed, pre-loaded reference corpus; this
module makes the corpus *live*.  Every mutation of a shard's reference
set — enroll, update, delete — advances that shard's monotonic **index
epoch**.  Epochs are the contract the rest of the system builds on:

* the cluster's :class:`EpochRegistry` persists each shard's latest
  epoch in the KV store (hash ``"epoch"``), so a restarted or failed-
  over node knows how far the corpus had advanced;
* deletions write a **tombstone** (:class:`TombstoneLog`, KV keys
  ``tombstone:<ref_id>``) that outlives the feature blob, so KV
  re-hydration after a crash can never resurrect a deleted reference;
* search results carry a ``corpus_epoch`` map (shard -> epoch observed
  while gathering), giving the enrolling client read-your-writes: a
  search issued after an :class:`EnrollmentAck` observes an epoch at
  least as new as the ack's on every healthy shard.

Acks are deliberately small value objects — the web tier serialises
them straight into REST responses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kvstore import KVStore

__all__ = [
    "DeletionAck",
    "EnrollmentAck",
    "EpochRegistry",
    "TombstoneLog",
]

#: KV key prefix guarding deleted references against resurrection.
TOMBSTONE_PREFIX = "tombstone:"
#: KV hash holding each shard's latest recorded epoch.
EPOCH_HASH_KEY = "epoch"


@dataclass(frozen=True)
class EnrollmentAck:
    """Receipt for one enroll/update.

    ``epoch`` is the shard's index epoch *after* the mutation; a
    search issued with this ack in hand that reports
    ``corpus_epoch[node_id] >= epoch`` observed the enrollment.
    ``updated`` distinguishes re-enrolling an existing id (update)
    from a first enrollment.
    """

    ref_id: str
    node_id: str
    epoch: int
    updated: bool = False


@dataclass(frozen=True)
class DeletionAck:
    """Receipt for one delete; ``deleted`` is False when the id was
    not enrolled (the tombstone is still written — deletes are
    idempotent and must survive racing re-hydration)."""

    ref_id: str
    node_id: str
    epoch: int
    deleted: bool = True


class EpochRegistry:
    """Durable per-shard epoch high-water marks.

    Backed by one KV hash so the registry survives anything the KV
    store survives.  ``record`` max-merges: replaying an old ack can
    never move a shard's epoch backwards.
    """

    def __init__(self, store: KVStore) -> None:
        self._store = store

    def get(self, node_id: str) -> int:
        raw = self._store.hget(EPOCH_HASH_KEY, str(node_id))
        return int(raw) if raw is not None else 0

    def record(self, node_id: str, epoch: int) -> int:
        """Advance (never regress) a shard's recorded epoch; returns
        the recorded high-water mark."""
        node_id = str(node_id)
        merged = max(int(epoch), self.get(node_id))
        self._store.hset(EPOCH_HASH_KEY, node_id, str(merged).encode())
        return merged

    def forget(self, node_id: str) -> None:
        """Drop a decommissioned shard's mark (its references were
        re-homed; their epochs now live with the new owners)."""
        node_id = str(node_id)
        self._store.hdel(EPOCH_HASH_KEY, node_id)

    def snapshot(self) -> dict[str, int]:
        return {
            node: int(raw)
            for node, raw in sorted(self._store.hgetall(EPOCH_HASH_KEY).items())
        }


class TombstoneLog:
    """Deletion markers that outlive the deleted blob.

    A tombstone is written *before* the feature blob is deleted, so
    every replayer (failover re-hydration, warm restore, cache
    warming) sees it no matter when it crashed.  Re-enrolling the same
    id clears the tombstone — the new blob is a different logical
    record.  Marking and clearing touch one key: no mutation scans the
    store.
    """

    def __init__(self, store: KVStore) -> None:
        self._store = store

    def _key(self, ref_id: str) -> str:
        return f"{TOMBSTONE_PREFIX}{ref_id}"

    def mark(self, ref_id: str, node_id: str, epoch: int) -> None:
        self._store.set(self._key(ref_id), f"{node_id}:{int(epoch)}".encode())

    def clear(self, ref_id: str) -> bool:
        return self._store.delete(self._key(ref_id)) > 0

    def contains(self, ref_id: str) -> bool:
        return self._store.exists(self._key(ref_id))

    def get(self, ref_id: str) -> tuple[str, int] | None:
        """``(node_id, epoch)`` of the deletion, or ``None``."""
        raw = self._store.get(self._key(ref_id))
        if raw is None:
            return None
        node_id, _, epoch = raw.decode().rpartition(":")
        return node_id, int(epoch)

    def ref_ids(self) -> list[str]:
        start = len(TOMBSTONE_PREFIX)
        return [key[start:] for key in self._store.keys(f"{TOMBSTONE_PREFIX}*")]

    def __len__(self) -> int:
        return len(self._store.keys(f"{TOMBSTONE_PREFIX}*"))
