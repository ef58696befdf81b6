"""Hybrid GPU + host memory cache (Sec. 6, Fig. 5).

Reference feature batches enqueue into GPU memory first; once the GPU
budget is full, the *oldest* batch is swapped out to the (much larger)
host level, still FIFO.  A batch reaches the host only as the GPU
level's oldest, so the two levels' FIFO orders, host first, are the
cache's one global order.  Swap granularity is a whole batch when
batching is enabled — exactly the paper's design.  Searching iterates
every batch; host-resident batches must be streamed over PCIe, which is
what the sweep's multi-stream rule then overlaps with compute.

The GPU level holds real :class:`~repro.gpusim.memory.MemoryPool`
allocations so capacity interacts correctly with the engine's other
buffers; the host level is budget-accounted only (host allocations are
plain NumPy arrays we already hold).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from ..core.batching import ReferenceBatch
from ..errors import CacheCapacityError
from ..gpusim.engine_model import GPUDevice
from ..gpusim.memory import Allocation
from ..obs import Observability
from .fifo import FifoCache

__all__ = ["CacheLocation", "HybridFeatureCache", "CachedBatch"]

class CacheLocation(Enum):
    GPU = "gpu"
    HOST = "host"


@dataclass
class CachedBatch:
    """A reference batch plus where it currently lives."""

    batch: ReferenceBatch
    location: CacheLocation
    gpu_allocation: Allocation | None = None


class HybridFeatureCache:
    """Two-level FIFO cache for reference feature batches.

    Parameters
    ----------
    device:
        The GPU whose memory pool backs the first level.
    gpu_budget_bytes:
        Bytes of device memory the cache may use (the engine reserves
        the rest for intermediates).  ``None`` uses everything currently
        free on the device.
    host_budget_bytes:
        Host (pinned) memory budget — 64 GB per container in Sec. 8.
    pinned:
        Whether host memory is pinned (affects PCIe speed, Table 5).
    obs:
        The owning engine's telemetry handle (a private one if omitted).
    """

    def __init__(
        self,
        device: GPUDevice,
        gpu_budget_bytes: int | None = None,
        host_budget_bytes: int = 0,
        pinned: bool = True,
        obs: Observability | None = None,
    ) -> None:
        registry = (obs or Observability()).registry
        self._adds = registry.counter(
            "repro_cache_adds_total",
            "Reference batches enqueued into the hybrid cache",
        )
        self._demotions = registry.counter(
            "repro_cache_demotions_total",
            "GPU-resident batches swapped out to the host level",
        )
        self._evictions = registry.counter(
            "repro_cache_evictions_total",
            "Batches dropped past the host level (combined capacity exhausted)",
        )
        self._removals = registry.counter(
            "repro_cache_removals_total",
            "Batches explicitly removed from the hybrid cache (enrollment deletes)",
        )
        self.device = device
        if gpu_budget_bytes is None:
            gpu_budget_bytes = device.memory.free_bytes
        if gpu_budget_bytes < 0 or host_budget_bytes < 0:
            raise ValueError("budgets must be non-negative")
        self.gpu_budget_bytes = int(gpu_budget_bytes)
        self.host_budget_bytes = int(host_budget_bytes)
        self.pinned = bool(pinned)
        self._gpu: FifoCache[int, CachedBatch] = FifoCache(self.gpu_budget_bytes, "gpu-cache")
        self._host: FifoCache[int, CachedBatch] = FifoCache(self.host_budget_bytes, "host-cache")

    # ------------------------------------------------------------------
    def add(self, batch: ReferenceBatch) -> None:
        """Enqueue a new batch (GPU first, demoting the oldest on overflow).

        Raises :class:`CacheCapacityError` when the *combined* cache is
        full — the paper's capacity metric is exactly the point at which
        this starts happening.
        """
        nbytes = batch.nbytes
        if nbytes > self.gpu_budget_bytes:
            raise CacheCapacityError(
                f"batch of {nbytes} B exceeds the GPU cache budget "
                f"{self.gpu_budget_bytes} B"
            )
        # Re-adding an id supersedes the cached copy wherever it lives —
        # otherwise batches() would yield it twice (and total_images
        # double-count) and a replaced GPU copy would leak its device
        # allocation.
        if batch.batch_id in self._gpu:
            old = self._gpu.pop(batch.batch_id).value
            if old.gpu_allocation is not None:
                self.device.free(old.gpu_allocation)
        elif batch.batch_id in self._host:
            self._host.pop(batch.batch_id)
        cached = CachedBatch(batch=batch, location=CacheLocation.GPU)
        cached.gpu_allocation = self._alloc_gpu(nbytes, f"batch{batch.batch_id}")
        evicted = self._gpu.put(batch.batch_id, cached, nbytes)
        self._adds.inc()
        for _key, entry in evicted:
            self._demote(entry.value)

    def _alloc_gpu(self, nbytes: int, label: str) -> Allocation:
        # Free device memory can be below our budget if other engine
        # buffers grew; evict eagerly until the allocation fits.
        while not self.device.memory.fits(nbytes) and len(self._gpu):
            oldest = self._gpu.keys()[0]
            self._demote(self._gpu.pop(oldest).value)
        return self.device.alloc(nbytes, label)

    def _demote(self, cached: CachedBatch) -> None:
        """Swap a GPU-resident batch out to the host level."""
        if cached.gpu_allocation is not None:
            self.device.free(cached.gpu_allocation)
            cached.gpu_allocation = None
        cached.location = CacheLocation.HOST
        if self.host_budget_bytes <= 0:
            self._evictions.inc()
            raise CacheCapacityError(
                "GPU cache full and no host cache configured "
                f"(batch {cached.batch.batch_id} has nowhere to go)"
            )
        self._demotions.inc()
        evicted = self._host.put(cached.batch.batch_id, cached, cached.batch.nbytes)
        if evicted:
            self._evictions.inc(len(evicted))
            dropped = ", ".join(str(k) for k, _ in evicted)
            raise CacheCapacityError(
                f"hybrid cache exhausted: host level evicted batch(es) {dropped}"
            )

    def remove(self, batch_id: int) -> bool:
        """Drop a batch from whichever level holds it, releasing its
        capacity (device allocation freed, budgets credited).  Returns
        whether the batch was cached.

        This is the delete path of online enrollment: when every slot
        of a sealed batch is tombstoned the engine purges the whole
        batch, which keeps swap accounting batch-granular — capacity is
        only ever released in whole-batch units, never per-slot.
        """
        removed = False
        if batch_id in self._gpu:
            old = self._gpu.pop(batch_id).value
            if old.gpu_allocation is not None:
                self.device.free(old.gpu_allocation)
                old.gpu_allocation = None
            removed = True
        elif batch_id in self._host:
            self._host.pop(batch_id)
            removed = True
        if removed:
            self._removals.inc()
        return removed

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[CachedBatch]:
        """All cached batches in global FIFO order: the host level's,
        then the GPU level's.

        Iterates a snapshot of the order taken at call time, so a sweep
        already in flight keeps a consistent view of the corpus even if
        enrollments land (or deletes purge batches) between batches —
        the sweep covers the corpus as of sweep start.
        """
        for batch_id in self._host.keys() + self._gpu.keys():
            if batch_id in self._gpu:
                yield self._gpu.get(batch_id)
            elif batch_id in self._host:
                yield self._host.get(batch_id)

    def __len__(self) -> int:
        return len(self._gpu) + len(self._host)

    @property
    def gpu_batches(self) -> int:
        return len(self._gpu)

    @property
    def host_batches(self) -> int:
        return len(self._host)

    @property
    def total_images(self) -> int:
        return sum(c.batch.size for c in self.batches())

    @property
    def used_bytes(self) -> tuple[int, int]:
        """(gpu_bytes, host_bytes) currently used."""
        return self._gpu.used_bytes, self._host.used_bytes

    def capacity_images(self, bytes_per_image: int) -> int:
        """How many images the two levels could hold (the paper's "capacity"
        metric).  Each level is counted in whole images: no image straddles
        the GPU and the host."""
        if bytes_per_image <= 0:
            raise ValueError("bytes_per_image must be positive")
        gpu, host = self.gpu_budget_bytes, self.host_budget_bytes
        return gpu // bytes_per_image + host // bytes_per_image
