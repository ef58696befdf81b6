"""Device and pinned-host memory accounting.

The simulator does not fake pointers — NumPy arrays hold the actual data
everywhere — but *capacity* is a first-class quantity in the paper
(its "capacity" metric is literally how many reference feature matrices
fit), so allocations are tracked against the device/host budgets and
over-subscription raises :class:`~repro.errors.DeviceOutOfMemoryError`.

The pool is a simple bump-count accountant (no fragmentation model):
the workloads in the paper allocate uniform, batch-granular blocks, for
which fragmentation is not a first-order effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceOutOfMemoryError

__all__ = ["MemoryPool", "Allocation"]


@dataclass(frozen=True)
class Allocation:
    """A live allocation handle returned by :meth:`MemoryPool.alloc`."""

    pool_name: str
    nbytes: int
    label: str
    serial: int


class MemoryPool:
    """Tracks allocations against a fixed byte budget.

    Parameters
    ----------
    capacity_bytes:
        Total budget (e.g. 16 GiB for a P100, or the 64 GB host cache
        budget of Sec. 8).
    name:
        Used in error messages and allocation handles.
    reserved_bytes:
        Carved out up-front and never allocatable — Sec. 8 reserves 4 GB
        of each 16 GB GPU for the search engine's intermediate data.
    """

    def __init__(self, capacity_bytes: int, name: str = "device", reserved_bytes: int = 0) -> None:
        if capacity_bytes < 0 or reserved_bytes < 0:
            raise ValueError("capacities must be non-negative")
        if reserved_bytes > capacity_bytes:
            raise ValueError("reserved exceeds capacity")
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.reserved_bytes = int(reserved_bytes)
        self._used = 0
        self._serial = 0
        self._live: dict[int, Allocation] = {}
        self.peak_bytes = 0

    @property
    def usable_bytes(self) -> int:
        return self.capacity_bytes - self.reserved_bytes

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.usable_bytes - self._used

    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Reserve ``nbytes``; raises :class:`DeviceOutOfMemoryError` if full."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(nbytes, self.free_bytes, self.usable_bytes)
        self._serial += 1
        handle = Allocation(self.name, nbytes, label, self._serial)
        self._live[self._serial] = handle
        self._used += nbytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        return handle

    def free(self, allocation: Allocation) -> None:
        """Release an allocation. Double-free raises ``KeyError``."""
        if allocation.pool_name != self.name:
            raise ValueError(
                f"allocation belongs to pool {allocation.pool_name!r}, not {self.name!r}"
            )
        del self._live[allocation.serial]
        self._used -= allocation.nbytes

    def fits(self, nbytes: int) -> bool:
        return int(nbytes) <= self.free_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryPool({self.name!r}, used={self._used}/{self.usable_bytes} B, "
            f"live={len(self._live)})"
        )
