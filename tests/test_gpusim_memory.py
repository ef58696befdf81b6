"""Memory pool accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceOutOfMemoryError
from repro.gpusim import MemoryPool


class TestMemoryPool:
    def test_alloc_free_roundtrip(self):
        pool = MemoryPool(1000, "test")
        a = pool.alloc(400, "a")
        assert pool.used_bytes == 400
        assert pool.free_bytes == 600
        pool.free(a)
        assert pool.used_bytes == 0

    def test_oom(self):
        pool = MemoryPool(1000)
        pool.alloc(900)
        with pytest.raises(DeviceOutOfMemoryError) as err:
            pool.alloc(200)
        assert err.value.requested == 200
        assert err.value.free == 100

    def test_reserved_carveout(self):
        pool = MemoryPool(1000, reserved_bytes=300)
        assert pool.usable_bytes == 700
        with pytest.raises(DeviceOutOfMemoryError):
            pool.alloc(701)
        pool.alloc(700)

    def test_reserved_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool(100, reserved_bytes=200)

    def test_double_free(self):
        pool = MemoryPool(100)
        a = pool.alloc(10)
        pool.free(a)
        with pytest.raises(KeyError):
            pool.free(a)

    def test_cross_pool_free_rejected(self):
        p1 = MemoryPool(100, "p1")
        p2 = MemoryPool(100, "p2")
        a = p1.alloc(10)
        with pytest.raises(ValueError, match="belongs to pool"):
            p2.free(a)

    def test_peak_tracking(self):
        pool = MemoryPool(1000)
        a = pool.alloc(600)
        pool.free(a)
        pool.alloc(100)
        assert pool.peak_bytes == 600

    def test_fits(self):
        pool = MemoryPool(100)
        assert pool.fits(100)
        pool.alloc(60)
        assert not pool.fits(41)
        assert pool.fits(40)

    def test_negative_alloc_rejected(self):
        pool = MemoryPool(100)
        with pytest.raises(ValueError):
            pool.alloc(-1)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    def test_accounting_invariant(self, sizes):
        """used == sum(live) and never exceeds capacity."""
        pool = MemoryPool(500)
        live = []
        for size in sizes:
            try:
                live.append(pool.alloc(size))
            except DeviceOutOfMemoryError:
                if live:
                    pool.free(live.pop(0))
            assert pool.used_bytes == sum(a.nbytes for a in live)
            assert 0 <= pool.used_bytes <= pool.usable_bytes
