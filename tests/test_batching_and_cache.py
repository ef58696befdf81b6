"""Batch builder, FIFO cache, hybrid cache and its capacity metric."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import CacheLocation, FifoCache, HybridFeatureCache
from repro.core import BatchBuilder, EngineConfig, ReferenceBatch
from repro.errors import CacheCapacityError, DeviceOutOfMemoryError
from repro.gpusim import GPUDevice, TESLA_P100


def small_device(mem_bytes=10**6, reserved=0):
    return GPUDevice(TESLA_P100.with_memory(mem_bytes), reserved_bytes=reserved)


def make_batch(batch_id, size, d=8, m=4):
    return ReferenceBatch(
        batch_id=batch_id,
        slots=np.arange(batch_id * size, (batch_id + 1) * size),
        tensor=np.zeros((size, d, m), np.float16),
    )


class TestBatchBuilder:
    def test_flush_on_full(self):
        builder = BatchBuilder(batch_size=2, d=4, m=3)
        assert builder.add(0, np.zeros((4, 3), np.float16)) is None
        batch = builder.add(1, np.zeros((4, 3), np.float16))
        assert batch is not None
        assert batch.slots.tolist() == [0, 1] and batch.slots.dtype == np.int64
        assert batch.size == 2
        assert builder.pending == 0

    def test_partial_flush(self):
        builder = BatchBuilder(batch_size=4, d=4, m=3)
        builder.add(0, np.zeros((4, 3), np.float16))
        batch = builder.flush()
        assert batch.size == 1
        assert builder.flush() is None

    def test_batch_ids_increment(self):
        builder = BatchBuilder(batch_size=1, d=2, m=2)
        b0 = builder.add(0, np.zeros((2, 2)))
        b1 = builder.add(1, np.zeros((2, 2)))
        assert (b0.batch_id, b1.batch_id) == (0, 1)

    def test_shape_enforced(self):
        builder = BatchBuilder(batch_size=2, d=4, m=3)
        with pytest.raises(ValueError, match="shape"):
            builder.add(0, np.zeros((4, 5)))

    def test_norms_required_when_configured(self):
        builder = BatchBuilder(batch_size=2, d=4, m=3, keep_norms=True)
        with pytest.raises(ValueError, match="norms"):
            builder.add(0, np.zeros((4, 3)))
        builder.add(0, np.zeros((4, 3)), norms=np.zeros(3))
        batch = builder.flush()
        assert batch.norms.shape == (1, 3)

    def test_batch_nbytes(self):
        batch = make_batch(0, 3, d=8, m=4)
        assert batch.nbytes == 3 * 8 * 4 * 2


class TestFifoCache:
    def test_fifo_eviction_order(self):
        cache = FifoCache(100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        evicted = cache.put("c", 3, 40)
        assert [k for k, _ in evicted] == ["a"]
        assert cache.keys() == ["b", "c"]

    def test_get_does_not_refresh(self):
        cache = FifoCache(100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        cache.get("a")  # FIFO: no recency effect
        evicted = cache.put("c", 3, 40)
        assert [k for k, _ in evicted] == ["a"]

    def test_oversized_entry(self):
        cache = FifoCache(10)
        with pytest.raises(CacheCapacityError):
            cache.put("a", 1, 11)

    def test_replace_existing_key(self):
        cache = FifoCache(100)
        cache.put("a", 1, 40)
        cache.put("a", 2, 60)
        assert cache.get("a") == 2
        assert cache.used_bytes == 60

    def test_pop(self):
        cache = FifoCache(100)
        cache.put("a", 1, 40)
        entry = cache.pop("a")
        assert entry.value == 1
        assert cache.used_bytes == 0

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_budget_invariant(self, ops):
        cache = FifoCache(60)
        for key, size in ops:
            cache.put(key, size, size)
            assert cache.used_bytes <= 60
            assert cache.used_bytes == sum(e.nbytes for _, e in cache.items())


class TestHybridCache:
    def test_gpu_first_then_demote(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=2 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        for i in range(3):
            cache.add(make_batch(i, 4))
        locations = [c.location for c in cache.batches()]
        assert locations == [CacheLocation.HOST, CacheLocation.GPU, CacheLocation.GPU]
        assert cache.gpu_batches == 2 and cache.host_batches == 1

    def test_device_memory_accounted(self):
        device = small_device(10**6)
        cache = HybridFeatureCache(device, gpu_budget_bytes=10**5, host_budget_bytes=10**6)
        cache.add(make_batch(0, 4))
        assert device.memory.used_bytes == make_batch(0, 4).nbytes
        # demotion frees the device allocation
        big = 10**5 // make_batch(0, 4).nbytes + 1
        for i in range(1, big + 1):
            cache.add(make_batch(i, 4))
        assert device.memory.used_bytes <= 10**5

    def test_total_exhaustion_raises(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=batch_bytes,
                                   host_budget_bytes=batch_bytes)
        cache.add(make_batch(0, 4))
        cache.add(make_batch(1, 4))
        with pytest.raises(CacheCapacityError):
            cache.add(make_batch(2, 4))

    def test_no_host_level_raises_on_overflow(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=batch_bytes, host_budget_bytes=0)
        cache.add(make_batch(0, 4))
        with pytest.raises(CacheCapacityError, match="no host cache"):
            cache.add(make_batch(1, 4))

    def test_capacity_images(self):
        device = small_device(10**6)
        cache = HybridFeatureCache(device, gpu_budget_bytes=1000, host_budget_bytes=4000)
        assert cache.capacity_images(100) == 50

    def test_fifo_order_preserved_across_levels(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=2 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        for i in range(5):
            cache.add(make_batch(i, 4))
        ids = [c.batch.batch_id for c in cache.batches()]
        assert ids == [0, 1, 2, 3, 4]

    def test_readd_does_not_duplicate_order(self):
        """Regression: re-adding a batch id must not make batches()
        yield it twice nor total_images double-count it."""
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=4 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        cache.add(make_batch(0, 4))
        cache.add(make_batch(1, 4))
        cache.add(make_batch(0, 4))  # update in place
        ids = [c.batch.batch_id for c in cache.batches()]
        assert ids == [1, 0]
        assert len(cache) == 2
        assert cache.total_images == 8
        # the replaced GPU copy's allocation was freed, not leaked
        assert device.memory.used_bytes == 2 * batch_bytes

    def test_readd_of_demoted_batch_supersedes_host_copy(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=2 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        for i in range(3):
            cache.add(make_batch(i, 4))
        assert cache.host_batches == 1  # batch 0 was demoted
        cache.add(make_batch(0, 4))     # re-add brings it back to GPU
        entries = {c.batch.batch_id: c.location for c in cache.batches()}
        assert entries[0] == CacheLocation.GPU
        # re-add evicted batch 1 from the GPU level; order refreshes to tail
        assert list(entries) == [1, 2, 0]
        assert sum(1 for c in cache.batches() if c.batch.batch_id == 0) == 1
        assert cache.total_images == sum(c.batch.size for c in cache.batches())

    def test_remove_gpu_batch_frees_device_allocation(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=4 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        cache.add(make_batch(0, 4))
        cache.add(make_batch(1, 4))
        assert cache.remove(0) is True
        assert [c.batch.batch_id for c in cache.batches()] == [1]
        assert len(cache) == 1
        assert cache.total_images == 4
        assert device.memory.used_bytes == batch_bytes
        # the freed slot is batch-granular: a new batch fits without
        # evicting the survivor
        cache.add(make_batch(2, 4))
        assert [c.batch.batch_id for c in cache.batches()] == [1, 2]

    def test_remove_host_batch(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=2 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        for i in range(3):
            cache.add(make_batch(i, 4))
        assert cache.host_batches == 1  # batch 0 was demoted
        assert cache.remove(0) is True
        assert cache.host_batches == 0
        assert [c.batch.batch_id for c in cache.batches()] == [1, 2]

    def test_remove_unknown_batch_is_noop(self):
        device = small_device(10**6)
        cache = HybridFeatureCache(device, gpu_budget_bytes=10**5,
                                   host_budget_bytes=10**5)
        cache.add(make_batch(0, 4))
        assert cache.remove(99) is False
        assert len(cache) == 1

    def test_remove_leaves_no_stale_order_entry(self):
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=4 * batch_bytes,
                                   host_budget_bytes=10 * batch_bytes)
        for i in range(3):
            cache.add(make_batch(i, 4))
        cache.remove(1)
        cache.add(make_batch(1, 4))  # re-add after remove: one entry, at tail
        ids = [c.batch.batch_id for c in cache.batches()]
        assert ids == [0, 2, 1]
        assert len(cache) == 3

    def test_exhaustion_purges_dropped_ids_from_order(self):
        """Regression: ids dropped when the host level overflows must
        leave the FIFO order too, not linger as stale skipped entries."""
        device = small_device(10**6)
        batch_bytes = make_batch(0, 4).nbytes
        cache = HybridFeatureCache(device, gpu_budget_bytes=batch_bytes,
                                   host_budget_bytes=batch_bytes)
        cache.add(make_batch(0, 4))
        cache.add(make_batch(1, 4))
        with pytest.raises(CacheCapacityError):
            cache.add(make_batch(2, 4))
        surviving = [c.batch.batch_id for c in cache.batches()]
        assert len(surviving) == len(cache)
        assert surviving == sorted(set(surviving))
        assert cache.total_images == 4 * len(cache)


#: one cache step: add a batch (id, images), remove an id, take device
#: memory from outside the cache (bytes), or give all of that back
CACHE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 7), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("squeeze"), st.integers(1, 4)),
        st.tuples(st.just("release")),
    ),
    max_size=60,
)


@given(gpu=st.integers(1, 6), host=st.integers(0, 8), steps=CACHE_STEPS)
@example(gpu=1, host=1, steps=[("add", 0, 1), ("add", 1, 1), ("add", 0, 2)])
@settings(max_examples=200, deadline=None)
def test_batches_keep_the_order_a_fifo_order_list_kept(gpu, host, steps):
    """The cache's global order is its host level's then its GPU level's.
    The model is the order list the cache once kept beside the levels: an
    add over the GPU budget is refused before it supersedes anything, any
    other add drops an earlier copy and appends the id once the GPU level
    took it, a remove drops it, and after an overflow every id no level
    holds is pruned.  Batches are 64 B an image; the device holds the GPU budget
    plus 4 images, so a squeeze makes the cache demote before it allocates."""
    image = make_batch(0, 1).nbytes
    device = small_device(gpu * image + 4 * image)
    cache = HybridFeatureCache(device, gpu_budget_bytes=gpu * image, host_budget_bytes=host * image)
    order: list[int] = []
    squeezed = []
    for step in steps:
        if step[0] == "add" and step[2] > gpu:  # refused: the order stays as it was
            with pytest.raises(CacheCapacityError):
                cache.add(make_batch(step[1], step[2]))
        elif step[0] == "add":
            _, batch_id, size = step
            order = [b for b in order if b != batch_id]
            overflowed = False
            try:
                cache.add(make_batch(batch_id, size))
            except CacheCapacityError:
                overflowed = True
            except DeviceOutOfMemoryError:
                pass  # the GPU level emptied into the host and still did not fit
            if batch_id in cache._gpu:
                order.append(batch_id)
            if overflowed:
                order = [b for b in order if b in cache._gpu or b in cache._host]
        elif step[0] == "remove":
            order = [b for b in order if b != step[1]]
            cache.remove(step[1])
        elif step[0] == "squeeze" and device.memory.fits(step[1] * image):
            squeezed.append(device.alloc(step[1] * image, "squeeze"))
        elif step[0] == "release":
            for allocation in squeezed:
                device.free(allocation)
            squeezed = []
        held = set(cache._gpu.keys()) | set(cache._host.keys())
        ids = [cached.batch.batch_id for cached in cache.batches()]
        assert ids == [b for b in order if b in held]
        assert len(ids) == len(cache) == len(held)


class TestCapacityPlanner:
    """The paper's capacity metric, as the hybrid cache counts it."""

    def test_paper_gpu_only_capacity(self):
        """Sec. 6: 16 GB / 187.5 KB ~= 85,000 images at m=768 FP16."""
        per_image = EngineConfig(m=768).feature_matrix_bytes()
        assert per_image == 196608
        assert 85_000 <= HybridFeatureCache(GPUDevice(TESLA_P100)).capacity_images(per_image) <= 88_000

    def test_sec8_per_container(self):
        """Sec. 8: 12 GB GPU + 64 GB host = 76 GB -> ~780k at m=384."""
        per_image = EngineConfig(m=384).feature_matrix_bytes()
        cache = HybridFeatureCache(GPUDevice(TESLA_P100, reserved_bytes=4 * 1024**3),
                                   host_budget_bytes=64 * 10**9)
        assert per_image == 98304
        assert 770_000 <= cache.capacity_images(per_image) <= 790_000
        # 14 containers land within 10% of the paper's 10.8M
        assert abs(cache.capacity_images(per_image) * 14 - 10_800_000) / 10_800_000 < 0.10

    def test_norms_included_for_algorithm1(self):
        with_n = EngineConfig(backend="algorithm1", precision="fp32").feature_matrix_bytes()
        without = EngineConfig(backend="opencv", precision="fp32").feature_matrix_bytes()
        assert with_n - without == 768 * 4

    def test_validation(self):
        cache = HybridFeatureCache(small_device())
        with pytest.raises(ValueError):
            cache.capacity_images(0)
        with pytest.raises(ValueError):
            HybridFeatureCache(small_device(), host_budget_bytes=-1)

    @pytest.mark.parametrize("gpu,host,per", [(10, 10, 4), (250, 350, 100), (0, 9, 3)])
    def test_no_image_straddles_the_two_levels(self, gpu, host, per):
        """Each level holds whole images: 10 + 10 bytes at 4 a piece is
        2 + 2 images, not the 5 that the summed budgets would fit."""
        cache = HybridFeatureCache(small_device(), gpu_budget_bytes=gpu, host_budget_bytes=host)
        assert cache.capacity_images(per) == gpu // per + host // per
