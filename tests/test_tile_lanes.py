"""Host tile lanes: the tiles of one ``_knn_columns`` call — each within the
byte budget and at most ``ceil(images / lanes)`` images (``_tile_starts``) —
run on ``min(usable CPUs, tiles)`` lanes, and nothing may depend on how many.

The lane count is the process's CPU count; tests set it by patching
``algorithm2._usable_cpus``, so the one-, two- and three-lane paths run on
any box.  Lane 1 is the serial loop, so it is the oracle.
"""

from __future__ import annotations

import copy
import os
import signal
import threading
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig, TextureSearchEngine, knn_algorithm2_multiquery
from repro.core import algorithm2 as algorithm2_module
from repro.distributed import DistributedSearchSystem
from repro.errors import HalfPrecisionOverflowError
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy, planned_tiles, tile_sizes

M, N, BATCH, D = 24, 16, 4, 128
LANES = (1, 2, 3)


def lanes(count: int):
    return mock.patch.object(algorithm2_module, "_usable_cpus", lambda: count)


def tile_budget(images_per_tile: int, n_queries: int):
    return mock.patch.object(
        algorithm2_module, "_PRODUCT_TILE_BYTES", images_per_tile * M * n_queries * N * 4
    )


# -- the kernel: bit-equal at any lane count -------------------------------


def operands(sizes, n_queries, precision, seed):
    rng = np.random.default_rng(seed)
    scale = 0.25 if precision == "fp16" else 1.0
    dtype = np.float16 if precision == "fp16" else np.float32
    unit = lambda a: (a / np.linalg.norm(a, axis=1, keepdims=True) * scale).astype(dtype)
    stack = [unit(rng.random((size, D, M), dtype=np.float32)) for size in sizes]
    queries = unit(rng.random((n_queries, D, N), dtype=np.float32))
    return stack, queries, scale


@st.composite
def stacks(draw):
    return dict(
        sizes=draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)),
        n_queries=draw(st.integers(1, 8)),
        precision=draw(st.sampled_from(["fp16", "fp32"])),
        indices=draw(st.booleans()),
        k=draw(st.sampled_from([2, 3])),
        images_per_tile=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_every_lane_count_computes_the_same_bits(case):
    stack, queries, scale = operands(case["sizes"], case["n_queries"], case["precision"], case["seed"])
    seen = []
    for count in LANES:
        with lanes(count), tile_budget(case["images_per_tile"], case["n_queries"]):
            result = knn_algorithm2_multiquery(
                None, stack, queries, scale=scale, k=case["k"], precision=case["precision"],
                indices=case["indices"])
        seen.append((result.distances.tobytes(),
                     None if result.indices is None else result.indices.tobytes()))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def config(precision: str = "fp16") -> EngineConfig:
    return EngineConfig(m=M, n=N, batch_size=BATCH, min_matches=2, scale_factor=0.25,
                        precision=precision)


def build(cfg, seals) -> TextureSearchEngine:
    """An engine whose cache went through ``seals`` (that many references
    added, then a flush, per entry): ragged members, so tiles cross them."""
    engine = TextureSearchEngine(cfg, device=GPUDevice(TESLA_P100.with_memory(10**8)))
    image = 0
    for count in seals:
        for _ in range(count):
            engine.add_reference(f"ref{image}", make_descriptors(M, seed=900 + image))
            image += 1
        engine.flush()
    return engine


def query_for(image: int, seed: int) -> np.ndarray:
    return noisy_copy(make_descriptors(M, seed=900 + image)[:, :N], 6.0, seed=seed)


def observed(engine, group) -> tuple:
    """Everything a search leaves behind, bits included."""
    matches = [[(m.reference_id, m.good_matches) for m in result.matches] for result in group.answers]
    shared = [(r.elapsed_us, r.images_searched, r.partial, r.images_skipped, r.images_pruned)
              for r in group.answers]
    return (matches, shared, copy.deepcopy(engine.stats), engine.device.elapsed_us(),
            [(r.name, r.total_us, r.calls) for r in engine.device.profiler.records()])


@settings(max_examples=40, deadline=None)
@given(
    seals=st.lists(st.integers(1, BATCH + 2), min_size=1, max_size=6),
    group=st.integers(1, 8),
    precision=st.sampled_from(["fp16", "fp32"]),
    images_per_tile=st.integers(1, 3),
)
def test_engine_searches_are_equal_object_for_object(seals, group, precision, images_per_tile):
    queries = [query_for((5 * q) % sum(seals), seed=q) for q in range(group)]
    seen = []
    for count in LANES:
        engine = build(config(precision), seals)
        with lanes(count), tile_budget(images_per_tile, group):
            seen.append(observed(engine, engine.search_group(queries)))
    assert seen[1] == seen[0] and seen[2] == seen[0]


# -- the overflow: the parent's exception, every lane joined ---------------


class Running:
    """Wraps ``batched_hgemm``: counts calls in flight, and slows the pool's
    lanes so a lane left running when the call returns would be seen."""

    def __init__(self):
        self.real, self.active, self.lock = algorithm2_module.batched_hgemm, 0, threading.Lock()

    def __call__(self, *args, **kwargs):
        with self.lock:
            self.active += 1
        try:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.005)
            return self.real(*args, **kwargs)
        finally:
            with self.lock:
                self.active -= 1


@pytest.mark.parametrize("indices", [True, False], ids=["indexed", "winners-only"])
def test_an_overflow_in_a_late_tile_is_the_parents_exception_at_every_lane_count(indices):
    stack, queries, scale = operands([3, 4, 3], 2, "fp16", seed=4)
    stack[-1][-1] = np.float16(60000.0)  # the last image of the last tile: ~1.5e5 > 65504
    errors = []
    for count in LANES:
        running = Running()
        with lanes(count), tile_budget(2, 2), \
                mock.patch.object(algorithm2_module, "batched_hgemm", running), \
                pytest.raises(HalfPrecisionOverflowError) as raised:
            knn_algorithm2_multiquery(None, stack, queries, scale=scale, indices=indices)
        assert running.active == 0  # every lane joined before the error surfaced
        errors.append((raised.value.scale, raised.value.max_value, str(raised.value)))
    assert errors[0][1] > 65504
    assert errors[1] == errors[0] and errors[2] == errors[0]


# -- callers, the pool, fork -----------------------------------------------


def test_four_caller_threads_searching_one_cluster_get_the_serial_answers():
    system = DistributedSearchSystem(2, config())
    for image in range(14):
        system.add(f"ref{image}", make_descriptors(M, seed=900 + image))
    system.poll_lifecycle()
    queries = [query_for(image, seed=image) for image in range(0, 14, 2)]
    answer = lambda query: [(m.reference_id, m.good_matches) for m in system.search(query).matches]
    with tile_budget(1, 1):
        with lanes(1):
            serial = [answer(query) for query in queries]
        seen, failures = {}, []

        def caller(which: int) -> None:
            try:
                seen[which] = [answer(query) for query in queries[which:] + queries[:which]]
            except BaseException as exc:  # surfaced below, not lost in the thread
                failures.append(exc)

        with lanes(2):
            callers = [threading.Thread(target=caller, args=(which,)) for which in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
    assert not failures and not any(thread.is_alive() for thread in callers)
    for which in range(4):
        assert seen[which] == serial[which:] + serial[:which]
    assert any(len(matches) > 0 for matches in serial)


def test_a_one_tile_call_submits_nothing_to_the_pool():
    """A call is one tile only when it has one image or one lane, and then
    its caller computes it alone; five images at three lanes, well inside
    the budget, are three tiles on three lanes."""
    stack, queries, scale = operands([3, 2], 2, "fp16", seed=5)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-tile call reached for the pool")

    with mock.patch.object(algorithm2_module._LANES, "submit", no_pool):
        with lanes(1):
            one_lane = knn_algorithm2_multiquery(None, stack, queries, scale=scale)
        with lanes(3):
            one_image = knn_algorithm2_multiquery(None, [stack[1][:1]], queries, scale=scale)
    real_submit, submitted = algorithm2_module._LANES.submit, []
    with lanes(3), mock.patch.object(algorithm2_module._LANES, "submit",
                                     lambda fn: (submitted.append(fn), real_submit(fn))[1]):
        three_lanes = knn_algorithm2_multiquery(None, stack, queries, scale=scale)
    with lanes(1), tile_budget(1, 2):
        tiled = knn_algorithm2_multiquery(None, stack, queries, scale=scale)
    assert len(submitted) == 2
    assert one_lane.distances.tobytes() == tiled.distances.tobytes() == three_lanes.distances.tobytes()
    assert one_image.distances.tobytes() == one_lane.distances[3:4].tobytes()


# -- the plan: every lane gets a tile, one lane gets the budget's ----------


@settings(max_examples=300, deadline=None)
@given(images=st.integers(1, 300), image_bytes=st.integers(1, 1 << 22),
       lanes_=st.integers(1, 4), budget=st.integers(1, 1 << 24))
def test_the_plan_covers_every_image_once_within_both_caps(images, image_bytes, lanes_, budget):
    with mock.patch.object(algorithm2_module, "_PRODUCT_TILE_BYTES", budget):
        starts = algorithm2_module._tile_starts(images, image_bytes, lanes_)
    sizes = tile_sizes(starts, images)
    assert list(starts) == [sum(sizes[:i]) for i in range(len(sizes))]  # in order, no gap
    assert sum(sizes) == images and min(sizes) >= 1  # no overlap, nothing left out
    assert all(size == 1 or size * image_bytes <= budget for size in sizes)
    assert max(sizes) <= -(-images // lanes_)
    if lanes_ > 1 and images > 1:
        assert len(sizes) > 1  # a call the budget fits in one tile still runs on two lanes
    if lanes_ == 1:  # the budget alone
        assert list(starts) == list(range(0, images, max(1, budget // image_bytes)))


def test_one_lane_makes_the_parents_tiles_and_any_lane_count_the_plans():
    """``taskset -c 0`` (one usable CPU) is the parent's tiling, call for
    call; patched or real, the lane count a call reads is the plan's."""
    stack, queries, scale = operands([3, 4, 3], 2, "fp16", seed=8)
    image, made, real_gemm = M * 2 * N * 4, [], algorithm2_module.batched_hgemm

    def tiles_made() -> list[int]:
        made.clear()
        knn_algorithm2_multiquery(None, stack, queries, scale=scale)
        return list(made)

    with mock.patch.object(algorithm2_module, "batched_hgemm",
                           lambda *args, **kw: (made.append(len(args[1])), real_gemm(*args, **kw))[1]):
        for images_per_tile in (None, 1, 3, 4):
            with lanes(1), (tile_budget(images_per_tile, 2) if images_per_tile else nullcontext()):
                parent_tile = algorithm2_module._PRODUCT_TILE_BYTES // image  # the budget alone
                assert tiles_made() == tile_sizes(range(0, 10, parent_tile), 10)  # in order
        assert sorted(tiles_made()) == sorted(planned_tiles(10, image))  # this process's CPUs
        if algorithm2_module._usable_cpus() == 1:
            assert made == [10]


def test_a_rest_fanout_request_is_bit_equal_at_every_lane_count():
    """Fourteen shards of six images at the service scale m=96, n=128: four
    21-image tiles under the 1 MiB budget at any lane count, most of them
    across shards — and the same distances, indices, clock and profiler at
    one, two and three lanes."""
    m, n = 96, 128
    rng = np.random.default_rng(26)
    unit = lambda a: (a / np.linalg.norm(a, axis=1, keepdims=True) * 0.25).astype(np.float16)
    stack = [unit(rng.random((6, D, m), dtype=np.float32)) for _ in range(14)]
    query = unit(rng.random((1, D, n), dtype=np.float32))
    seen = {}
    for count in LANES:
        with lanes(count):
            assert planned_tiles(84, m * n * 4) == [21] * 4
            for indices in (True, False):
                device = GPUDevice(TESLA_P100)
                result = knn_algorithm2_multiquery(device, stack, query, scale=0.25, indices=indices)
                seen.setdefault(indices, []).append((
                    result.distances.tobytes(),
                    None if result.indices is None else result.indices.tobytes(),
                    device.elapsed_us(),
                    [(r.name, r.total_us, r.calls) for r in device.profiler.records()],
                ))
    for runs in seen.values():
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_lane_that_starts_late_leaves_its_tiles_to_the_others():
    """Lanes claim tiles as they go, so a lane whose CPU is taken holds no
    fixed share of the call: here the pool's lane starts only once the
    caller has computed every tile, and finds none left."""
    stack, queries, scale = operands([3, 4, 3], 2, "fp16", seed=7)  # five two-image tiles
    real_gemm, real_submit = algorithm2_module.batched_hgemm, algorithm2_module._LANES.submit
    by_caller, caller_done = [], threading.Event()

    def gemm(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            by_caller.append(len(args[1]))
            if sum(by_caller) == 10:
                caller_done.set()
        return real_gemm(*args, **kwargs)

    def late(fn, *args):
        def start_late():
            caller_done.wait(timeout=5)
            return fn(*args)
        return real_submit(start_late)

    with lanes(2), tile_budget(2, 2), mock.patch.object(algorithm2_module, "batched_hgemm", gemm), \
            mock.patch.object(algorithm2_module._LANES, "submit", late):
        claimed = knn_algorithm2_multiquery(None, stack, queries, scale=scale)
    with lanes(1), tile_budget(2, 2):
        serial = knn_algorithm2_multiquery(None, stack, queries, scale=scale)
    assert by_caller == [2, 2, 2, 2, 2]
    assert claimed.distances.tobytes() == serial.distances.tobytes()
    assert claimed.indices.tobytes() == serial.indices.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_multi_lane_calls_of_its_own():
    """The child inherits the pool's bookkeeping but not its threads: without
    the at-fork reset its next multi-lane call waits forever."""
    stack, queries, scale = operands([3, 4, 3], 2, "fp16", seed=6)
    compute = lambda: knn_algorithm2_multiquery(None, stack, queries, scale=scale).distances
    with lanes(2), tile_budget(2, 2):
        expected = compute()  # the pool now exists, with a live thread
        pid = os.fork()
        if pid == 0:  # the child: never returns into the test runner
            code = 1
            try:
                signal.alarm(10)
                code = 0 if compute().tobytes() == expected.tobytes() else 2
            finally:
                os._exit(code)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the child's multi-lane call hung")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
