"""Dynamic batching serving layer: admission policy, event loop,
determinism, fused-vs-serial throughput, and the REST batch route."""

import dataclasses
import json

import numpy as np
import pytest

from tests.conftest import make_descriptors, noisy_copy, slot_matches
from repro.core import EngineConfig, TextureSearchEngine
from repro.errors import ExecutorContractError
from repro.gpusim import GPUDevice, TESLA_P100
from repro.routing import RouterPolicy
from repro.distributed import (
    DistributedSearchSystem,
    FaultInjector,
    Request,
    WebTier,
    build_api,
)
from repro.serving import (
    BatchPolicy,
    ClusterGroupExecutor,
    DynamicBatcher,
    FusedEngineExecutor,
    SerialEngineExecutor,
    ServingRequest,
    WebTierBatchExecutor,
    build_trace,
    burst_arrivals,
    percentile,
    poisson_arrivals,
    simulate_serving,
)

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def build_engine(n_refs=8, seed=0):
    engine = TextureSearchEngine(CFG)
    descs = [make_descriptors(CFG.n, seed=seed + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        engine.add_reference(f"r{i}", desc)
    return engine, descs


def build_cluster(n_nodes=3, n_refs=6, injector=None, config=CFG, **kwargs):
    system = DistributedSearchSystem(n_nodes, config, fault_injector=injector, **kwargs)
    descs = [make_descriptors(CFG.n, seed=10 + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        system.add(f"r{i}", desc)
    return system, descs


class StubExecutor:
    """Deterministic stand-in: 100us per query in the group, payloads
    echo the query objects."""

    def __init__(self, us_per_query=100.0):
        self.us_per_query = us_per_query
        self.groups = []

    def execute(self, queries):
        self.groups.append(list(queries))
        return list(queries), self.us_per_query * len(queries)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_us=-1.0)

    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch == 8
        assert policy.max_wait_us == 0.0


class TestDynamicBatcher:
    def test_size_trigger(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_us=1e9))
        batcher.enqueue(ServingRequest(0, 0.0, "a"))
        assert batcher.trigger(0.0) is None
        batcher.enqueue(ServingRequest(1, 5.0, "b"))
        assert batcher.trigger(5.0) == "size"
        assert [r.query for r in batcher.take()] == ["a", "b"]
        assert len(batcher) == 0

    def test_timeout_trigger(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=100.0))
        batcher.enqueue(ServingRequest(0, 50.0, "a"))
        assert batcher.deadline_us() == 150.0
        assert batcher.trigger(149.0) is None
        assert batcher.trigger(150.0) == "timeout"

    def test_take_caps_at_max_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=3))
        for i in range(5):
            batcher.enqueue(ServingRequest(i, 0.0, i))
        assert [r.request_id for r in batcher.take()] == [0, 1, 2]
        assert len(batcher) == 2

    def test_empty_queue_never_triggers(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=1, max_wait_us=0.0))
        assert batcher.trigger(1e9) is None
        assert batcher.deadline_us() is None

    def test_trigger_exactly_at_deadline(self):
        # the boundary is inclusive: now == oldest arrival + max_wait_us
        # fires, one tick earlier does not
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=250.0))
        batcher.enqueue(ServingRequest(0, 100.0, "a"))
        deadline = batcher.deadline_us()
        assert deadline == 350.0
        assert batcher.trigger(deadline - 1e-9) is None
        assert batcher.trigger(deadline) == "timeout"

    def test_simultaneous_size_and_timeout_prefers_size(self):
        # queue is full *and* the oldest request's wait has elapsed at
        # the same instant: the size trigger wins the tie
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_us=100.0))
        batcher.enqueue(ServingRequest(0, 0.0, "a"))
        batcher.enqueue(ServingRequest(1, 100.0, "b"))
        assert batcher.trigger(100.0) == "size"

class TestEventLoop:
    def test_size_bound_groups(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0, 0.0], list("abcd"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=2, max_wait_us=1e6))
        assert [g.size for g in report.groups] == [2, 2]
        assert all(g.trigger == "size" for g in report.groups)
        # second group waits for the first to release the device
        assert report.groups[1].launched_us == report.groups[0].completed_us

    def test_timeout_bound_group(self):
        stub = StubExecutor()
        trace = build_trace([0.0], ["a"])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=4, max_wait_us=300.0))
        (group,) = report.groups
        assert group.trigger == "timeout"
        assert group.launched_us == 300.0
        (record,) = report.records
        assert record.queue_wait_us == 300.0
        assert record.execute_us == 100.0
        assert record.latency_us == 400.0

    def test_late_arrivals_join_next_group(self):
        stub = StubExecutor(us_per_query=1_000.0)
        # two arrive immediately; the third arrives while the first
        # group is executing and must ride the next launch.
        trace = build_trace([0.0, 0.0, 500.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=2, max_wait_us=0.0))
        assert [g.request_ids for g in report.groups] == [[0, 1], [2]]
        assert report.groups[1].launched_us == report.groups[0].completed_us

    def test_max_batch_one_is_per_query_serving(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=1, max_wait_us=1e6))
        assert [g.size for g in report.groups] == [1, 1, 1]
        assert report.mean_group_size == 1.0

    def test_wait_zero_launches_immediately(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 5_000.0], ["a", "b"])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=8, max_wait_us=0.0))
        assert [g.launched_us for g in report.groups] == [0.0, 5_000.0]
        assert all(r.queue_wait_us == 0.0 for r in report.records)

    def test_records_sorted_by_request_id(self):
        stub = StubExecutor()
        trace = build_trace([100.0, 0.0, 50.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=1))
        assert [r.request_id for r in report.records] == [0, 1, 2]

    def test_executor_payload_mismatch_raises(self):
        class Broken:
            def execute(self, queries):
                return [], 1.0

        with pytest.raises(ExecutorContractError, match="payloads"):
            simulate_serving(Broken(), build_trace([0.0], ["a"]), BatchPolicy())

    def test_contract_error_names_executor_and_counts(self):
        class Broken:
            def execute(self, queries):
                return [None] * 3, 1.0

        with pytest.raises(ExecutorContractError) as excinfo:
            simulate_serving(Broken(), build_trace([0.0], ["a"]), BatchPolicy())
        assert excinfo.value.expected == 1
        assert excinfo.value.got == 3
        assert "Broken" in str(excinfo.value)

    def test_empty_trace(self):
        report = simulate_serving(StubExecutor(), [], BatchPolicy())
        assert report.n_requests == 0
        assert report.makespan_us == 0.0
        assert report.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_report_accounting(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0, 0.0], list("abcd"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=4, max_wait_us=0.0))
        assert report.n_groups == 1
        assert report.fused_occupancy == 1.0
        assert report.trigger_counts == {"size": 1}
        assert report.requests_per_s == pytest.approx(4 / (400.0 / 1e6))
        d = report.to_dict()
        assert d["n_requests"] == 4
        assert set(d["latency_us"]) == {"p50", "p95", "p99", "mean_queue_wait", "mean_execute"}


class TestWorkloads:
    def test_burst_arrivals(self):
        assert burst_arrivals(2, 3, 100.0) == [0.0, 0.0, 0.0, 100.0, 100.0, 100.0]
        with pytest.raises(ValueError):
            burst_arrivals(1, 1, -1.0)

    def test_poisson_seeded(self):
        a = poisson_arrivals(20, 500.0, seed=7)
        b = poisson_arrivals(20, 500.0, seed=7)
        assert a == b
        assert a != poisson_arrivals(20, 500.0, seed=8)
        assert all(x < y for x, y in zip(a, a[1:]))


def assert_same_fields(got, want):
    """Field-by-field dataclass equality (names the field that moved); an
    answer's arrays compare element by element."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        value, wanted = getattr(got, f.name), getattr(want, f.name)
        same = np.array_equal(value, wanted) if isinstance(wanted, np.ndarray) else value == wanted
        assert same, f.name


def searches_counted(system):
    return tuple(
        system.obs.registry.value("repro_cluster_searches_total", kind=kind)
        for kind in ("single", "group")
    )


class TestEngineServing:
    def test_group_of_one_bit_identical_to_search(self):
        """``search`` *is* a group of one, prepared by the single-query
        kernel path; what makes choosing that path from ``len == 1`` a
        free choice is that the multi-query kernel at Q=1 returns the
        same matches for the same simulated time — pinned here one level below the engine."""
        engine, descs = build_engine()
        engine.flush()
        kernel = engine.kernel
        # one fresh simulated clock per path, so the charges compare exactly
        device_1, device_m = GPUDevice(TESLA_P100), GPUDevice(TESLA_P100)
        query = noisy_copy(descs[2], 8.0, seed=5)
        single_q = kernel.prepare_query(device_1, query)
        group_q = kernel.prepare_query_many(device_m, [query])
        assert single_q.matrix.ndim == 2 and group_q.matrix.shape[0] == 1
        batches = [cached.batch for cached in engine.cache.batches()]
        assert batches
        for batch in batches:
            want = kernel.match_batch(device_1, batch, single_q)
            (got,) = slot_matches(batch, kernel.match_batch_multi(device_m, batch, group_q))
            (want,) = slot_matches(batch, want)
            assert device_m.synchronize() == device_1.synchronize() > 0  # exact, not approx
            assert len(got) == len(want) == batch.size
            for g, w in zip(got, want):
                assert (g.reference_id, g.good_matches) == (w.reference_id, w.good_matches)

    @pytest.mark.parametrize("router", [None, "ivf"])
    @pytest.mark.parametrize("replication_factor", [1, 2])
    @pytest.mark.parametrize("backend", ["algorithm2", "algorithm1", "cascade"])
    def test_group_of_one_bit_identical_to_search_cluster(
        self, backend, replication_factor, router
    ):
        """Two identically built clusters, ``search(q)`` on one and
        ``search_group([q])`` on the other: every result field agrees,
        on every backend (a group of one needs no multi-query kernel),
        and each entry point counts only itself."""
        config = CFG.with_updates(
            backend=backend, scale_factor=0.25 if backend == "algorithm2" else 2.0**-7
        )
        policy = RouterPolicy(kind=router, n_lists=4, nprobe=2) if router else None
        kwargs = dict(
            n_refs=9, config=config,
            replication_factor=replication_factor, router_policy=policy,
        )
        system_a, descs = build_cluster(**kwargs)
        system_b, _ = build_cluster(**kwargs)
        for seed, i in enumerate((4, 7)):  # two rounds: reader rotation at R=2
            query = noisy_copy(descs[i], 8.0, seed=seed)
            before_a, before_b = searches_counted(system_a), searches_counted(system_b)
            single = system_a.search(query)
            assert searches_counted(system_a) == (before_a[0] + 1, before_a[1])
            group = system_b.search_group([query])
            assert searches_counted(system_b) == (before_b[0], before_b[1] + 1)
            (grouped,) = group.answers
            assert single.best().reference_id == f"r{i}"
            assert single.routed == (router is not None)
            assert_same_fields(grouped, single)

    @pytest.mark.chaos
    def test_group_of_one_sibling_retry_identical_to_search(self):
        """R=2 with the chosen reader crashed: both entry points retry
        once on the sibling, leave no shard unsearched, and agree."""
        outcomes = []
        for entry in ("search", "search_group"):
            injector = FaultInjector(seed=0)
            system, descs = build_cluster(
                injector=injector, replication_factor=2, auto_failover=False
            )
            chosen = system.groups["gpu-01"].nodes[0]  # cursor 0 reads it first
            injector.crash(chosen.node_id)
            reg = system.obs.registry
            before = reg.value("repro_cluster_replica_retries_total")
            query = noisy_copy(descs[1], 8.0, seed=11)
            if entry == "search":
                result = system.search(query)
            else:
                (result,) = system.search_group([query]).answers
            assert reg.value("repro_cluster_replica_retries_total") == before + 1
            assert result.unsearched_shards == () and not result.partial
            assert result.images_searched == 6
            assert result.best().reference_id == "r1"
            outcomes.append(result)
        assert_same_fields(outcomes[1], outcomes[0])

    def test_fused_group_shares_elapsed(self):
        engine, descs = build_engine()
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(4)]
        group = engine.search_group(queries)
        assert len(group.answers) == 4
        assert all(r.elapsed_us == group.elapsed_us for r in group.answers)
        assert group.pairs_per_s == pytest.approx(4 * group.images_per_s)

    def test_fused_beats_serial_at_concurrency_4(self):
        """The acceptance bar: batching must strictly raise throughput
        once four queries contend for the device."""
        engine, descs = build_engine()
        queries = [noisy_copy(descs[i % len(descs)], 8.0, seed=i) for i in range(12)]
        trace = build_trace(burst_arrivals(3, 4, 1_000.0), queries)
        serial = simulate_serving(
            SerialEngineExecutor(engine), trace, BatchPolicy(max_batch=1)
        )
        fused = simulate_serving(
            FusedEngineExecutor(engine), trace, BatchPolicy(max_batch=4, max_wait_us=2_000.0)
        )
        assert fused.throughput_images_per_s > serial.throughput_images_per_s
        assert fused.n_requests == len(queries)
        assert fused.mean_group_size == 4.0

    def test_determinism_same_trace_same_report(self):
        """S4: one arrival trace + seed replays byte-identical groups
        and percentiles."""
        reports = []
        for _ in range(2):
            engine, descs = build_engine()
            queries = [noisy_copy(descs[i % 4], 8.0, seed=i) for i in range(8)]
            trace = build_trace(burst_arrivals(2, 4, 1_500.0), queries)
            reports.append(
                simulate_serving(
                    FusedEngineExecutor(engine),
                    trace,
                    BatchPolicy(max_batch=4, max_wait_us=2_000.0),
                )
            )
        a, b = reports
        assert [g.request_ids for g in a.groups] == [g.request_ids for g in b.groups]
        assert [g.trigger for g in a.groups] == [g.trigger for g in b.groups]
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


class TestClusterServing:
    def test_cluster_group_executor(self):
        system, descs = build_cluster()
        executor = ClusterGroupExecutor(system)
        payloads, elapsed = executor.execute([noisy_copy(descs[0], 8.0, seed=1)])
        assert len(payloads) == 1
        assert elapsed > 0
        assert payloads[0].best().reference_id == "r0"

    @pytest.mark.chaos
    def test_shard_death_mid_group_flags_every_query(self):
        """S3: a shard dying during a fused group leaves *every* member
        partial, under one header no member can change."""
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(n_nodes=3, n_refs=6, injector=injector)
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(4)]
        injector.crash_after("gpu-01", 1)  # dies on the group's shard RPC
        group = system.search_group(queries)
        assert len(group.answers) == 4
        assert group.partial
        assert group.unsearched_shards == ("gpu-01",)
        for result in group.answers:
            assert result.partial
            assert result.unsearched_shards == ("gpu-01",)
        # one query's metadata cannot be poisoned for its group-mates
        # (or the group rollup): the header is immutable
        with pytest.raises(AttributeError):
            group.answers[0].unsearched_shards.append("poison")
        assert group.answers[1].unsearched_shards == group.unsearched_shards == ("gpu-01",)

    def test_rest_batch_route_happy_path(self):
        system, descs = build_cluster()
        router = build_api(system)
        body = {
            "queries": [
                noisy_copy(descs[0], 8.0, seed=1).tolist(),
                noisy_copy(descs[3], 8.0, seed=2).tolist(),
            ],
            "top": 2,
        }
        response = router.handle(Request("POST", "/search/batch", body))
        assert response.ok
        assert response.body["group_size"] == 2
        assert response.body["elapsed_us"] > 0
        first, second = response.body["queries"]
        assert first["results"][0]["id"] == "r0"
        assert second["results"][0]["id"] == "r3"
        # both queries share the fused group's completion time
        assert first["elapsed_us"] == second["elapsed_us"]

    def test_rest_batch_route_validation(self):
        system, _ = build_cluster(n_nodes=2, n_refs=2)
        router = build_api(system)
        assert router.handle(Request("POST", "/search/batch", {})).status == 400
        assert (
            router.handle(Request("POST", "/search/batch", {"queries": []})).status
            == 400
        )
        query = make_descriptors(CFG.n, seed=0).tolist()
        too_many = {"queries": [query] * 65}
        assert router.handle(Request("POST", "/search/batch", too_many)).status == 400
        bad_top = {"queries": [query], "top": 0}
        assert router.handle(Request("POST", "/search/batch", bad_top)).status == 400
        for junk in ("abc", None, [1]):
            response = router.handle(
                Request("POST", "/search/batch", {"queries": [query], "top": junk})
            )
            assert response.status == 400 and "'top'" in response.body["error"]
        bad_shape = {"queries": [[[1.0, 2.0]]]}
        assert router.handle(Request("POST", "/search/batch", bad_shape)).status == 400

    def test_rest_batch_route_needs_multiquery_backend_for_two(self):
        """Two or more queries on a single-query backend answer 400
        naming the backend; a batch of one is served like a search."""
        system, descs = build_cluster(
            n_nodes=2, n_refs=4, config=CFG.with_updates(backend="algorithm1")
        )
        router = build_api(system)
        query = noisy_copy(descs[1], 8.0, seed=3).tolist()
        two = router.handle(Request("POST", "/search/batch", {"queries": [query, query]}))
        assert two.status == 400 and "algorithm1" in two.body["error"]
        one = router.handle(Request("POST", "/search/batch", {"queries": [query]}))
        assert one.ok and one.body["queries"][0]["results"][0]["id"] == "r1"

    def test_webtier_batch_executor_charges_group_time(self):
        system, descs = build_cluster()
        tier = WebTier(system, n_workers=1)
        executor = WebTierBatchExecutor(tier, top=1)
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(3)]
        payloads, elapsed = executor.execute(queries)
        assert len(payloads) == 3
        assert payloads[0]["results"][0]["id"] == "r0"
        # worker clock advanced by handling cost + the group's time
        assert elapsed == tier.worker_clock_us[0]
        assert elapsed > 0

    def test_a_dispatched_group_prepares_each_query_once_for_all_shards(self, monkeypatch):
        from repro.core.kernels import Algorithm2Kernel

        system, descs = build_cluster(n_nodes=4, n_refs=8)
        executor = WebTierBatchExecutor(WebTier(system, n_workers=1), top=1)
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(3)]
        prepared = []
        real = Algorithm2Kernel.query_matrix
        monkeypatch.setattr(
            Algorithm2Kernel, "query_matrix",
            lambda kernel, d: (prepared.append(1), real(kernel, d))[1],
        )
        payloads, _ = executor.execute(queries)
        assert [p["results"][0]["id"] for p in payloads] == ["r0", "r1", "r2"]
        assert len(prepared) == 3  # not 3 queries x 4 shards


class TestServingExperiment:
    def test_quick_run_writes_json_and_shows_speedup(self):
        from repro.bench.experiments import serving_bench

        result = serving_bench.run(quick=True)
        assert result.summary["fused_speedup_at_conc4"] > 1.0
        payload = json.loads(json.dumps(result.payload))
        assert payload["experiment"] == "serving"
        tiers = {cell["tier"] for cell in payload["grid"]}
        assert {"engine", "cluster", "webtier"} <= tiers
        for cell in payload["grid"]:
            assert {"p50", "p95", "p99"} <= set(cell["latency_us"])

    def test_registered_in_cli(self):
        from repro.bench.experiments import ALL_EXPERIMENTS

        assert "serving" in ALL_EXPERIMENTS
