"""Search nodes, the sharded cluster, and the REST API."""

import numpy as np
import pytest

from repro.core import EngineConfig
from repro.distributed import (
    DistributedSearchSystem,
    FeatureRecord,
    KVStore,
    NodeConfig,
    Request,
    SearchNode,
    serialize_record,
    build_api,
)
from repro.errors import ClusterError
from tests.conftest import make_descriptors, noisy_copy, pairs

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def descriptors(count=8):
    return {i: make_descriptors(32, seed=400 + i) for i in range(count)}


class TestSearchNode:
    def test_add_and_search(self):
        node = SearchNode("n0", CFG)
        descs = descriptors(4)
        for i, d in descs.items():
            node.add(f"r{i}", d)
        result = node.search(noisy_copy(descs[2], 8.0, seed=1))
        assert result.best().reference_id == "r2"

    def test_hydrate_from_store(self):
        store = KVStore()
        descs = descriptors(3)
        for i, d in descs.items():
            record = FeatureRecord(f"r{i}", d, "fp32", 1.0)
            store.set(f"feature:r{i}", serialize_record(record))
        node = SearchNode("n0", CFG)
        loaded = node.hydrate_from_store(store, [f"feature:r{i}" for i in range(3)] + ["ghost"])
        assert loaded == 3
        assert node.n_references == 3

    def test_add_record_dequantises_fp16(self):
        node = SearchNode("n0", CFG)
        d = descriptors(1)[0]
        record = FeatureRecord("r0", (d * 0.25).astype(np.float16), "fp16", 0.25)
        node.add_record(record)
        result = node.search(noisy_copy(d, 8.0, seed=2))
        assert result.best().reference_id == "r0"

    def test_stats(self):
        node = SearchNode("n0", CFG)
        stats = node.stats()
        assert stats["node_id"] == "n0"
        assert stats["references"] == 0
        assert stats["capacity_images"] > 0


class TestCluster:
    def test_round_robin_sharding(self):
        system = DistributedSearchSystem(3, CFG)
        descs = descriptors(6)
        nodes = [system.add(f"r{i}", descs[i]) for i in range(6)]
        assert nodes == ["gpu-00", "gpu-01", "gpu-02"] * 2
        assert [n.n_references for n in system.nodes] == [2, 2, 2]

    def test_search_across_shards(self):
        system = DistributedSearchSystem(3, CFG)
        descs = descriptors(6)
        for i in range(6):
            system.add(f"r{i}", descs[i])
        result = system.search(noisy_copy(descs[4], 8.0, seed=3))
        assert result.best().reference_id == "r4"
        assert result.images_searched == 6
        assert result.elapsed_us > 0

    def test_update_stays_on_same_node(self):
        system = DistributedSearchSystem(3, CFG)
        descs = descriptors(2)
        first = system.add("r0", descs[0])
        second = system.add("r0", descs[1])  # update
        assert first == second
        assert system.n_references == 1

    def test_remove(self):
        system = DistributedSearchSystem(2, CFG)
        descs = descriptors(2)
        system.add("r0", descs[0])
        assert system.remove("r0")
        assert not system.remove("r0")
        assert system.n_references == 0
        assert system.store.get("feature:r0") is None

    def test_record_persisted_in_store(self):
        system = DistributedSearchSystem(2, CFG)
        system.add("r0", descriptors(1)[0])
        assert system.get_record_bytes("r0") is not None
        assert system.store.hget("placement", "r0") == b"gpu-00"

    def test_capacity_scales_with_nodes(self):
        one = DistributedSearchSystem(1, CFG).capacity_images()
        four = DistributedSearchSystem(4, CFG).capacity_images()
        assert four == 4 * one

    def test_needs_a_node(self):
        with pytest.raises(ClusterError):
            DistributedSearchSystem(0, CFG)

    def test_add_node_after_remove_mints_fresh_id(self):
        """Regression: ids were minted from ``len(self.nodes)``, so a
        remove-then-add cycle minted a duplicate id and corrupted
        placement."""
        system = DistributedSearchSystem(2, CFG)
        system.remove_node("gpu-00")
        node = system.add_node()
        assert node.node_id == "gpu-02"
        ids = [n.node_id for n in system.nodes]
        assert len(set(ids)) == len(ids) == 2
        descs = descriptors(4)
        owners = [system.add(f"r{i}", descs[i]) for i in range(4)]
        assert set(owners) == {"gpu-01", "gpu-02"}
        # every reference is findable on the node placement claims
        for i in range(4):
            assert system._node_by_id(owners[i]).has(f"r{i}")

    def test_update_in_place_yields_single_match(self):
        """Re-enrolling an existing ref must replace, not duplicate:
        searching afterwards returns exactly one match for that id."""
        system = DistributedSearchSystem(2, CFG)
        descs = descriptors(3)
        system.add("r0", descs[0])
        system.add("r1", descs[1])
        system.add("r0", descs[2])  # update in place with new content
        result = system.search(noisy_copy(descs[2], 8.0, seed=9))
        hits = [ref_id for ref_id, _ in pairs(result) if ref_id == "r0"]
        assert len(hits) == 1
        assert result.best().reference_id == "r0"
        assert system.n_references == 2

    def test_search_many_accounting_uneven_shards(self):
        """Regression: aggregate elapsed/image counts must come from
        each node's own grouped results, not ``grouped[0]`` alone."""
        descs = descriptors(5)
        # round-robin: shards of 2, 2, 1 references
        system, twin = twin_clusters(3, CFG, {f"r{i}": descs[i] for i in range(5)})
        assert sorted(n.n_references for n in system.nodes) == [1, 2, 2]
        queries = [noisy_copy(descs[0], 8.0, seed=21), noisy_copy(descs[3], 8.0, seed=22)]
        grouped = system.search_group(queries).answers
        per_node = [node.search_many(queries) for node in twin.nodes]
        for res in grouped:
            assert res.images_searched == 5 == sum(s.images_searched for s in per_node)
        slowest = max(s.elapsed_us for s in per_node)
        from repro.distributed import WEB_TIER_OVERHEAD_US

        assert grouped[0].elapsed_us == pytest.approx(slowest + WEB_TIER_OVERHEAD_US)
        assert grouped[0].best().reference_id == "r0"
        assert grouped[1].best().reference_id == "r3"


class TestRestApi:
    @pytest.fixture
    def api(self):
        self.system = DistributedSearchSystem(2, CFG)
        return build_api(self.system)

    def _post(self, api, ref_id, desc):
        return api.handle(
            Request("POST", "/textures", {"id": ref_id, "descriptors": desc.tolist()})
        )

    def test_crud_lifecycle(self, api):
        descs = descriptors(2)
        created = self._post(api, "brick-1", descs[0])
        assert created.status == 201 and not created.body["updated"]

        got = api.handle(Request("GET", "/textures/brick-1"))
        assert got.status == 200 and got.body["stored_bytes"] > 0

        updated = api.handle(
            Request("PUT", "/textures/brick-1", {"descriptors": descs[1].tolist()})
        )
        assert updated.status == 200 and updated.body["updated"]

        deleted = api.handle(Request("DELETE", "/textures/brick-1"))
        assert deleted.status == 200
        assert api.handle(Request("GET", "/textures/brick-1")).status == 404

    def test_post_existing_is_update(self, api):
        descs = descriptors(2)
        self._post(api, "b", descs[0])
        again = self._post(api, "b", descs[1])
        assert again.status == 200 and again.body["updated"]

    def test_search_returns_ranked(self, api):
        descs = descriptors(5)
        for i in range(5):
            self._post(api, f"brick-{i}", descs[i])
        response = api.handle(
            Request(
                "POST",
                "/search",
                {"descriptors": noisy_copy(descs[3], 8.0, seed=4).tolist(), "top": 2},
            )
        )
        assert response.status == 200
        assert response.body["results"][0]["id"] == "brick-3"
        assert len(response.body["results"]) == 2
        assert response.body["throughput_images_per_s"] > 0

    def test_validation_errors(self, api):
        assert self._post(api, "bad id!", descriptors(1)[0]).status == 400
        missing = api.handle(Request("POST", "/search", {}))
        assert missing.status == 400
        wrong_shape = api.handle(
            Request("POST", "/search", {"descriptors": [[1.0, 2.0]]})
        )
        assert wrong_shape.status == 400
        nan = np.full((128, 4), np.nan).tolist()
        assert api.handle(Request("POST", "/search", {"descriptors": nan})).status == 400
        bad_top = api.handle(
            Request("POST", "/search", {"descriptors": descriptors(1)[0].tolist(), "top": 0})
        )
        assert bad_top.status == 400
        # a 'top' that is not a number is a 400, not an escaped exception
        for junk in ("abc", None, [1]):
            body = {"descriptors": descriptors(1)[0].tolist(), "top": junk}
            response = api.handle(Request("POST", "/search", body))
            assert response.status == 400 and "'top'" in response.body["error"]

    def test_unknown_route_and_method(self, api):
        assert api.handle(Request("GET", "/nope")).status == 404
        assert api.handle(Request("PATCH", "/search")).status == 405

    def test_delete_missing(self, api):
        assert api.handle(Request("DELETE", "/textures/ghost")).status == 404

    def test_stats(self, api):
        self._post(api, "b", descriptors(1)[0])
        stats = api.handle(Request("GET", "/stats"))
        assert stats.status == 200
        assert stats.body["references"] == 1
        assert len(stats.body["nodes"]) == 2


# -- one query preparation per request (PR 14) ------------------------------


def twin_clusters(n_nodes, config, refs, **kwargs):
    """Two clusters in the same state: one to ask, one whose engines
    answer the raw descriptors themselves (a search advances a node's
    simulated clock, so the reference must come from an untouched twin)."""
    pair = []
    for _ in range(2):
        system = DistributedSearchSystem(n_nodes, config, **kwargs)
        for ref_id, d in refs.items():
            system.add(ref_id, d)
        pair.append(system)
    return pair


def image_matches(matches):
    return list(matches)


def assert_assembled_from_the_nodes(got, per_shard, system):
    """``got`` (one query's cluster answer) is exactly what each node's
    own engine said about the raw descriptors, put together."""
    from repro.distributed import WEB_TIER_OVERHEAD_US

    assert list(got.corpus_epoch) == list(per_shard)
    matches = []
    for want in per_shard.values():
        matches.extend(pairs(want))
    assert got.images_searched == sum(want.images_searched for want in per_shard.values())
    assert image_matches(pairs(got)) == image_matches(matches)
    assert [good for _, good in pairs(got)] == [good for _, good in matches]
    assert got.elapsed_us == max(r.elapsed_us for r in per_shard.values()) + WEB_TIER_OVERHEAD_US
    assert got.corpus_epoch == {g.shard_id: g.epoch for g in system.groups.values()}


class TestPreparedOncePerRequest:
    REFS = {f"r{i}": make_descriptors(32, seed=400 + i) for i in range(28)}

    def test_fourteen_shard_search_is_each_nodes_own_raw_answer(self):
        asked, twin = twin_clusters(14, CFG, self.REFS)
        query = noisy_copy(self.REFS["r9"], 8.0, seed=3)
        got = asked.search(query)
        per_shard = {n.node_id: n.engine.search(query) for n in twin.nodes}
        assert got.best().reference_id == "r9" and len(got.corpus_epoch) == 14
        assert_assembled_from_the_nodes(got, per_shard, asked)

    def test_fused_group_is_each_nodes_own_raw_group_answer(self):
        asked, twin = twin_clusters(14, CFG, self.REFS)
        queries = [noisy_copy(self.REFS[f"r{i}"], 8.0, seed=i) for i in (2, 11, 20)]
        got = asked.search_group(queries)
        groups = {n.node_id: n.engine.search_group(queries).answers for n in twin.nodes}
        assert [r.best().reference_id for r in got.answers] == ["r2", "r11", "r20"]
        for q, result in enumerate(got.answers):
            per_shard = {shard: results[q] for shard, results in groups.items()}
            assert_assembled_from_the_nodes(result, per_shard, asked)
        assert got.corpus_epoch == got.answers[0].corpus_epoch

    @pytest.fixture
    def prep_calls(self, monkeypatch):
        from repro.core.kernels import Algorithm2Kernel

        calls = []
        real = Algorithm2Kernel.query_matrix

        def counting(kernel, descriptors):
            calls.append(descriptors)
            return real(kernel, descriptors)

        monkeypatch.setattr(Algorithm2Kernel, "query_matrix", counting)
        return calls

    @pytest.mark.parametrize("replication_factor", [1, 2])
    @pytest.mark.parametrize("routed", [False, True])
    def test_one_preparation_per_query_per_request(self, prep_calls, routed, replication_factor):
        from repro.routing import RouterPolicy

        policy = RouterPolicy(kind="ivf", n_lists=4) if routed else None
        system = DistributedSearchSystem(
            4, CFG, router_policy=policy, replication_factor=replication_factor
        )
        for ref_id, d in self.REFS.items():
            system.add(ref_id, d)
        queries = [noisy_copy(self.REFS[f"r{i}"], 8.0, seed=i) for i in (1, 5, 7)]
        del prep_calls[:]
        assert system.search(queries[0]).best().reference_id == "r1"
        assert len(prep_calls) == 1 and prep_calls[0] is queries[0]
        del prep_calls[:]
        group = system.search_group(queries)
        assert [r.best().reference_id for r in group.answers] == ["r1", "r5", "r7"]
        assert len(prep_calls) == 3 and all(a is b for a, b in zip(prep_calls, queries))

    class _Scripted:
        """A fault injector that plays a fixed script for one node."""

        def __init__(self, node_id, script):
            self.node_id, self.script = node_id, list(script)

        def is_crashed(self, node_id):
            return False

        def on_node_op(self, node_id):
            from repro.errors import TransientNodeError

            step = self.script.pop(0) if node_id == self.node_id and self.script else 1.0
            if step == "transient":
                raise TransientNodeError(node_id)
            return step

    def test_a_sibling_retry_reuses_the_prepared_query(self, prep_calls):
        from repro.distributed import RetryPolicy

        system = DistributedSearchSystem(
            2, CFG, replication_factor=2, retry_policy=RetryPolicy(max_attempts=1)
        )
        for ref_id, d in self.REFS.items():
            system.add(ref_id, d)
        system.poll_lifecycle()
        first_reader = system.groups["gpu-00"].readers(None)[0]
        system.groups["gpu-00"]._cursor -= 1  # readers() advanced the rotation
        first_reader.fault_injector = self._Scripted(first_reader.node_id, ["transient"])
        del prep_calls[:]
        got = system.search(noisy_copy(self.REFS["r4"], 8.0, seed=4))
        assert got.best().reference_id == "r4" and not got.partial
        assert first_reader.health.total_failures == 1  # the sibling answered
        assert len(prep_calls) == 1

    def test_a_timeout_and_retry_on_one_node_reuses_the_prepared_query(self, prep_calls):
        from repro.distributed import RetryPolicy

        system = DistributedSearchSystem(
            2, CFG, retry_policy=RetryPolicy(max_attempts=2, timeout_us=100_000.0)
        )
        for ref_id, d in self.REFS.items():
            system.add(ref_id, d)
        system.nodes[0].fault_injector = self._Scripted("gpu-00", [1e6])  # slow once
        del prep_calls[:]
        got = system.search(noisy_copy(self.REFS["r4"], 8.0, seed=4))
        assert got.best().reference_id == "r4" and got.retries == 1 and not got.partial
        assert len(prep_calls) == 1

    @pytest.mark.parametrize("backend", ["algorithm2", "algorithm1"])
    def test_an_enrolment_prepares_the_reference_once_for_every_replica(self, backend, monkeypatch):
        from repro.core import TextureSearchEngine
        from repro.core.registry import kernel_class

        config = CFG.with_updates(backend=backend)
        kernel = kernel_class(backend)
        calls = []
        real = kernel.prepare_reference
        monkeypatch.setattr(
            kernel, "prepare_reference", lambda k, d: (calls.append(1), real(k, d))[1]
        )
        entered = []  # the replica-side entry points (the ones perfbench's tracer wraps)
        for owner, name in ((SearchNode, "add"), (TextureSearchEngine, "add_reference")):
            inner = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, _i=inner, _n=name: (entered.append(_n), _i(*a))[1]
            )
        system = DistributedSearchSystem(2, config, replication_factor=2)
        system.add("r0", self.REFS["r0"])
        system.enroll("r1", self.REFS["r1"])
        system.enroll("r0", self.REFS["r2"])  # an update
        assert len(calls) == 3  # not 3 mutations x 2 replicas
        assert entered == ["add", "add_reference"] * 6  # every replica, through the same door
        alone = TextureSearchEngine(config)  # what a node given the raw descriptors stores
        alone.add_reference("r0", self.REFS["r2"])
        want = alone.export_records()[0].matrix
        group = system.groups["gpu-00"]
        assert len(group.nodes) == 2 and [n.epoch for n in group.nodes] == [2, 2]
        for node in group.nodes:
            (record,) = node.engine.export_records()
            assert record.ref_id == "r0" and record.matrix.dtype == want.dtype
            assert np.array_equal(record.matrix.view(np.uint16), want.view(np.uint16))
        query = noisy_copy(self.REFS["r2"], 8.0, seed=2)
        assert pairs(group.nodes[1].search(query))[0][1] == (
            pairs(alone.search(query))[0][1]
        )

    @pytest.mark.parametrize("backend", ["algorithm1", "cascade", "garcia", "opencv", "lsh"])
    def test_other_backends_answer_through_the_cluster_unchanged(self, backend):
        config = EngineConfig(
            m=32, n=32, batch_size=2, min_matches=5, backend=backend, precision="fp32"
        )
        refs = {k: self.REFS[k] for k in list(self.REFS)[:9]}
        asked, twin = twin_clusters(3, config, refs)
        query = noisy_copy(refs["r4"], 8.0, seed=5)
        got = asked.search(query)
        per_shard = {n.node_id: n.engine.search(query) for n in twin.nodes}
        assert got.best().reference_id == "r4"
        assert_assembled_from_the_nodes(got, per_shard, asked)
        for mine, theirs in zip(asked.nodes, twin.nodes):  # per-node simulated charges
            assert mine.engine.device.profiler.as_dict() == theirs.engine.device.profiler.as_dict()
            assert mine.engine.stats.step_times_us == theirs.engine.stats.step_times_us

    def test_fp16_algorithm1_still_charges_its_query_upload_on_every_node(self):
        config = EngineConfig(
            m=32, n=32, batch_size=2, min_matches=5, backend="algorithm1", scale_factor=0.25
        )
        refs = {k: self.REFS[k] for k in list(self.REFS)[:6]}
        asked, twin = twin_clusters(3, config, refs)
        query = noisy_copy(refs["r2"], 8.0, seed=6)
        got = asked.search(query)
        per_shard = {n.node_id: n.search(query) for n in twin.nodes}
        assert_assembled_from_the_nodes(got, per_shard, asked)
        for mine, theirs in zip(asked.nodes, twin.nodes):
            steps = mine.engine.device.profiler.as_dict()
            assert steps["query H2D"] > 0 and steps == theirs.engine.device.profiler.as_dict()


class TestUnpreparableDescriptorsAreTheClientsError:
    """One finite negative entry (RootSIFT rejects it) or one entry that
    overflows FP16 at the configured scale: 400 on every route that takes
    descriptors, and the request has touched nothing."""

    def _system(self, backend="algorithm2", **updates):
        from repro.distributed import BreakerPolicy, FaultInjector, WebTier

        injector = FaultInjector(seed=3)
        config = CFG.with_updates(backend=backend, **updates)
        system = DistributedSearchSystem(
            2, config, replication_factor=2, fault_injector=injector,
            breaker_policy=BreakerPolicy(),
        )
        descs = descriptors(4)
        for i, d in descs.items():
            system.add(f"r{i}", d)
        system.poll_lifecycle()
        return system, WebTier(system, n_workers=2), descs

    @staticmethod
    def _state(system):
        return {
            "kv": system.store.dump(),
            "references": system.n_references,
            "placement": dict(system._placement),
            "cursors": {s: g._cursor for s, g in system.groups.items()},
            "epochs": {n.node_id: n.epoch for n in system.nodes},
            "durable_epochs": {s: system.epochs.get(s) for s in system.groups},
            "breakers": {n.node_id: (n.breaker.state, n.breaker.snapshot()) for n in system.nodes},
            "fault_ops": dict(system.fault_injector._op_counts),
            "health": {n.node_id: n.health.snapshot() for n in system.nodes},
            "searches": {n.node_id: n.engine.stats.searches for n in system.nodes},
        }

    def _requests(self, good, bad):
        return [
            Request("POST", "/search", {"descriptors": bad}),
            Request("POST", "/search/batch", {"queries": [good, bad]}),
            Request("POST", "/enroll", {"id": "new", "descriptors": bad}),
            Request("POST", "/textures", {"id": "new", "descriptors": bad}),
            Request("PUT", "/textures/r1", {"descriptors": bad}),
        ]

    @pytest.mark.parametrize("backend, poison", [("algorithm2", -1.0), ("algorithm1", 1e6)])
    def test_all_five_routes_answer_400_with_no_side_effect(self, backend, poison):
        system, tier, descs = self._system(backend)
        good = descs[1].tolist()
        bad = descs[1].copy()
        bad[7, 3] = poison
        for request in self._requests(good, bad.tolist()):
            if backend == "algorithm1" and request.path == "/search/batch":
                continue  # one query per request on this backend: 400 before any parsing
            before = self._state(system)
            record = tier.handle(request)
            assert record.response.status == 400, request.path
            error = record.response.body["error"]
            assert ("non-negative" in error) if poison < 0 else ("FP16 overflow" in error)
            assert self._state(system) == before, request.path
        assert not system.has("new")
        assert tier.handle(Request("GET", "/textures/new")).response.status == 404
        # the original r1 is still what answers
        ok = tier.handle(Request("POST", "/search", {"descriptors": good})).response
        assert ok.status == 200 and ok.body["results"][0]["id"] == "r1"

    def test_the_cluster_raises_one_typed_error_before_touching_anything(self):
        from repro.errors import ClusterError, InvalidDescriptorsError

        system, _, descs = self._system()
        bad = descs[0].copy()
        bad[0, 0] = -3.0
        before = self._state(system)
        for call in (
            lambda: system.search(bad),
            lambda: system.search_group([descs[0], bad]),
            lambda: system.add("new", bad),
            lambda: system.enroll("new", bad),
            lambda: system.search(descs[0][:5]),  # wrong shape
        ):
            with pytest.raises(InvalidDescriptorsError) as raised:
                call()
            assert isinstance(raised.value, (ClusterError, ValueError))
            assert self._state(system) == before

    #: every entry fits FP16 at the default scale 2^-7 (468.75), but a column's
    #: squared norm, 128 * 468.75^2 = 2.8125e7, does not
    HOT = np.full((128, 32), 60000.0, dtype=np.float32)

    def test_an_algorithm1_query_whose_norms_overflow_is_refused_before_the_fan_out(self):
        from repro.errors import InvalidDescriptorsError

        system, tier, _ = self._system("algorithm1", scale_factor=EngineConfig().scale_factor)
        before = self._state(system)
        for request in (
            Request("POST", "/search", {"descriptors": self.HOT.tolist()}),
            Request("POST", "/search/batch", {"queries": [self.HOT.tolist()]}),
            Request("POST", "/enroll", {"id": "new", "descriptors": self.HOT.tolist()}),
        ):
            response = tier.handle(request).response
            assert response.status == 400, request.path
            assert "magnitude 2.8125e+07 exceeds" in response.body["error"]  # not the clipped 65504
            assert self._state(system) == before, request.path
        with pytest.raises(InvalidDescriptorsError):
            system.search(self.HOT)
        assert self._state(system) == before

    def test_the_device_side_query_norm_check_still_charges_and_names_the_real_norm(self):
        from repro.core.algorithm1 import upload_query
        from repro.errors import HalfPrecisionOverflowError
        from repro.fp16.convert import to_scaled_fp16
        from repro.gpusim import GPUDevice, TESLA_P100

        scale = EngineConfig().scale_factor
        device = GPUDevice(TESLA_P100)
        with pytest.raises(HalfPrecisionOverflowError) as raised:
            upload_query(device, to_scaled_fp16(self.HOT, scale).values, "fp16", scale)
        assert raised.value.max_value == pytest.approx(128 * (60000.0 * scale) ** 2, rel=1e-6)
        assert {"query H2D", "norms"} <= set(device.profiler.as_dict())
