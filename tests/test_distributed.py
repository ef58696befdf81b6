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
from tests.conftest import make_descriptors, noisy_copy

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
        hits = [m for m in result.matches if m.reference_id == "r0"]
        assert len(hits) == 1
        assert result.best().reference_id == "r0"
        assert system.n_references == 2

    def test_search_many_accounting_uneven_shards(self):
        """Regression: aggregate elapsed/image counts must come from
        each node's own grouped results, not ``grouped[0]`` alone."""
        system = DistributedSearchSystem(3, CFG)
        descs = descriptors(5)
        for i in range(5):  # round-robin: shards of 2, 2, 1 references
            system.add(f"r{i}", descs[i])
        assert sorted(n.n_references for n in system.nodes) == [1, 2, 2]
        queries = [noisy_copy(descs[0], 8.0, seed=21), noisy_copy(descs[3], 8.0, seed=22)]
        grouped = system.search_group(queries).results
        for res in grouped:
            assert res.images_searched == 5
            assert sum(r.images_searched for r in res.per_node.values()) == 5
        slowest = max(
            max(r.elapsed_us for r in res.per_node.values()) for res in grouped
        )
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
