"""Additional node / engine-stats coverage."""

import numpy as np
import pytest

from repro.core import EngineConfig
from repro.distributed import KVStore, NodeConfig, SearchNode
from repro.gpusim import TESLA_V100
from tests.conftest import make_descriptors, noisy_copy

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


class TestNodeConfig:
    def test_defaults_match_sec8(self):
        cfg = NodeConfig()
        assert cfg.engine_reserved_bytes == 4 * 1024**3
        assert cfg.host_cache_bytes == 64 * 10**9
        assert cfg.pinned

    def test_reserved_memory_applied(self):
        node = SearchNode("n0", CFG)
        assert node.engine.device.memory.reserved_bytes == 4 * 1024**3

    def test_custom_device(self):
        node = SearchNode("n0", CFG, device_spec=TESLA_V100)
        assert node.engine.device.spec.name == "Tesla V100"
        assert node.stats()["device"] == "Tesla V100"


class TestNodeOps:
    def test_remove_and_has(self):
        node = SearchNode("n0", CFG)
        node.add("a", make_descriptors(32, seed=6000))
        assert node.has("a")
        assert node.remove("a")
        assert not node.has("a")
        assert not node.remove("a")

    def test_stats_track_searches(self):
        node = SearchNode("n0", CFG)
        descs = make_descriptors(32, seed=6001)
        node.add("a", descs)
        node.search(noisy_copy(descs, 8.0, seed=61))
        stats = node.stats()
        assert stats["searches"] == 1
        assert stats["mean_images_per_s"] > 0
        assert stats["references"] == 1

    def test_stats_report_how_the_cache_is_chunked(self):
        """What a sweep is charged by, read from inside: sealed batches,
        their fill against ``batch_size`` (2 here) and their dead slots."""
        node = SearchNode("n0", CFG)
        chunked = lambda: {k: node.stats()[k] for k in ("sealed_batches", "batch_fill", "dead_slot_share")}
        assert chunked() == {"sealed_batches": 0, "batch_fill": 0.0, "dead_slot_share": 0.0}
        for i in range(3):
            node.add(f"r{i}", make_descriptors(32, seed=6100 + i))
        # one full batch sealed, r2 still pending: in neither number
        assert chunked() == {"sealed_batches": 1, "batch_fill": 1.0, "dead_slot_share": 0.0}
        node.search(noisy_copy(make_descriptors(32, seed=6100), 8.0, seed=62))  # seals r2 alone
        assert chunked() == {"sealed_batches": 2, "batch_fill": 0.75, "dead_slot_share": 0.0}
        node.remove("r0")  # a tombstone: still swept, never reported
        assert chunked() == {"sealed_batches": 2, "batch_fill": 0.75, "dead_slot_share": 1 / 3}
        node.remove("r1")  # the batch's last live slot: the whole batch is purged
        assert chunked() == {"sealed_batches": 1, "batch_fill": 0.5, "dead_slot_share": 0.0}

    def test_capacity_reflects_node_budgets(self):
        node = SearchNode("n0", CFG)
        per_image = CFG.feature_matrix_bytes()
        expected = node.engine.cache.capacity_images(per_image)
        assert node.capacity_images() == expected
        # Sec. 8 budgets: 12 GB GPU cache + 64 GB host, each holding whole images
        assert node.capacity_images() == (16 * 1024**3 - 4 * 1024**3) // per_image + 64 * 10**9 // per_image

    def test_hydrate_skips_missing_keys(self):
        node = SearchNode("n0", CFG)
        store = KVStore()
        assert node.hydrate_from_store(store, ["nothing", "here"]) == 0

    def test_snapshot_prefix_isolation(self):
        store = KVStore()
        node_a = SearchNode("a", CFG)
        node_b = SearchNode("b", CFG)
        node_a.add("ra", make_descriptors(32, seed=6002))
        node_b.add("rb", make_descriptors(32, seed=6003))
        node_a.snapshot_to_store(store)
        node_b.snapshot_to_store(store)
        fresh_a = SearchNode("a", CFG)
        assert fresh_a.restore_from_store(store) == 1
        assert fresh_a.has("ra") and not fresh_a.has("rb")
