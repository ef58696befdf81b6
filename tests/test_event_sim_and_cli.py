"""Cluster failover and the CLI."""

import numpy as np
import pytest

from repro.bench.run import main as bench_main
from repro.core import EngineConfig
from repro.distributed import DistributedSearchSystem
from repro.errors import ClusterError
from tests.conftest import make_descriptors, noisy_copy


class TestClusterFailover:
    def _system(self, n_nodes=3, n_refs=6):
        cfg = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)
        system = DistributedSearchSystem(n_nodes, cfg)
        descs = {i: make_descriptors(32, seed=950 + i) for i in range(n_refs)}
        for i, d in descs.items():
            system.add(f"r{i}", d)
        return system, descs

    def test_remove_node_preserves_searchability(self):
        system, descs = self._system()
        victim = system._placement["r1"]
        moved = system.remove_node(victim)
        assert moved == 2  # 6 refs over 3 nodes round-robin
        assert len(system.nodes) == 2
        assert system.n_references == 6
        result = system.search(noisy_copy(descs[1], 8.0, seed=96))
        assert result.best().reference_id == "r1"

    def test_cannot_remove_last_node(self):
        cfg = EngineConfig(m=32, n=32, batch_size=2)
        system = DistributedSearchSystem(1, cfg)
        with pytest.raises(ClusterError):
            system.remove_node("gpu-00")

    def test_add_node_receives_new_references(self):
        system, _ = self._system(n_nodes=2, n_refs=2)
        node = system.add_node()
        assert node.node_id == "gpu-02"
        # next adds round-robin across 3 nodes eventually reach it
        for i in range(10, 16):
            system.add(f"r{i}", make_descriptors(32, seed=970 + i))
        assert node.n_references > 0

    def test_lost_record_dropped_gracefully(self):
        system, _ = self._system()
        victim = system._placement["r0"]
        system.store.delete("feature:r0")  # simulate KV data loss
        system.remove_node(victim)
        assert not system.has("r0")


class TestCli:
    @pytest.fixture(autouse=True)
    def _scratch_cwd(self, tmp_path, monkeypatch):
        # a run at the defaults writes its table under the working directory
        monkeypatch.chdir(tmp_path)

    def test_single_experiment(self, capsys):
        assert bench_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "completed in" in out

    def test_quick_accuracy_experiment(self, capsys):
        assert bench_main(["table7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert "-" in out  # accuracy column dashed out

    def test_unknown_experiment(self, capsys):
        assert bench_main(["table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_multiple_deduplicated(self, capsys):
        assert bench_main(["table4", "table4"]) == 0
        assert capsys.readouterr().out.count("Table 4:") == 1

    def test_ablation_experiments_routed(self, capsys):
        assert bench_main(["ablation-sort"]) == 0
        assert "Ablation" in capsys.readouterr().out
