"""Round-robin placement and the engine profiling report."""

import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import RoundRobinPlacement
from tests.conftest import make_descriptors


class TestRoundRobin:
    def test_cycles(self):
        policy = RoundRobinPlacement(["a", "b", "c"])
        assert [policy.place(f"k{i}") for i in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_remove_keeps_cursor_valid(self):
        policy = RoundRobinPlacement(["a", "b"])
        policy.place("k")
        policy.remove_node("b")
        assert policy.place("k2") == "a"

    def test_duplicate_rejected(self):
        policy = RoundRobinPlacement(["a"])
        with pytest.raises(ValueError):
            policy.add_node("a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement().place("k")


class TestProfileReport:
    def test_report_contents(self):
        engine = TextureSearchEngine(
            EngineConfig(m=32, n=32, batch_size=2, scale_factor=0.25)
        )
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=5100 + i))
        engine.search(make_descriptors(32, seed=5200))
        report = engine.profile_report()
        for token in ("GEMM", "Top-2 sort", "TOTAL", "us/image", "Tesla P100"):
            assert token in report

    def test_reset_profile(self):
        engine = TextureSearchEngine(
            EngineConfig(m=32, n=32, batch_size=2, scale_factor=0.25)
        )
        engine.add_reference("r0", make_descriptors(32, seed=5300))
        engine.search(make_descriptors(32, seed=5301))
        engine.reset_profile()
        assert engine.device.profiler.total_us() == 0.0
        assert engine.stats.searches == 1  # stats survive
