"""Fault tolerance: health states, fault injection, retries, partial
results, degradation floors, and failover (chaos suite).

Every scenario is fully deterministic — the :class:`FaultInjector`
draws from hashes of ``(seed, node, op)`` — so the suite doubles as the
determinism check: :class:`TestDeterminism` replays a whole chaos
scenario and asserts byte-identical outcomes.
"""

import numpy as np
import pytest

from repro.core import EngineConfig
from repro.distributed import (
    DistributedSearchSystem,
    FaultInjector,
    FaultSpec,
    HealthPolicy,
    HealthTracker,
    NodeHealth,
    Request,
    RetryPolicy,
    SearchNode,
    WEB_TIER_OVERHEAD_US,
    WebTier,
)
from repro.errors import (
    DegradedClusterError,
    NodeDownError,
    TransientNodeError,
)
from tests.conftest import make_descriptors, noisy_copy

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def descriptors(count, base=400):
    return {i: make_descriptors(32, seed=base + i) for i in range(count)}


def build_cluster(n_nodes, n_refs, *, injector=None, **kwargs):
    system = DistributedSearchSystem(n_nodes, CFG, fault_injector=injector, **kwargs)
    descs = descriptors(n_refs)
    for i in range(n_refs):
        system.add(f"r{i}", descs[i])
    return system, descs


class TestHealthTracker:
    def test_degradation_and_down_thresholds(self):
        tracker = HealthTracker(HealthPolicy(degraded_after=1, down_after=3))
        assert tracker.state is NodeHealth.UP
        assert tracker.record_failure() is NodeHealth.DEGRADED
        assert tracker.record_failure() is NodeHealth.DEGRADED
        assert tracker.record_failure() is NodeHealth.DOWN

    def test_success_resets_streak_but_not_down(self):
        tracker = HealthTracker(HealthPolicy(degraded_after=1, down_after=2))
        tracker.record_failure()
        assert tracker.record_success() is NodeHealth.UP
        assert tracker.consecutive_failures == 0
        tracker.record_crash()
        assert tracker.record_success() is NodeHealth.DOWN  # sticky
        assert tracker.revive() is NodeHealth.UP

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(degraded_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(degraded_after=3, down_after=2)


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(slow_multiplier=0.5)

    def test_deterministic_draws(self):
        spec = FaultSpec(transient_rate=0.3)
        a, b = FaultInjector(spec, seed=5), FaultInjector(spec, seed=5)

        def sequence(injector):
            outcomes = []
            for _ in range(50):
                try:
                    injector.on_node_op("gpu-00")
                    outcomes.append("ok")
                except TransientNodeError:
                    outcomes.append("transient")
            return outcomes

        seq_a, seq_b = sequence(a), sequence(b)
        assert seq_a == seq_b
        assert "transient" in seq_a and "ok" in seq_a
        assert sequence(FaultInjector(spec, seed=6)) != seq_a

    def test_explicit_and_scheduled_crashes(self):
        injector = FaultInjector(seed=0)
        injector.crash("gpu-00")
        with pytest.raises(NodeDownError):
            injector.on_node_op("gpu-00")
        injector.revive("gpu-00")
        assert injector.on_node_op("gpu-00") == 1.0
        injector.crash_after("gpu-00", 2)
        assert injector.on_node_op("gpu-00") == 1.0
        with pytest.raises(NodeDownError):
            injector.on_node_op("gpu-00")
        assert injector.is_crashed("gpu-00")

    def test_slow_node_multiplier(self):
        injector = FaultInjector(FaultSpec(slow_rate=1.0, slow_multiplier=8.0), seed=1)
        assert injector.on_node_op("gpu-00") == 8.0

    def test_blob_loss_is_permanent(self):
        injector = FaultInjector(FaultSpec(blob_loss_rate=0.5), seed=3)
        keys = [f"feature:r{i}" for i in range(40)]
        first = [injector.on_kv_get(k) for k in keys]
        assert any(first) and not all(first)
        assert [injector.on_kv_get(k) for k in keys] == [
            True if lost else injector.on_kv_get(k) for k, lost in zip(keys, first)
        ]
        assert all(injector.on_kv_get(k) for k, lost in zip(keys, first) if lost)


class TestNodeFaultGating:
    def test_down_node_refuses_search(self):
        node = SearchNode("n0", CFG)
        node.add("r0", make_descriptors(32, seed=1))
        node.health.record_crash()
        with pytest.raises(NodeDownError):
            node.search(make_descriptors(32, seed=2))

    def test_slow_fault_scales_elapsed(self):
        descs = make_descriptors(32, seed=1)
        fast, slow = SearchNode("n0", CFG), SearchNode("n0", CFG)
        for node in (fast, slow):
            node.add("r0", descs)
        slow.fault_injector = FaultInjector(
            FaultSpec(slow_rate=1.0, slow_multiplier=8.0), seed=0
        )
        query = noisy_copy(descs, 8.0, seed=2)
        assert slow.search(query).elapsed_us == pytest.approx(
            8.0 * fast.search(query).elapsed_us
        )

    def test_heartbeat_discovers_injected_crash(self):
        node = SearchNode("n0", CFG)
        injector = FaultInjector(seed=0)
        node.fault_injector = injector
        assert node.heartbeat()["state"] == "up"
        injector.crash("n0")
        beat = node.heartbeat()  # no live traffic needed
        assert beat["state"] == "down"
        assert node.health.state is NodeHealth.DOWN


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.9)

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_us=100.0, backoff_multiplier=2.0)
        assert [policy.backoff_for(i) for i in range(3)] == [100.0, 200.0, 400.0]

    def test_transient_faults_are_retried_to_success(self):
        injector = FaultInjector(FaultSpec(transient_rate=0.4), seed=11)
        system, descs = build_cluster(
            3, 6, injector=injector,
            retry_policy=RetryPolicy(max_attempts=8, backoff_us=500.0),
            # lenient policy: flaky-but-alive nodes must not be declared
            # dead while the retry loop is still willing to try them
            health_policy=HealthPolicy(degraded_after=1, down_after=8),
        )
        query = noisy_copy(descs[4], 8.0, seed=3)
        total_retries = 0
        for _ in range(6):
            result = system.search(query)
            assert result.best().reference_id == "r4"
            assert not result.partial
            total_retries += result.retries
        assert total_retries > 0
        assert injector.injected["transient"] == total_retries

    def test_slow_faults_move_the_clock_not_the_answer(self):
        injector = FaultInjector(FaultSpec(slow_rate=0.2, slow_multiplier=4.0), seed=0)
        system, descs = build_cluster(
            4, 16, injector=injector, retry_policy=RetryPolicy(max_attempts=4, backoff_us=500.0),
        )
        query = noisy_copy(descs[7], 8.0, seed=3)
        for _ in range(6):
            result = system.search(query)
            assert result.best().reference_id == "r7"
            assert not result.partial
        assert injector.injected["slow"] > 0

    def test_timeout_skips_chronically_slow_node(self):
        system, descs = build_cluster(2, 4)
        query = noisy_copy(descs[0], 8.0, seed=5)
        baseline = system.search(query).elapsed_us - WEB_TIER_OVERHEAD_US  # the slowest node
        injector = FaultInjector(FaultSpec(slow_rate=1.0, slow_multiplier=16.0), seed=0)
        system2, descs2 = build_cluster(
            2, 4, injector=injector,
            retry_policy=RetryPolicy(max_attempts=2, timeout_us=baseline * 2),
            auto_failover=False,
        )
        result = system2.search(noisy_copy(descs2[0], 8.0, seed=5))
        # every node hit the timeout on every attempt: nothing searched
        assert result.partial
        assert sorted(result.unsearched_shards) == ["gpu-00", "gpu-01"]
        assert result.images_searched == 0
        # time charged: per attempt the timeout budget, plus one backoff
        expected = 2 * baseline * 2 + RetryPolicy().backoff_us
        assert result.elapsed_us == pytest.approx(expected + 2000.0)
        assert all(n.health.state is not NodeHealth.UP for n in system2.nodes)


class TestPartialResultsAndFailover:
    def test_crash_yields_partial_then_failover_heals(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(4, 8, injector=injector)
        query = noisy_copy(descs[1], 8.0, seed=7)
        baseline = system.search(query)
        assert not baseline.partial

        injector.crash("gpu-01")
        degraded = system.search(query)
        assert degraded.partial
        assert degraded.unsearched_shards == ("gpu-01",)
        assert degraded.images_searched == 6
        # auto-failover already decommissioned the dead container
        assert [n.node_id for n in system.nodes] == ["gpu-00", "gpu-02", "gpu-03"]

        healed = system.search(query)
        assert not healed.partial
        assert healed.images_searched == 8
        assert healed.best().reference_id == baseline.best().reference_id == "r1"

    def test_min_shard_fraction_floor(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(
            2, 4, injector=injector, min_shard_fraction=1.0, auto_failover=False
        )
        injector.crash("gpu-00")
        with pytest.raises(DegradedClusterError):
            system.search(noisy_copy(descs[0], 8.0, seed=5))

    def test_lost_blob_degrades_failover(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(3, 6, injector=injector)
        victims = [ref for ref, owner in system._placement.items() if owner == "gpu-01"]
        injector.lose_blob(f"feature:{victims[0]}")
        injector.crash("gpu-01")
        system.search(noisy_copy(descs[0], 8.0, seed=5))  # triggers failover
        # the re-hydratable reference moved; the lost one was dropped
        assert not system.has(victims[0])
        assert all(system.has(ref) for ref in victims[1:])
        assert system.n_references == 5
        healed = system.search(noisy_copy(descs[0], 8.0, seed=5))
        assert not healed.partial
        assert healed.images_searched == 5

    def test_search_many_partial_under_crash(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(3, 6, injector=injector, auto_failover=False)
        injector.crash("gpu-02")
        queries = [noisy_copy(descs[0], 8.0, seed=8), noisy_copy(descs[1], 8.0, seed=9)]
        grouped = system.search_group(queries).answers
        for res in grouped:
            assert res.partial
            assert res.unsearched_shards == ("gpu-02",)
            assert res.images_searched == 4
        assert grouped[0].best().reference_id == "r0"
        assert grouped[1].best().reference_id == "r1"


class TestHealthApi:
    def test_rest_health_route(self):
        injector = FaultInjector(seed=0)
        system, _descs = build_cluster(2, 4, injector=injector, auto_failover=False)
        tier = WebTier(system)
        response = tier.health()
        assert response.status == 200 and response.body["status"] == "up"

        injector.crash("gpu-00")
        system.heartbeats()  # monitor sweep discovers the crash
        response = tier.health()
        assert response.status == 200 and response.body["status"] == "degraded"
        states = {b["node_id"]: b["state"] for b in response.body["nodes"]}
        assert states == {"gpu-00": "down", "gpu-01": "up"}

        injector.crash("gpu-01")
        system.heartbeats()
        response = tier.health()
        assert response.status == 503 and response.body["status"] == "down"

    def test_search_route_reports_partial(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(3, 6, injector=injector)
        tier = WebTier(system)
        injector.crash("gpu-01")
        record = tier.handle(
            Request(
                "POST", "/search",
                {"descriptors": noisy_copy(descs[0], 8.0, seed=5).tolist()},
            )
        )
        assert record.response.status == 200
        assert record.response.body["partial"] is True
        assert record.response.body["unsearched_shards"] == ["gpu-01"]

    def test_search_route_degraded_is_503(self):
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(
            2, 4, injector=injector, min_shard_fraction=1.0, auto_failover=False
        )
        tier = WebTier(system)
        injector.crash("gpu-00")
        record = tier.handle(
            Request(
                "POST", "/search",
                {"descriptors": noisy_copy(descs[0], 8.0, seed=5).tolist()},
            )
        )
        assert record.response.status == 503
        assert "min_shard_fraction" in record.response.body["error"]


def run_chaos_scenario(seed):
    """The acceptance scenario: a 14-container cluster loses 3 nodes
    mid-workload.  Returns a structured outcome for replay comparison."""
    injector = FaultInjector(FaultSpec(transient_rate=0.05), seed=seed)
    system, descs = build_cluster(
        14, 28, injector=injector,
        retry_policy=RetryPolicy(max_attempts=4, backoff_us=500.0),
        min_shard_fraction=0.5,
    )
    queries = {i: noisy_copy(descs[i], 8.0, seed=100 + i) for i in (3, 11, 19)}
    baseline = {i: system.search(q).best().reference_id for i, q in queries.items()}

    injector.crash("gpu-02", "gpu-06", "gpu-11")
    outcomes = []
    for i, query in queries.items():
        result = system.search(query)
        outcomes.append(
            {
                "query": i,
                "partial": result.partial,
                "unsearched": sorted(result.unsearched_shards),
                "images": result.images_searched,
                "best": result.best().reference_id,
                "retries": result.retries,
            }
        )
    after = {i: system.search(q) for i, q in queries.items()}
    return {
        "baseline": baseline,
        "outcomes": outcomes,
        "healed": {
            i: (r.partial, r.images_searched, r.best().reference_id)
            for i, r in after.items()
        },
        "nodes": [n.node_id for n in system.nodes],
        "references": system.n_references,
        "injected": dict(system.fault_injector.injected),
    }


@pytest.mark.chaos
class TestChaos:
    def test_three_of_fourteen_crash_mid_workload(self):
        """Acceptance: crashes leave searches partial but successful, at
        least min_shard_fraction of shards searched; failover + KV
        re-hydration restore full, baseline-identical answers."""
        outcome = run_chaos_scenario(seed=2024)
        first = outcome["outcomes"][0]
        assert first["partial"]
        assert first["unsearched"] == ["gpu-02", "gpu-06", "gpu-11"]
        # 11 of 14 shards (2 refs each) answered: >= the 0.5 floor
        assert first["images"] == 22
        for later in outcome["outcomes"][1:]:
            # failover after the first search healed the cluster
            assert not later["partial"]
            assert later["images"] == 28
        for entry, (i, baseline_best) in zip(
            outcome["outcomes"], outcome["baseline"].items()
        ):
            assert entry["best"] == baseline_best == f"r{i}"
        # full reference set back, spread over the 11 survivors
        assert outcome["references"] == 28
        assert len(outcome["nodes"]) == 11
        healed = outcome["healed"]
        assert all(not partial for partial, _, _ in healed.values())
        assert all(images == 28 for _, images, _ in healed.values())
        assert {best for _, _, best in healed.values()} == {"r3", "r11", "r19"}


@pytest.mark.chaos
class TestDeterminism:
    def test_chaos_scenario_replays_identically(self):
        """The deterministic-seed check: the whole chaos scenario, run
        twice, produces identical outcomes — flakiness cannot creep in."""
        assert run_chaos_scenario(seed=7) == run_chaos_scenario(seed=7)

    def test_different_seeds_diverge(self):
        a = run_chaos_scenario(seed=1)["injected"]
        b = run_chaos_scenario(seed=2)["injected"]
        assert a != b  # transient draws differ seed to seed
