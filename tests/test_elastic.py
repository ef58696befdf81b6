"""Replica groups, graceful lifecycle, the autoscaler control loop,
alert-sink isolation, and the elastic workload generators."""

import json

import pytest

from repro.core import EngineConfig
from repro.distributed import (
    Autoscaler,
    AutoscalerPolicy,
    DistributedSearchSystem,
    FaultInjector,
    Request,
    WebTier,
)
from repro.distributed.replica import (
    DRAIN_GRACE_US,
    WARMUP_BASE_US,
    WARMUP_US_PER_REF,
    ReplicaState,
)
from repro.errors import ClusterError, NodeDownError
from repro.obs import (
    CRITICAL,
    BurnRateRule,
    MetricsRegistry,
    SloEngine,
    SloPolicy,
    TimeSeriesRecorder,
)
from repro.obs.slo import AlertEvent
from repro.serving import diurnal_arrivals, flash_crowd_arrivals
from tests.conftest import make_descriptors, noisy_copy

pytestmark = pytest.mark.elastic

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)

BOUNDS = (10.0, 50.0, 100.0, 500.0, 1000.0)


def build_system(n_shards=2, replication=1, n_refs=6, injector=None, seed=70):
    refs = {f"r{i}": make_descriptors(32, seed=seed + i) for i in range(n_refs)}
    system = DistributedSearchSystem(
        n_shards, CFG, replication_factor=replication, fault_injector=injector
    )
    for ref_id in sorted(refs):
        system.add(ref_id, refs[ref_id])
    return system, refs


class TestReplicaGroups:
    def test_r1_topology_matches_pre_replica(self):
        system, refs = build_system(replication=1)
        assert len(system.groups) == 2
        for shard_id, group in system.groups.items():
            assert len(group) == 1
            assert group.primary.node_id == shard_id
        result = system.search(noisy_copy(refs["r3"], 8.0, seed=3))
        assert result.best().reference_id == "r3"
        assert not result.partial

    def test_replicas_serve_same_answer(self):
        solo, refs = build_system(replication=1)
        replicated, _ = build_system(replication=3)
        for group in replicated.groups.values():
            assert len(group) == 3
        query = noisy_copy(refs["r2"], 8.0, seed=5)
        a = solo.search(query)
        b = replicated.search(query)
        assert a.best().reference_id == b.best().reference_id == "r2"
        assert a.corpus_epoch == b.corpus_epoch

    def test_readers_rotate_deterministically(self):
        system, _ = build_system(replication=3)
        group = next(iter(system.groups.values()))
        first = [n.node_id for n in group.readers()]
        second = [n.node_id for n in group.readers()]
        third = [n.node_id for n in group.readers()]
        # one rotation step per call, full failover chain each time
        assert sorted(first) == sorted(second) == sorted(third)
        assert second == first[1:] + first[:1]
        assert third == second[1:] + second[:1]

    def test_mutations_propagate_to_all_replicas(self):
        system, _ = build_system(replication=2)
        shard = system.add("fresh", make_descriptors(32, seed=200))
        group = system.groups[shard]
        for node in group.nodes:
            assert node.has("fresh")
            assert node.epoch == group.epoch
        system.remove("fresh")
        for node in group.nodes:
            assert not node.has("fresh")
            assert node.epoch == group.epoch

    def test_sibling_absorbs_crashed_replica(self):
        injector = FaultInjector(seed=11)
        system, refs = build_system(replication=2, injector=injector)
        retries0 = system.obs.registry.value("repro_cluster_replica_retries_total")
        shard_id = sorted(system.groups)[0]
        victim = system.groups[shard_id].nodes[1]
        injector.crash(victim.node_id)
        queries = [noisy_copy(refs[f"r{i}"], 8.0, seed=20 + i) for i in range(4)]
        for _ in range(4):  # rotation lands reads on the corpse too
            grouped = system.search_group(queries)
            assert all(not r.partial for r in grouped.answers)
            assert all(not r.unsearched_shards for r in grouped.answers)
        retries = system.obs.registry.value("repro_cluster_replica_retries_total")
        assert retries > retries0

    def test_last_replica_cannot_be_removed(self):
        system, _ = build_system(replication=1)
        shard_id = sorted(system.groups)[0]
        with pytest.raises(ClusterError):
            system.remove_replica(shard_id)


class TestReplicaLifecycle:
    def _with_clock(self, **kwargs):
        system, refs = build_system(**kwargs)
        recorder = TimeSeriesRecorder(system.obs.registry, interval_us=1_000.0, retention=256)
        system.obs.recorder = recorder
        return system, refs, recorder

    def test_warmup_readiness_gate(self):
        system, _, recorder = self._with_clock(replication=1)
        shard_id = sorted(system.groups)[0]
        group = system.groups[shard_id]
        n_refs = group.primary.n_references
        fresh = system.add_replica(shard_id)
        assert fresh.replica_state is ReplicaState.WARMING
        # cache already hydrated from the KV store, but not ready
        assert fresh.n_references == n_refs
        assert fresh.node_id not in [n.node_id for n in group.readers(recorder.now_us)]
        recorder.advance_by(WARMUP_BASE_US + WARMUP_US_PER_REF * n_refs + 1.0)
        system.poll_lifecycle()
        assert fresh.replica_state is ReplicaState.SERVING
        seen = set()
        for _ in range(len(group)):
            seen.add(group.readers(recorder.now_us)[0].node_id)
        assert fresh.node_id in seen

    def test_warming_replica_observes_mutations(self):
        system, _, recorder = self._with_clock(replication=1)
        shard_id = sorted(system.groups)[0]
        group = system.groups[shard_id]
        fresh = system.add_replica(shard_id)
        # enroll lands on the warming replica too: it must be
        # consistent the moment it becomes ready
        ref = next(
            f"w{i}" for i in range(64)
            if system.placement.peek(f"w{i}") == shard_id
        )
        system.add(ref, make_descriptors(32, seed=300))
        assert fresh.has(ref)
        assert fresh.epoch == group.epoch
        recorder.advance_by(WARMUP_BASE_US + WARMUP_US_PER_REF * 64)
        system.poll_lifecycle()
        assert fresh.replica_state is ReplicaState.SERVING

    def test_drain_grace_then_detach(self):
        system, _, recorder = self._with_clock(replication=2)
        shard_id = sorted(system.groups)[0]
        group = system.groups[shard_id]
        recorder.advance_by(5_000.0)
        victim = system.remove_replica(shard_id)
        assert victim.replica_state is ReplicaState.DRAINING
        # no new reads while draining, but still attached
        assert victim.node_id not in [
            n.node_id for n in group.readers(recorder.now_us)
        ]
        assert system.poll_lifecycle() == []
        assert group.get(victim.node_id) is victim
        recorder.advance_by(DRAIN_GRACE_US + 1.0)
        assert victim.node_id in system.poll_lifecycle()
        assert group.get(victim.node_id) is None
        assert system.node_seconds() > 0.0


class TestEnrollGate:
    def test_enroll_gates_full_replica_set(self):
        injector = FaultInjector(seed=13)
        system, _ = build_system(replication=2, injector=injector)
        shard_id = sorted(system.groups)[0]
        sibling = system.groups[shard_id].nodes[1]
        injector.crash(sibling.node_id)
        ref = next(
            f"g{i}" for i in range(64)
            if system.placement.peek(f"g{i}") == shard_id
        )
        # the primary is healthy, but the enrollment must land on every
        # active replica — a crashed sibling fails it up front
        with pytest.raises(NodeDownError):
            system.enroll(ref, make_descriptors(32, seed=400))
        assert not system.has(ref)
        assert system.get_record_bytes(ref) is None
        injector.revive(sibling.node_id)
        sibling.health.revive()  # the operator brings it back
        ack = system.enroll(ref, make_descriptors(32, seed=400))
        assert ack.node_id == shard_id
        for node in system.groups[shard_id].nodes:
            assert node.has(ref)


@pytest.mark.chaos
class TestChaosReplicaDelete:
    def _scenario(self, seed):
        """Crash one replica, delete a reference while it is down,
        revive it: the tombstone must win everywhere, and the stale
        replica must never resurrect the reference on any sibling."""
        injector = FaultInjector(seed=seed)
        system, refs = build_system(replication=2, injector=injector)
        doomed = "r0"
        shard_id = system._placement[doomed]
        group = system.groups[shard_id]
        victim = group.nodes[1]
        injector.crash(victim.node_id)
        ack = system.delete(doomed)
        assert ack.deleted
        # the survivor applied the delete; the corpse missed it and is
        # now permanently behind the group's epoch
        assert not group.nodes[0].has(doomed)
        assert victim.has(doomed)
        # reads under load rotate onto the corpse, fail over to the
        # sibling (never a partial result), and drive its health DOWN
        hits = []
        for i in range(4):
            result = system.search(noisy_copy(refs["r1"], 8.0, seed=9 + i))
            assert not result.partial
            best = result.best()
            hits.append(best.reference_id if best else None)
        system.repair()
        assert group.get(victim.node_id) is None  # detached, not trusted
        # revival after the detach must not resurrect anything: the
        # node is out of the topology, and a *fresh* replica re-warms
        # from the KV store where the tombstone already won
        injector.revive(victim.node_id)
        system.add_replica(shard_id)
        assert all(n.epoch == group.epoch for n in group.nodes)
        assert not any(n.has(doomed) for n in group.nodes)
        for i in range(4):  # rotate reads across every sibling
            result = system.search(noisy_copy(refs[doomed], 8.0, seed=40 + i))
            best = result.best()
            hits.append(best.reference_id if best else None)
        assert doomed not in hits
        return {
            "shard": shard_id,
            "victim": victim.node_id,
            "epoch": group.epoch,
            "replicas": sorted(n.node_id for n in group.nodes),
            "hits": hits,
        }

    def test_tombstone_never_resurrects_and_replays(self):
        first = self._scenario(seed=21)
        second = self._scenario(seed=21)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestAutoscaler:
    def _policy(self, **overrides):
        defaults = dict(
            target_queue_depth=4.0,
            band=0.25,
            window_us=4_000.0,
            max_replicas_per_shard=2,
            cooldown_out_us=3_000.0,
            cooldown_in_us=6_000.0,
            critical_boost_cooldown_us=0.0,
        )
        defaults.update(overrides)
        return AutoscalerPolicy(**defaults)

    def _rig(self, **overrides):
        system, _ = build_system(replication=1)
        recorder = TimeSeriesRecorder(system.obs.registry, interval_us=1_000.0, retention=256)
        system.obs.recorder = recorder
        scaler = Autoscaler(system, self._policy(**overrides))
        scaler.attach(recorder)
        # the serving loop's gauge, driven by hand here
        depth = system.obs.registry.gauge("repro_serving_queue_depth", "queue depth")
        return system, recorder, scaler, depth

    def test_scale_out_cooldown_and_cap(self):
        system, recorder, scaler, depth = self._rig()
        depth.set(40.0)  # 20 per serving replica, target 4
        recorder.advance_to(1_000.0)
        assert [e.action for e in scaler.events] == ["scale_out"]
        assert all(len(g) == 2 for g in system.groups.values())
        # inside the cooldown the fleet holds even under pressure
        recorder.advance_to(2_000.0)
        assert len(scaler.events) == 1
        # at the cap further scale-outs are structural no-ops
        recorder.advance_to(5_000.0)
        assert len(scaler.events) == 1
        assert all(len(g) == 2 for g in system.groups.values())

    def test_scale_in_after_cooldown_respects_floor(self):
        system, recorder, scaler, depth = self._rig()
        depth.set(40.0)
        recorder.advance_to(1_000.0)
        assert all(len(g.active()) == 2 for g in system.groups.values())
        depth.set(0.0)
        for t in range(2, 20):
            recorder.advance_to(t * 1_000.0)
        assert "scale_in" in [e.action for e in scaler.events]
        system.poll_lifecycle()
        assert all(len(g) == 1 for g in system.groups.values())
        # never below one replica per shard no matter how idle
        assert [e.action for e in scaler.events].count("scale_in") == 1

    def test_scale_in_vetoed_while_shedding(self):
        system, recorder, scaler, depth = self._rig()
        shed = system.obs.registry.counter("repro_serving_shed_total", "shed", ("reason",))
        depth.set(40.0)
        recorder.advance_to(1_000.0)
        depth.set(0.0)
        for t in range(2, 20):
            # goodput share collapses inside the window
            shed.labels(reason="queue-full").inc(5.0)
            recorder.advance_to(t * 1_000.0)
        assert [e.action for e in scaler.events] == ["scale_out"]
        assert all(len(g.active()) == 2 for g in system.groups.values())

    def test_critical_alert_bypasses_cooldown(self):
        system, recorder, scaler, depth = self._rig(
            max_replicas_per_shard=3
        )
        depth.set(40.0)
        recorder.advance_to(1_000.0)
        assert len(scaler.events) == 1
        # still deep inside the scale-out cooldown: a CRITICAL page
        # overrides it at the next sample
        scaler.on_alert(AlertEvent(
            t_us=1_500.0, policy="latency", state=CRITICAL,
            previous="warning", burn_fast=9.0, burn_slow=4.0,
        ))
        recorder.advance_to(2_000.0)
        actions = [(e.action, e.reason) for e in scaler.events]
        assert actions == [
            ("scale_out", "queue-depth"),
            ("scale_out", "critical-alert"),
        ]

    def test_decisions_are_deterministic(self):
        def drive():
            system, recorder, scaler, depth = self._rig()
            for t in range(1, 15):
                depth.set(40.0 if t < 7 else 0.0)
                recorder.advance_to(t * 1_000.0)
            return [e.to_dict() for e in scaler.events]

        first = drive()
        second = drive()
        assert first and first == second

    def test_stats_and_rest_surface(self):
        system, recorder, scaler, depth = self._rig()
        block = system.stats()["elastic"]
        assert block["autoscaler"]["enabled"] is True
        assert block["replicas_total"] == 2
        assert set(block["replication"]) == set(system.groups)
        tier = WebTier(system, n_workers=1)
        response = tier.elastic()
        assert response.ok
        assert response.body["autoscaler"]["enabled"] is True
        assert response.body["shards_total"] == 2
        # the route is also reachable as a plain GET
        raw = tier.handle(Request("GET", "/elastic")).response
        assert raw.ok and raw.body["replication"] == response.body["replication"]


class TestSinkIsolation:
    def _critical_engine(self, reg):
        policy = SloPolicy(
            name="lat", kind="latency", objective=0.9,
            metric="lat_us", threshold_us=100.0,
            critical=BurnRateRule(1_000.0, 2_000.0, 3.0),
            warning=BurnRateRule(1_000.0, 2_000.0, 1.0),
            min_events=1,
        )
        return SloEngine([policy], registry=reg)

    def test_hostile_sink_cannot_starve_siblings(self):
        reg = MetricsRegistry()
        recorder = TimeSeriesRecorder(reg, interval_us=1_000.0, retention=64)
        h = reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._critical_engine(reg)

        def hostile(event):
            raise RuntimeError("boom")

        seen = []
        engine.add_sink(hostile)
        engine.add_sink(seen.append)
        engine.attach(recorder)
        for t in range(1, 4):
            for _ in range(5):
                h.observe(900.0)
            recorder.advance_to(t * 1_000.0)
        # the state machine committed, the well-behaved sink saw every
        # transition, and the failures are counted — not raised
        assert engine.state_of("lat") == CRITICAL
        assert seen and seen[-1].state == CRITICAL
        assert len(seen) == len(engine.log.events)
        assert reg.value("repro_slo_sink_errors_total") == float(
            len(engine.log.events)
        )


class TestWorkloadGenerators:
    def test_diurnal_is_seed_deterministic(self):
        kwargs = dict(
            duration_us=200_000.0, trough_rate_per_s=200.0,
            peak_rate_per_s=2_000.0, period_us=200_000.0,
        )
        a = diurnal_arrivals(seed=7, **kwargs)
        b = diurnal_arrivals(seed=7, **kwargs)
        c = diurnal_arrivals(seed=8, **kwargs)
        assert a == b
        assert a != c
        assert a == sorted(a)
        assert all(0.0 <= t < 200_000.0 for t in a)

    def test_diurnal_crests_mid_period(self):
        arrivals = diurnal_arrivals(
            duration_us=400_000.0, trough_rate_per_s=100.0,
            peak_rate_per_s=4_000.0, period_us=400_000.0, seed=3,
        )
        quarter = [t for t in arrivals if t < 100_000.0]
        crest = [t for t in arrivals if 150_000.0 <= t < 250_000.0]
        assert len(crest) > 2 * len(quarter)

    def test_flash_crowd_spike_density(self):
        arrivals = flash_crowd_arrivals(
            duration_us=300_000.0, base_rate_per_s=200.0,
            spike_rate_per_s=4_000.0, spike_start_us=100_000.0,
            spike_width_us=100_000.0, seed=5,
        )
        before = [t for t in arrivals if t < 100_000.0]
        inside = [t for t in arrivals if 100_000.0 <= t < 200_000.0]
        assert len(inside) > 5 * len(before)
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(
                duration_us=-1.0, trough_rate_per_s=1.0,
                peak_rate_per_s=2.0, period_us=1.0,
            )
        with pytest.raises(ValueError):
            diurnal_arrivals(
                duration_us=1.0, trough_rate_per_s=1.0,
                peak_rate_per_s=2.0, period_us=0.0,
            )
        with pytest.raises(ValueError):
            diurnal_arrivals(
                duration_us=1.0, trough_rate_per_s=5.0,
                peak_rate_per_s=2.0, period_us=1.0,
            )  # trough above peak
        with pytest.raises(ValueError):
            flash_crowd_arrivals(
                duration_us=1.0, base_rate_per_s=1.0,
                spike_rate_per_s=0.5, spike_start_us=0.0,
                spike_width_us=1.0,
            )  # spike below base
        with pytest.raises(ValueError):
            flash_crowd_arrivals(
                duration_us=1.0, base_rate_per_s=1.0,
                spike_rate_per_s=2.0, spike_start_us=-1.0,
                spike_width_us=1.0,
            )
        # zero-duration traces are legal and empty
        assert diurnal_arrivals(
            duration_us=0.0, trough_rate_per_s=1.0,
            peak_rate_per_s=2.0, period_us=1.0,
        ) == []
