"""Online enrollment: the epoched-corpus mutation path.

The invariants under test mirror ``docs/enrollment.md``:

* every corpus mutation advances the owning shard's monotonic index
  epoch, durably recorded in the KV store (``EpochRegistry``);
* acks give read-your-writes — a search issued after an
  ``EnrollmentAck`` reports ``corpus_epoch[node] >= ack.epoch`` on
  every healthy shard and returns the enrolled reference;
* deletes tombstone before they drop the blob, so no replayer
  (failover re-hydration, warm restore) can ever resurrect them;
* a crashed target shard fails the enrollment *before* anything is
  persisted — retries after repair/failover are clean.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import (
    DeletionAck,
    DistributedSearchSystem,
    EnrollmentAck,
    EpochRegistry,
    FaultInjector,
    KVStore,
    Request,
    TombstoneLog,
    WebTier,
    build_api,
)
from repro.errors import NodeDownError, TransientNodeError
from repro.routing import RouterPolicy
from repro.serving import MixedClusterExecutor
from tests.conftest import make_descriptors, noisy_copy

pytestmark = pytest.mark.enrollment

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def corpus(n_refs, base=500):
    return {f"r{i}": make_descriptors(32, seed=base + i) for i in range(n_refs)}


def build_cluster(n_nodes, refs, **kwargs):
    system = DistributedSearchSystem(n_nodes, CFG, **kwargs)
    for ref_id, desc in refs.items():
        system.add(ref_id, desc)
    return system


class TestEpochRegistry:
    def test_unknown_shard_is_epoch_zero(self):
        assert EpochRegistry(KVStore()).get("gpu-00") == 0

    def test_record_max_merges(self):
        registry = EpochRegistry(KVStore())
        assert registry.record("gpu-00", 5) == 5
        # replaying an older ack can never regress the mark
        assert registry.record("gpu-00", 3) == 5
        assert registry.get("gpu-00") == 5

    def test_survives_registry_reconstruction(self):
        store = KVStore()
        EpochRegistry(store).record("gpu-01", 9)
        assert EpochRegistry(store).get("gpu-01") == 9

    def test_forget_and_snapshot(self):
        registry = EpochRegistry(KVStore())
        registry.record("gpu-01", 2)
        registry.record("gpu-00", 7)
        assert registry.snapshot() == {"gpu-00": 7, "gpu-01": 2}
        registry.forget("gpu-01")
        assert registry.snapshot() == {"gpu-00": 7}


class TestTombstoneLog:
    def test_mark_contains_get(self):
        log = TombstoneLog(KVStore())
        assert not log.contains("x")
        log.mark("x", "gpu-02", 4)
        assert log.contains("x")
        assert log.get("x") == ("gpu-02", 4)
        assert log.ref_ids() == ["x"]
        assert len(log) == 1

    def test_clear(self):
        log = TombstoneLog(KVStore())
        log.mark("x", "gpu-00", 1)
        assert log.clear("x") is True
        assert not log.contains("x")
        assert log.clear("x") is False

    def test_unknown_get_is_none(self):
        assert TombstoneLog(KVStore()).get("ghost") is None


class TestClusterEnroll:
    def test_enroll_ack_and_epoch_advance(self):
        system = build_cluster(2, corpus(4))
        desc = make_descriptors(32, seed=900)
        ack = system.enroll("fresh", desc)
        assert isinstance(ack, EnrollmentAck)
        assert not ack.updated
        assert ack.epoch > 0
        assert system.has("fresh")
        owner = next(n for n in system.nodes if n.node_id == ack.node_id)
        assert ack.epoch == owner.epoch == system.epochs.get(ack.node_id)

    def test_reenroll_is_update(self):
        system = build_cluster(2, corpus(4))
        desc = make_descriptors(32, seed=901)
        first = system.enroll("fresh", desc)
        second = system.enroll("fresh", noisy_copy(desc, sigma=2.0))
        assert second.updated
        assert second.node_id == first.node_id  # placement is sticky
        assert second.epoch > first.epoch

    def test_read_your_writes_plain_cluster(self):
        system = build_cluster(3, corpus(9))
        desc = make_descriptors(32, seed=902)
        ack = system.enroll("fresh", desc)
        result = system.search(noisy_copy(desc, sigma=4.0))
        assert result.best().reference_id == "fresh"
        assert result.corpus_epoch[ack.node_id] >= ack.epoch

    def test_read_your_writes_search_group(self):
        refs = corpus(9)
        system = build_cluster(3, refs)
        desc = make_descriptors(32, seed=903)
        ack = system.enroll("fresh", desc)
        group = system.search_group(
            [noisy_copy(desc, sigma=4.0), noisy_copy(refs["r1"], sigma=4.0)]
        )
        assert group.answers[0].best().reference_id == "fresh"
        assert group.corpus_epoch[ack.node_id] >= ack.epoch
        for result in group.answers:
            assert result.corpus_epoch[ack.node_id] >= ack.epoch

    def test_delete_ack_and_idempotence(self):
        system = build_cluster(2, corpus(4))
        ack = system.delete("r1")
        assert isinstance(ack, DeletionAck)
        assert ack.deleted
        assert not system.has("r1")
        assert system.tombstones.contains("r1")
        again = system.delete("r1")
        assert not again.deleted  # idempotent: tombstone stays, no error
        assert system.tombstones.contains("r1")

    def test_delete_unknown_id_still_tombstones(self):
        system = build_cluster(2, corpus(2))
        ack = system.delete("never-enrolled")
        assert not ack.deleted
        assert system.tombstones.contains("never-enrolled")

    def test_reenroll_after_delete_clears_tombstone(self):
        system = build_cluster(2, corpus(4))
        system.delete("r1")
        desc = make_descriptors(32, seed=904)
        ack = system.enroll("r1", desc)
        assert not ack.updated  # the old record is gone: fresh enrollment
        assert not system.tombstones.contains("r1")
        result = system.search(noisy_copy(desc, sigma=4.0))
        assert result.best().reference_id == "r1"

    def test_epochs_seed_from_registry_on_rebuild(self):
        store = KVStore()
        system = build_cluster(2, corpus(4), store=store)
        system.enroll("fresh", make_descriptors(32, seed=905))
        marks = system.epochs.snapshot()
        rebuilt = DistributedSearchSystem(2, CFG, store=store)
        for node in rebuilt.nodes:
            assert node.epoch == marks.get(node.node_id, 0)


class TestDeleteNeverResurrects:
    def test_hydration_skips_tombstoned_blob(self):
        # the racing-delete shape: the tombstone landed but the stale
        # feature blob is still in the store
        system = build_cluster(1, corpus(3))
        system.tombstones.mark("r0", "gpu-00", 99)
        keys = [f"feature:r{i}" for i in range(3)]
        fresh = DistributedSearchSystem(1, CFG, store=system.store)
        loaded = fresh.nodes[0].hydrate_from_store(system.store, keys)
        assert loaded == 2
        assert not fresh.nodes[0].has("r0")

    def test_warm_restore_replays_to_latest_epoch(self):
        refs = corpus(4)
        system = build_cluster(1, refs)
        node = system.nodes[0]
        node.snapshot_to_store(system.store)
        system.delete("r2")  # deleted AFTER the snapshot was taken
        restored = DistributedSearchSystem(1, CFG, store=system.store)
        restored.nodes[0].restore_from_store(system.store, "snapshot:gpu-00:")
        assert not restored.nodes[0].has("r2")
        assert restored.nodes[0].has("r0")

    def test_failover_rehydration_drops_tombstoned(self):
        refs = corpus(8)
        system = build_cluster(2, refs)
        victim = system.nodes[0].node_id
        orphan = next(r for r, o in system._placement.items() if o == victim)
        # partial delete: tombstone written, then the victim died before
        # the blob was dropped
        system.tombstones.mark(orphan, victim, 99)
        system.remove_node(victim)
        assert not any(node.has(orphan) for node in system.nodes)
        assert not system.store.hget("placement", orphan)
        for ref_id, desc in refs.items():
            if ref_id == orphan:
                continue
            assert system.search(noisy_copy(desc, sigma=4.0)).best() is not None
        # the dead shard's epoch mark retired with it
        assert victim not in system.epochs.snapshot()

    def test_delete_then_failover_stays_deleted(self):
        refs = corpus(8)
        system = build_cluster(2, refs)
        system.delete("r3")
        owner_of_rest = system.nodes[0].node_id
        system.remove_node(owner_of_rest)
        assert not system.has("r3")
        for result_ref in ("r0", "r7"):
            result = system.search(noisy_copy(refs[result_ref], sigma=4.0))
            assert "r3" not in {m.reference_id for m in result.matches}


@pytest.mark.chaos
class TestEnrollmentChaos:
    def test_crashed_shard_fails_enroll_without_mutating(self):
        injector = FaultInjector(seed=0)
        system = build_cluster(
            2, corpus(4), fault_injector=injector, auto_failover=False
        )
        target = system.placement.peek("doomed")
        injector.crash(target)
        with pytest.raises(NodeDownError):
            system.enroll("doomed", make_descriptors(32, seed=906))
        # gate-before-mutate: no blob, no placement, no tombstone
        assert not system.has("doomed")
        assert system.store.get("feature:doomed") is None
        assert system.store.hget("placement", "doomed") is None

    def test_enroll_retries_cleanly_after_failover(self):
        injector = FaultInjector(seed=0)
        system = build_cluster(
            3, corpus(9), fault_injector=injector, auto_failover=False
        )
        desc = make_descriptors(32, seed=907)
        victim = system.placement.peek("fresh")
        injector.crash(victim)
        with pytest.raises(NodeDownError):
            system.enroll("fresh", desc)
        system.remove_node(victim)  # operator failover: re-home the shard
        ack = system.enroll("fresh", desc)
        assert ack.node_id != victim
        result = system.search(noisy_copy(desc, sigma=4.0))
        assert result.best().reference_id == "fresh"
        assert result.corpus_epoch[ack.node_id] >= ack.epoch

    def test_enrollment_racing_failure_replays_deterministically(self):
        def scenario():
            from repro.distributed import FaultSpec

            injector = FaultInjector(FaultSpec(transient_rate=0.3), seed=11)
            system = build_cluster(
                3, corpus(9), fault_injector=injector, auto_failover=False
            )
            outcomes = []
            for i in range(6):
                desc = make_descriptors(32, seed=920 + i)
                try:
                    ack = system.enroll(f"n{i}", desc)
                    result = system.search(noisy_copy(desc, sigma=4.0))
                    best = result.best()
                    outcomes.append((
                        "ok", ack.node_id, ack.epoch,
                        best.reference_id if best else None,
                        result.corpus_epoch.get(ack.node_id, -1) >= ack.epoch,
                    ))
                except TransientNodeError:
                    outcomes.append(("transient", system.has(f"n{i}")))
            outcomes.append(tuple(sorted(system.epochs.snapshot().items())))
            return outcomes

        first, second = scenario(), scenario()
        assert first == second
        # failed enrollments left nothing behind
        for outcome in first:
            if outcome[0] == "transient":
                assert outcome[1] is False
        # read-your-writes held on every successful enrollment
        assert all(o[4] for o in first if o[0] == "ok")


class TestRestAndWebTier:
    def test_post_enroll_and_epoch_roundtrip(self):
        refs = corpus(6)
        system = build_cluster(2, refs)
        api = build_api(system)
        desc = make_descriptors(32, seed=908)
        response = api.handle(
            Request("POST", "/enroll", {"id": "fresh", "descriptors": desc.tolist()})
        )
        assert response.status == 201
        assert response.body["updated"] is False
        epoch = response.body["epoch"]
        node = response.body["node"]
        search = api.handle(
            Request("POST", "/search",
                    {"descriptors": noisy_copy(desc, sigma=4.0).tolist()})
        )
        assert search.ok
        assert search.body["results"][0]["id"] == "fresh"
        assert search.body["corpus_epoch"][node] >= epoch

    def test_post_enroll_update_returns_200(self):
        system = build_cluster(2, corpus(4))
        api = build_api(system)
        desc = make_descriptors(32, seed=909)
        api.handle(Request("POST", "/enroll", {"id": "x", "descriptors": desc.tolist()}))
        response = api.handle(
            Request("POST", "/enroll", {"id": "x", "descriptors": desc.tolist()})
        )
        assert response.status == 200
        assert response.body["updated"] is True

    def test_post_enroll_crashed_shard_is_503(self):
        injector = FaultInjector(seed=0)
        system = build_cluster(
            2, corpus(4), fault_injector=injector, auto_failover=False
        )
        api = build_api(system)
        target = system.placement.peek("doomed")
        injector.crash(target)
        response = api.handle(
            Request("POST", "/enroll",
                    {"id": "doomed",
                     "descriptors": make_descriptors(32, seed=910).tolist()})
        )
        assert response.status == 503
        assert "enrollment unavailable" in response.body["error"]
        assert not system.has("doomed")

    def test_delete_reference_idempotent(self):
        system = build_cluster(2, corpus(4))
        api = build_api(system)
        first = api.handle(Request("DELETE", "/reference/r1"))
        assert first.status == 200 and first.body["deleted"] is True
        second = api.handle(Request("DELETE", "/reference/r1"))
        assert second.status == 200 and second.body["deleted"] is False
        assert system.tombstones.contains("r1")

    def test_webtier_enroll_and_delete(self):
        system = build_cluster(2, corpus(4))
        tier = WebTier(system, n_workers=2)
        desc = make_descriptors(32, seed=911)
        response = tier.enroll("fresh", desc)
        assert response.status == 201
        assert response.body["epoch"] >= 1
        assert system.has("fresh")
        gone = tier.delete_reference("fresh")
        assert gone.status == 200 and gone.body["deleted"] is True
        assert not system.has("fresh")

    def test_stats_enrollment_block(self):
        system = build_cluster(2, corpus(4))
        system.enroll("fresh", make_descriptors(32, seed=912))
        system.delete("r0")
        stats = system.stats()
        assert stats["schema_version"] == 9
        block = stats["enrollment"]
        assert block["enrolls_total"] == 1
        assert block["deletes_total"] == 1
        assert block["tombstones_live"] == 1
        assert block["epochs"] == system.epochs.snapshot()


class TestMixedClusterExecutor:
    def test_payload_order_and_ack_types(self):
        refs = corpus(6)
        system = build_cluster(2, refs)
        executor = MixedClusterExecutor(system)
        desc = make_descriptors(32, seed=913)
        payloads, elapsed = executor.execute([
            noisy_copy(refs["r1"], sigma=4.0),
            ("enroll", "fresh", desc),
            noisy_copy(refs["r2"], sigma=4.0),
            ("delete", "r5"),
        ])
        assert isinstance(payloads[1], EnrollmentAck)
        assert isinstance(payloads[3], DeletionAck)
        assert payloads[0].best().reference_id == "r1"
        assert payloads[2].best().reference_id == "r2"
        assert elapsed > 0.0

    def test_group_local_read_your_writes(self):
        # a mutation admitted before a search in the SAME group is
        # already visible to it
        refs = corpus(6)
        system = build_cluster(2, refs)
        executor = MixedClusterExecutor(system)
        desc = make_descriptors(32, seed=914)
        payloads, _ = executor.execute([
            ("enroll", "fresh", desc),
            noisy_copy(desc, sigma=4.0),
        ])
        ack, result = payloads
        assert result.best().reference_id == "fresh"
        assert result.corpus_epoch[ack.node_id] >= ack.epoch

    def test_mutation_only_group_charges_enroll_cost(self):
        system = build_cluster(2, corpus(4))
        executor = MixedClusterExecutor(system)
        payloads, elapsed = executor.execute([
            ("enroll", "a", make_descriptors(32, seed=915)),
            ("delete", "r0"),
        ])
        assert len(payloads) == 2
        assert elapsed == 2 * MixedClusterExecutor.ENROLL_COST_US

    def test_mutations_overlap_the_sweep(self):
        # host-side mutations hide under the GPU sweep: a mixed group
        # costs max(mutation time, search time), not the sum
        refs = corpus(6)
        system = build_cluster(2, refs)
        executor = MixedClusterExecutor(system)
        _, search_only = executor.execute([noisy_copy(refs["r1"], sigma=4.0)])
        _, mixed = executor.execute([
            ("enroll", "fresh", make_descriptors(32, seed=916)),
            noisy_copy(refs["r1"], sigma=4.0),
        ])
        assert mixed >= MixedClusterExecutor.ENROLL_COST_US
        # the sweep dominates: no additive 300us on top of it
        assert mixed < search_only + MixedClusterExecutor.ENROLL_COST_US


class TestEngineUnderMutation:
    def build_engine(self, refs):
        engine = TextureSearchEngine(CFG)
        for ref_id, desc in refs.items():
            engine.add_reference(ref_id, desc)
        return engine

    def test_all_dead_sealed_batch_is_purged_from_cache(self):
        refs = corpus(4)  # batch_size=2 -> two sealed batches
        engine = self.build_engine(refs)
        assert len(engine.cache) == 2
        assert engine.remove_reference("r0")
        assert engine.remove_reference("r1")
        # both slots of batch 0 are dead: the batch leaves the cache
        # entirely instead of being swept as pure tombstones
        assert len(engine.cache) == 1
        result = engine.search(noisy_copy(refs["r2"], sigma=4.0))
        assert result.best().reference_id == "r2"

    def test_all_dead_pending_batch_never_cached(self):
        engine = self.build_engine(corpus(2))
        engine.add_reference("pending", make_descriptors(32, seed=917))
        assert engine.remove_reference("pending")
        engine.flush()  # sealing a fully-dead pending batch is a no-op
        assert len(engine.cache) == 1
        assert engine.n_references == 2

    def test_sweep_tolerates_growth_between_batches(self):
        refs = corpus(4)
        engine = self.build_engine(refs)
        # start iterating the cache, then grow it mid-stream: the
        # sweep's snapshot neither errors nor yields the newcomer
        iterator = engine.cache.batches()
        first = next(iterator)
        for i in range(2):
            engine.add_reference(f"late{i}", make_descriptors(32, seed=918 + i))
        seen = [first] + list(iterator)
        assert len(seen) == 2
        result = engine.search(noisy_copy(refs["r3"], sigma=4.0))
        assert result.best().reference_id == "r3"
        assert result.images_searched == engine.n_references


class TestTombstoneGauge:
    """``/stats`` ``enrollment.tombstones_live`` counts the tombstones a
    mix of mutations leaves, and no mutation scans the store: a scan per
    mutation made enrolment cost grow with the corpus."""

    def test_enrolments_never_scan_the_store(self, monkeypatch):
        system = build_cluster(2, corpus(4))
        system.delete("r1")
        scans = []
        real = KVStore.keys
        monkeypatch.setattr(
            KVStore, "keys", lambda store, *a: (scans.append(a), real(store, *a))[1])
        for i in range(20):
            system.enroll(f"n{i}", make_descriptors(32, seed=900 + i))
        system.enroll("r1", make_descriptors(32, seed=501))  # clears the tombstone
        system.delete("r2")
        system.enroll("r2", make_descriptors(32, seed=502))
        assert scans == []
        assert system.stats()["enrollment"]["tombstones_live"] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["mark", "clear", "enroll", "delete"]),
                              st.integers(0, 5)), max_size=25))
    def test_the_gauge_is_the_count_after_any_mix(self, ops):
        store = KVStore()
        TombstoneLog(store).mark("old", "", 0)  # a tombstone the cluster inherits
        system = DistributedSearchSystem(2, CFG, store=store)
        log, live = system.tombstones, {"old"}
        for op, i in ops:
            ref_id = f"r{i}"
            if op == "mark":
                log.mark(ref_id, "gpu-00", i)
            elif op == "clear":
                log.clear(ref_id)
            elif op == "enroll":
                system.enroll(ref_id, make_descriptors(32, seed=600 + i))
            else:
                system.delete(ref_id)
            # a delete tombstones the id even if it was never enrolled; an enrolment clears it
            (live.add if op in ("mark", "delete") else live.discard)(ref_id)
        assert sorted(log.ref_ids()) == sorted(live)
        assert system.stats()["enrollment"]["tombstones_live"] == len(live)
