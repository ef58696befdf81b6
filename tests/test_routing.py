"""Two-tier retrieval: candidate routers (IVF / LSH banding), engine
candidate restriction, routed scatter-gather, fault interplay, and the
REST-level routing knobs.

The invariants under test mirror ``docs/routing.md``:

* pruning is a *decision*, faults are *failures* — ``unrouted_shards``
  never sets ``partial`` and never mixes with ``unsearched_shards``;
* a router-less cluster (and a full-width probe) is bit-identical to
  the exhaustive scatter-gather;
* a nominated shard that is down/breaker-open degrades exactly like
  the exhaustive path (``partial=True`` + ``unsearched_shards``).
"""

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import (
    BreakerPolicy,
    DistributedSearchSystem,
    FaultInjector,
    Request,
    build_api,
)
from repro.obs import Observability
from repro.routing import (
    IvfCandidateRouter,
    LshCandidateRouter,
    RouteDecision,
    RouterPolicy,
    build_router,
    pool_descriptors,
)
from tests.conftest import make_descriptors, noisy_copy

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def corpus(n_refs, base=700):
    return {f"r{i}": make_descriptors(32, seed=base + i) for i in range(n_refs)}


def build_cluster(n_nodes, refs, *, policy=None, **kwargs):
    system = DistributedSearchSystem(
        n_nodes, CFG, router_policy=policy, **kwargs
    )
    for ref_id, desc in refs.items():
        system.add(ref_id, desc)
    return system


def fitted_router(refs, policy, shards=3, obs=None):
    router = build_router(policy, obs=obs)
    for i, (ref_id, desc) in enumerate(refs.items()):
        router.add(ref_id, desc, f"node-{i % shards}")
    router.fit()
    return router


def match_key(result):
    return sorted((m.reference_id, m.score, m.good_matches) for m in result.matches)


class TestPoolDescriptors:
    def test_unit_vector(self):
        pooled = pool_descriptors(make_descriptors(32))
        assert pooled.shape == (128,)
        assert pooled.dtype == np.float32
        assert np.linalg.norm(pooled) == pytest.approx(1.0, abs=1e-5)

    def test_noise_shrinks_under_pooling(self):
        desc = make_descriptors(64, seed=3)
        noisy = noisy_copy(desc, sigma=8.0)
        other = make_descriptors(64, seed=4)
        d_same = np.linalg.norm(pool_descriptors(desc) - pool_descriptors(noisy))
        d_other = np.linalg.norm(pool_descriptors(desc) - pool_descriptors(other))
        assert d_same < d_other

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pool_descriptors(np.zeros(128, dtype=np.float32))
        with pytest.raises(ValueError):
            pool_descriptors(np.zeros((128, 0), dtype=np.float32))


class TestRouterPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "faiss"},
        {"nprobe": 0},
        {"recall_target": 0.0},
        {"recall_target": 1.5},
        {"n_lists": 0},
        {"n_bits": 4},
        {"band_bits": 0},
        {"band_bits": 512},
        {"band_matches": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RouterPolicy(**kwargs)

    def test_build_router_dispatch(self):
        assert isinstance(build_router(RouterPolicy(kind="ivf")), IvfCandidateRouter)
        assert isinstance(build_router(RouterPolicy(kind="lsh")), LshCandidateRouter)


class TestRouteDecision:
    def test_merge_unions_by_best_rank(self):
        a = RouteDecision(
            candidate_ids=["x", "y"], shard_ids=["s0"],
            per_shard={"s0": ["x", "y"]}, nprobe_used=1,
        )
        b = RouteDecision(
            candidate_ids=["z", "x"], shard_ids=["s1", "s0"],
            per_shard={"s1": ["z"], "s0": ["x"]}, nprobe_used=2,
        )
        merged = RouteDecision.merge([a, b])
        assert not merged.exhaustive
        # x and z share best rank 0; x was seen first
        assert merged.candidate_ids == ["x", "z", "y"]
        assert merged.per_shard == {"s0": ["x", "y"], "s1": ["z"]}
        assert merged.shard_ids == ["s0", "s1"]
        assert merged.nprobe_used == 2

    def test_exhaustive_member_poisons_merge(self):
        ok = RouteDecision(candidate_ids=["x"], shard_ids=["s0"],
                           per_shard={"s0": ["x"]}, nprobe_used=1)
        merged = RouteDecision.merge([ok, RouteDecision(exhaustive=True, nprobe_used=3)])
        assert merged.exhaustive
        assert merged.candidate_ids == []

    def test_empty_merge_is_exhaustive(self):
        assert RouteDecision.merge([]).exhaustive


class TestRouterLifecycle:
    def test_empty_corpus_falls_back_exhaustive(self):
        obs = Observability()
        router = build_router(RouterPolicy(kind="ivf"), obs=obs)
        decision = router.nominate(make_descriptors(32))
        assert decision.exhaustive
        assert obs.registry.value(
            "repro_router_nominations_total", kind="ivf", outcome="exhaustive"
        ) == 1.0

    def test_mutations_rebuild_lazily(self):
        refs = corpus(6)
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=2))
        query = noisy_copy(refs["r0"], sigma=4.0)
        assert "r0" in router.nominate(query, nprobe=2).candidate_ids
        assert router.remove("r0")
        assert not router.remove("r0")
        assert "r0" not in router.nominate(query, nprobe=2).candidate_ids
        router.add("r0", refs["r0"], "node-9")
        decision = router.nominate(query, nprobe=2)
        assert "r0" in decision.candidate_ids
        assert "node-9" in decision.shard_ids

    def test_reassign_repoints_shard_only(self):
        refs = corpus(4)
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=1))
        router.reassign("r1", "node-7")
        decision = router.nominate(noisy_copy(refs["r1"], sigma=4.0))
        assert "r1" in decision.per_shard["node-7"]

    def test_resolve_nprobe_precedence(self):
        router = fitted_router(corpus(8), RouterPolicy(kind="ivf", n_lists=8, nprobe=2))
        assert router.resolve_nprobe() == 2
        assert router.resolve_nprobe(nprobe=5) == 5
        # explicit nprobe beats any recall target
        assert router.resolve_nprobe(nprobe=3, recall_target=1.0) == 3
        # uncalibrated target degrades to near-exhaustive probing
        assert router.resolve_nprobe(recall_target=1.0) == router.max_nprobe
        assert router.resolve_nprobe(recall_target=0.5) == 4
        router.set_calibration([(1, 0.90), (2, 0.97), (4, 1.0)])
        assert router.resolve_nprobe(recall_target=0.95) == 2
        assert router.resolve_nprobe(recall_target=0.90) == 1


class TestIvfRouter:
    def test_true_reference_ranked_first(self):
        refs = corpus(12)
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=4))
        for ref_id in ("r0", "r5", "r11"):
            decision = router.nominate(noisy_copy(refs[ref_id], sigma=8.0))
            assert decision.candidate_ids[0] == ref_id
            assert decision.nprobe_used == 1
            assert decision.n_candidates < len(refs)

    def test_nprobe_widens_monotonically(self):
        refs = corpus(16)
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=8))
        query = noisy_copy(refs["r3"], sigma=8.0)
        previous: set = set()
        for nprobe in (1, 2, 4, 8):
            now = set(router.nominate(query, nprobe=nprobe).candidate_ids)
            assert previous <= now
            previous = now
        assert previous == set(refs)  # full probe covers the corpus


class TestLshRouter:
    def test_true_reference_nominated(self):
        refs = corpus(12)
        router = fitted_router(refs, RouterPolicy(kind="lsh"))
        decision = router.nominate(noisy_copy(refs["r4"], sigma=8.0))
        assert decision.candidate_ids[0] == "r4"
        assert decision.n_candidates < len(refs)

    def test_nprobe_relaxes_threshold(self):
        refs = corpus(12)
        router = fitted_router(refs, RouterPolicy(kind="lsh", band_matches=4))
        query = noisy_copy(refs["r4"], sigma=8.0)
        sizes = [
            router.nominate(query, nprobe=nprobe).n_candidates
            for nprobe in (1, 2, 4)
        ]
        assert sizes == sorted(sizes)


class TestEngineCandidateRestriction:
    def build_engine(self, refs):
        engine = TextureSearchEngine(CFG)
        for ref_id, desc in refs.items():
            engine.add_reference(ref_id, desc)
        return engine

    def test_restriction_prunes_and_filters(self):
        refs = corpus(8)
        engine = self.build_engine(refs)
        query = noisy_copy(refs["r2"], sigma=8.0)
        result = engine.search(query, candidate_ids=frozenset({"r2"}))
        assert result.best().reference_id == "r2"
        assert {m.reference_id for m in result.matches} <= {"r2"}
        assert result.images_pruned > 0
        assert result.images_searched + result.images_pruned == len(refs)
        assert not result.partial  # pruning is not a fault

    def test_full_candidate_set_is_bit_identical(self):
        refs = corpus(8)
        engine = self.build_engine(refs)
        query = noisy_copy(refs["r5"], sigma=8.0)
        unrestricted = engine.search(query)
        restricted = engine.search(query, candidate_ids=frozenset(refs))
        assert restricted.images_pruned == 0
        assert match_key(restricted) == match_key(unrestricted)


class TestRoutedCluster:
    def test_routed_search_prunes_and_agrees(self):
        refs = corpus(24)
        policy = RouterPolicy(kind="ivf", n_lists=8)
        system = build_cluster(3, refs, policy=policy)
        query = noisy_copy(refs["r7"], sigma=8.0)
        result = system.search(query)
        assert result.routed
        assert result.best().reference_id == "r7"
        assert not result.partial
        assert result.unsearched_shards == ()
        assert result.images_searched + result.images_pruned <= len(refs)
        assert result.images_searched < len(refs)

    def test_router_off_bit_identical_to_full_probe(self):
        refs = corpus(24)
        exhaustive = build_cluster(3, refs)
        routed = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=8))
        for ref_id in ("r1", "r13"):
            query = noisy_copy(refs[ref_id], sigma=8.0)
            base = exhaustive.search(query)
            assert not base.routed and base.images_pruned == 0
            wide = routed.search(query, nprobe=8)
            assert wide.routed
            assert match_key(wide) == match_key(base)
            assert wide.images_searched == base.images_searched

    def test_group_search_unions_nominations(self):
        refs = corpus(24)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=8))
        queries = [noisy_copy(refs[r], sigma=8.0) for r in ("r2", "r9", "r17")]
        group = system.search_group(queries)
        assert group.routed
        assert not group.partial
        for query_result, expected in zip(group.answers, ("r2", "r9", "r17")):
            assert query_result.best().reference_id == expected
        assert group.images_pruned > 0

    def test_cluster_mutations_keep_router_in_sync(self):
        refs = corpus(12)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=4))
        system.build_router()
        assert system.router.n_images == len(refs)
        system.add("extra", make_descriptors(32, seed=990))
        assert system.router.n_images == len(refs) + 1
        assert system.remove("r0")
        assert system.router.n_images == len(refs)
        result = system.search(noisy_copy(refs["r3"], sigma=8.0))
        assert result.best().reference_id == "r3"

    def test_stats_routing_block(self):
        refs = corpus(12)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=4))
        system.search(noisy_copy(refs["r1"], sigma=8.0))
        stats = system.stats()
        assert stats["schema_version"] == 9
        routing = stats["routing"]
        assert routing["enabled"] is True
        assert routing["kind"] == "ivf"
        assert routing["nominations_routed_total"] == 1
        assert routing["images_pruned_total"] > 0

    def test_stats_without_router(self):
        system = build_cluster(2, corpus(4))
        assert system.stats()["routing"]["enabled"] is False


class TestRoutingUnderFaults:
    def test_nominated_down_shard_degrades_like_exhaustive(self):
        refs = corpus(18)
        injector = FaultInjector(seed=0)
        system = DistributedSearchSystem(
            3, CFG,
            router_policy=RouterPolicy(kind="ivf", n_lists=6),
            fault_injector=injector, auto_failover=False,
        )
        for ref_id, desc in refs.items():
            system.add(ref_id, desc)
        query = noisy_copy(refs["r5"], sigma=8.0)
        decision = system.build_router().nominate(query, nprobe=1)
        victim = decision.shard_ids[0]
        injector.crash(victim)
        result = system.search(query, nprobe=1)
        assert result.partial
        assert victim in result.unsearched_shards
        # routing metadata stays disjoint from fault metadata
        assert not set(result.unsearched_shards) & set(result.unrouted_shards)
        assert victim not in result.unrouted_shards

    def test_breaker_open_nominated_shard_reported_unsearched(self):
        refs = corpus(18)
        system = DistributedSearchSystem(
            3, CFG,
            router_policy=RouterPolicy(kind="ivf", n_lists=6),
            breaker_policy=BreakerPolicy(window=4, min_samples=2, failure_rate=0.5),
            auto_failover=False,
        )
        for ref_id, desc in refs.items():
            system.add(ref_id, desc)
        query = noisy_copy(refs["r5"], sigma=8.0)
        victim = system.build_router().nominate(query, nprobe=1).shard_ids[0]
        breaker = next(n for n in system.nodes if n.node_id == victim).breaker
        breaker.record_failure()
        breaker.record_failure()
        result = system.search(query, nprobe=1)
        assert result.partial
        assert victim in result.unsearched_shards

    def test_chaos_routed_replay_is_deterministic(self):
        refs = corpus(18)

        def scenario():
            from repro.distributed import FaultSpec

            system = DistributedSearchSystem(
                3, CFG,
                router_policy=RouterPolicy(kind="ivf", n_lists=6),
                fault_injector=FaultInjector(
                    FaultSpec(transient_rate=0.2, slow_rate=0.2), seed=7
                ),
                auto_failover=False,
            )
            for ref_id, desc in refs.items():
                system.add(ref_id, desc)
            outcomes = []
            for i in (2, 9, 15):
                result = system.search(noisy_copy(refs[f"r{i}"], sigma=8.0))
                outcomes.append((
                    match_key(result), result.partial,
                    tuple(result.unsearched_shards),
                    tuple(result.unrouted_shards),
                    result.images_searched, result.images_pruned,
                ))
                assert not set(result.unsearched_shards) & set(result.unrouted_shards)
            return outcomes

        assert scenario() == scenario()


def _refreshes(obs, kind, mode):
    return obs.registry.value(
        "repro_router_refresh_total", kind=kind, mode=mode
    )


@pytest.mark.enrollment
class TestIncrementalRefresh:
    def test_ivf_absorb_appends_without_rebuild(self):
        refs = corpus(12)
        obs = Observability()
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=4), obs=obs)
        rebuilds0 = _refreshes(obs, "ivf", "rebuild")
        incr0 = _refreshes(obs, "ivf", "incremental")
        extra = make_descriptors(32, seed=991)
        router.add("extra", extra, "node-1")
        decision = router.nominate(noisy_copy(extra, sigma=4.0), nprobe=2)
        assert "extra" in decision.candidate_ids
        assert _refreshes(obs, "ivf", "rebuild") == rebuilds0
        assert _refreshes(obs, "ivf", "incremental") == incr0 + 1

    def test_ivf_retract_removes_without_rebuild(self):
        refs = corpus(12)
        obs = Observability()
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=4), obs=obs)
        rebuilds0 = _refreshes(obs, "ivf", "rebuild")
        assert router.remove("r3")
        decision = router.nominate(noisy_copy(refs["r3"], sigma=4.0), nprobe=4)
        assert "r3" not in decision.candidate_ids
        assert _refreshes(obs, "ivf", "rebuild") == rebuilds0

    def test_lsh_absorb_and_masked_retract(self):
        refs = corpus(12)
        obs = Observability()
        router = fitted_router(refs, RouterPolicy(kind="lsh"), obs=obs)
        rebuilds0 = _refreshes(obs, "lsh", "rebuild")
        extra = make_descriptors(32, seed=992)
        router.add("extra", extra, "node-0")
        assert "extra" in router.nominate(
            noisy_copy(extra, sigma=4.0), nprobe=4
        ).candidate_ids
        assert router.remove("extra")
        assert "extra" not in router.nominate(
            noisy_copy(extra, sigma=4.0), nprobe=4
        ).candidate_ids
        assert _refreshes(obs, "lsh", "rebuild") == rebuilds0

    def test_lsh_compacts_when_mostly_dead(self):
        refs = corpus(10)
        obs = Observability()
        router = fitted_router(refs, RouterPolicy(kind="lsh"), obs=obs)
        rebuilds0 = _refreshes(obs, "lsh", "rebuild")
        for i in range(6):  # kill the majority: compaction triggers
            router.remove(f"r{i}")
        survivor = refs["r8"]
        decision = router.nominate(noisy_copy(survivor, sigma=4.0), nprobe=4)
        assert "r8" in decision.candidate_ids
        assert _refreshes(obs, "lsh", "rebuild") == rebuilds0 + 1

    def test_update_in_place_retracts_then_absorbs(self):
        refs = corpus(8)
        obs = Observability()
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=2), obs=obs)
        replacement = make_descriptors(32, seed=993)
        router.add("r2", replacement, "node-5")
        decision = router.nominate(noisy_copy(replacement, sigma=4.0), nprobe=2)
        assert "r2" in decision.candidate_ids
        assert decision.candidate_ids.count("r2") == 1
        assert "node-5" in decision.per_shard
        assert router.n_images == len(refs)


@pytest.mark.enrollment
class TestRouteDecisionEpochs:
    def test_nominate_tags_current_epoch(self):
        refs = corpus(8)
        router = fitted_router(refs, RouterPolicy(kind="ivf", n_lists=2))
        epoch0 = router.epoch
        assert epoch0 == len(refs)
        d0 = router.nominate(noisy_copy(refs["r0"], sigma=4.0))
        assert d0.corpus_epoch == epoch0
        router.add("extra", make_descriptors(32, seed=994), "node-0")
        d1 = router.nominate(noisy_copy(refs["r0"], sigma=4.0))
        assert d1.corpus_epoch == epoch0 + 1

    def test_merge_carries_max_epoch(self):
        a = RouteDecision(candidate_ids=["x"], shard_ids=["s0"],
                          per_shard={"s0": ["x"]}, nprobe_used=1, corpus_epoch=3)
        b = RouteDecision(candidate_ids=["y"], shard_ids=["s1"],
                          per_shard={"s1": ["y"]}, nprobe_used=1, corpus_epoch=7)
        assert RouteDecision.merge([a, b]).corpus_epoch == 7

    def test_exhaustive_fallback_still_tagged(self):
        router = build_router(RouterPolicy(kind="ivf"))
        router.add("only", make_descriptors(32, seed=995), "node-0")
        router.remove("only")
        decision = router.nominate(make_descriptors(32, seed=996))
        assert decision.exhaustive
        assert decision.corpus_epoch == 2


@pytest.mark.enrollment
class TestClusterRouterSync:
    def test_enroll_then_route_finds_new_reference(self):
        refs = corpus(18)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=6))
        system.build_router()
        desc = make_descriptors(32, seed=997)
        ack = system.enroll("fresh", desc)
        result = system.search(noisy_copy(desc, sigma=4.0), nprobe=2)
        assert result.routed
        assert result.best().reference_id == "fresh"
        assert result.corpus_epoch[ack.node_id] >= ack.epoch

    def test_delete_then_route_never_nominates(self):
        refs = corpus(18)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=6))
        system.build_router()
        system.delete("r4")
        result = system.search(noisy_copy(refs["r4"], sigma=4.0), nprobe=6)
        assert "r4" not in {m.reference_id for m in result.matches}
        assert system.router.n_images == len(refs) - 1

    def test_failover_keeps_router_consistent(self):
        refs = corpus(18)
        system = build_cluster(3, refs, policy=RouterPolicy(kind="ivf", n_lists=6))
        system.build_router()
        victim = system.nodes[0].node_id
        system.remove_node(victim)
        assert system.router.n_images == len(refs)
        for ref_id in ("r2", "r11"):
            result = system.search(noisy_copy(refs[ref_id], sigma=8.0), nprobe=3)
            assert result.best().reference_id == ref_id
            assert victim not in result.corpus_epoch


class TestRestRoutingKnobs:
    def build_api(self, refs, policy):
        system = build_cluster(3, refs, policy=policy)
        return build_api(system), system

    def test_nprobe_knob_narrows_the_sweep(self):
        refs = corpus(24)
        api, _ = self.build_api(refs, RouterPolicy(kind="ivf", n_lists=8))
        body = {"descriptors": noisy_copy(refs["r7"], sigma=8.0).tolist()}
        narrow = api.handle(Request("POST", "/search", {**body, "nprobe": 1}))
        wide = api.handle(Request("POST", "/search", {**body, "nprobe": 8}))
        assert narrow.ok and wide.ok
        assert narrow.body["routed"] is True
        assert narrow.body["results"][0]["id"] == "r7"
        assert narrow.body["images_searched"] < wide.body["images_searched"]
        assert narrow.body["images_pruned"] > 0
        assert narrow.body["partial"] is False

    def test_recall_target_degrades_to_near_exhaustive_uncalibrated(self):
        refs = corpus(24)
        api, _ = self.build_api(refs, RouterPolicy(kind="ivf", n_lists=8))
        body = {
            "descriptors": noisy_copy(refs["r7"], sigma=8.0).tolist(),
            "recall_target": 1.0,
        }
        response = api.handle(Request("POST", "/search", body))
        assert response.ok
        assert response.body["images_pruned"] == 0  # full probe, safe fallback

    def test_batch_carries_routing_metadata(self):
        refs = corpus(24)
        api, _ = self.build_api(refs, RouterPolicy(kind="ivf", n_lists=8))
        body = {
            "queries": [noisy_copy(refs[r], sigma=8.0).tolist() for r in ("r2", "r9")],
            "nprobe": 2,
        }
        response = api.handle(Request("POST", "/search/batch", body))
        assert response.ok
        assert response.body["routed"] is True
        assert all("images_pruned" in q for q in response.body["queries"])

    @pytest.mark.parametrize("body_extra,fragment", [
        ({"nprobe": 0}, "nprobe"),
        ({"nprobe": "many"}, "nprobe"),
        ({"recall_target": 0.0}, "recall_target"),
        ({"recall_target": 2.0}, "recall_target"),
        ({"recall_target": "high"}, "recall_target"),
    ])
    def test_bad_knobs_rejected(self, body_extra, fragment):
        refs = corpus(6)
        api, _ = self.build_api(refs, RouterPolicy(kind="ivf", n_lists=2))
        body = {"descriptors": refs["r0"].tolist(), **body_extra}
        response = api.handle(Request("POST", "/search", body))
        assert response.status == 400
        assert fragment in response.body["error"]
