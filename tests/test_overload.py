"""Overload protection: bounded admission queues and shed policies,
request deadlines end to end (serving -> web -> cluster -> engine),
per-node circuit breakers, token-bucket rate limiting and brownout.

Everything runs on simulated clocks and hashed draws, so every
scenario — including the ones layered on seeded fault injection — is
deterministic and replays bit-identically.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import (
    AdmissionPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    DistributedSearchSystem,
    FaultInjector,
    FaultSpec,
    HealthPolicy,
    Request,
    RetryPolicy,
    TokenBucket,
    WebTier,
)
from repro.errors import ExecutorContractError, ServingError
from repro.obs import (
    Deadline,
    DeadlineFanOut,
    Observability,
    brownout_scope,
    current_brownout,
    current_deadline,
    deadline_scope,
)
from repro.serving import (
    BatchPolicy,
    FusedEngineExecutor,
    Rejected,
    build_trace,
    simulate_serving,
)
from tests.conftest import make_descriptors, noisy_copy

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)

pytestmark = pytest.mark.overload


def build_engine(n_refs=8, seed=0):
    engine = TextureSearchEngine(CFG)
    descs = [make_descriptors(CFG.n, seed=seed + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        engine.add_reference(f"r{i}", desc)
    return engine, descs


def build_cluster(n_nodes, n_refs, **kwargs):
    system = DistributedSearchSystem(n_nodes, CFG, **kwargs)
    descs = [make_descriptors(CFG.n, seed=700 + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        system.add(f"r{i}", desc)
    return system, descs


class StubExecutor:
    """Fixed-cost executor: every group takes ``cost_us``."""

    def __init__(self, cost_us=1_000.0):
        self.cost_us = cost_us
        self.calls = []
        self.obs = Observability()

    def execute(self, queries):
        self.calls.append(list(queries))
        return [f"done:{q}" for q in queries], self.cost_us


# ----------------------------------------------------------------------
# request context: Deadline / DeadlineFanOut / brownout
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_deadline_budget_accounting(self):
        deadline = Deadline(budget_us=100.0)
        assert not deadline.expired
        deadline.charge(60.0)
        deadline.charge(-5.0)  # negative charges are ignored
        assert deadline.spent_us == pytest.approx(60.0)
        deadline.charge(40.0)
        assert deadline.expired

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            Deadline(budget_us=-1.0)

    def test_scope_sets_and_restores(self):
        assert current_deadline() is None
        with deadline_scope(50.0) as deadline:
            assert current_deadline() is deadline
            with deadline_scope(10.0) as inner:
                assert current_deadline() is inner
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_fanout_charges_only_the_slowest_branch(self):
        with deadline_scope(1_000.0) as deadline:
            deadline.charge(100.0)
            fan = DeadlineFanOut(deadline)
            for branch_cost in (50.0, 300.0, 120.0):
                with fan.branch():
                    # each branch starts from the fan-out's base spend
                    assert deadline.spent_us == pytest.approx(100.0)
                    deadline.charge(branch_cost)
            fan.join()
            # concurrent branches: only the slowest one is charged
            assert deadline.spent_us == pytest.approx(400.0)

    def test_fanout_expired_at_entry(self):
        deadline = Deadline(budget_us=10.0, spent_us=10.0)
        assert DeadlineFanOut(deadline).expired_at_entry
        assert not DeadlineFanOut(Deadline(budget_us=10.0)).expired_at_entry

    def test_fanout_none_deadline_is_noop(self):
        fan = DeadlineFanOut(None)
        assert not fan.expired_at_entry
        with fan.branch():
            pass
        fan.join()  # must not raise

    def test_brownout_scope(self):
        assert current_brownout() is None
        with brownout_scope(0.5):
            assert current_brownout() == 0.5
        assert current_brownout() is None
        with pytest.raises(ValueError):
            with brownout_scope(0.0):
                pass
        with pytest.raises(ValueError):
            with brownout_scope(1.5):
                pass


# ----------------------------------------------------------------------
# serving tier: bounded queue + shed policies + deadlines
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_queue_depth=-1)
        with pytest.raises(ValueError):
            BatchPolicy(shed="random")
        assert BatchPolicy(max_queue_depth=4, shed="drop-oldest").shed == "drop-oldest"

    def test_unbounded_queue_never_sheds(self):
        stub = StubExecutor()
        trace = build_trace([0.0] * 32, [f"q{i}" for i in range(32)])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=4))
        assert report.n_rejected == 0
        assert report.n_requests == 32

    def test_reject_new_bounces_excess_arrivals(self):
        stub = StubExecutor(cost_us=10_000.0)
        # 8 simultaneous arrivals, queue bounded at 4: the first group
        # of 4 is admitted, the rest bounce
        trace = build_trace([0.0] * 8, [f"q{i}" for i in range(8)])
        policy = BatchPolicy(max_batch=4, max_queue_depth=4, shed="reject-new")
        report = simulate_serving(stub, trace, policy)
        assert report.n_requests == 4
        assert report.n_rejected == 4
        assert report.n_offered == 8
        assert report.shed_rate == pytest.approx(0.5)
        assert all(isinstance(r, Rejected) for r in report.rejected)
        assert {r.reason for r in report.rejected} == {"reject-new"}
        # the *new* arrivals bounced: admitted ids are the oldest
        assert [r.request_id for r in report.records] == [0, 1, 2, 3]
        assert [r.request_id for r in report.rejected] == [4, 5, 6, 7]

    def test_drop_oldest_evicts_the_head(self):
        stub = StubExecutor(cost_us=10_000.0)
        trace = build_trace([0.0] * 8, [f"q{i}" for i in range(8)])
        policy = BatchPolicy(max_batch=4, max_queue_depth=4, shed="drop-oldest")
        report = simulate_serving(stub, trace, policy)
        assert report.n_rejected == 4
        assert {r.reason for r in report.rejected} == {"drop-oldest"}
        # the oldest were evicted to make room: the newest survive
        assert [r.request_id for r in report.records] == [4, 5, 6, 7]
        assert [r.request_id for r in report.rejected] == [0, 1, 2, 3]

    def test_retry_after_hint_covers_device_busy_time(self):
        stub = StubExecutor(cost_us=10_000.0)
        # one group executing [0, 10000); arrivals at t=5000 find the
        # bounded queue full and must be told to come back later
        arrivals = [0.0] * 4 + [5_000.0] * 2
        trace = build_trace(arrivals, [f"q{i}" for i in range(6)])
        policy = BatchPolicy(
            max_batch=4, max_wait_us=2_000.0, max_queue_depth=1, shed="reject-new"
        )
        report = simulate_serving(stub, trace, policy)
        late = [r for r in report.rejected if r.arrival_us == 5_000.0]
        assert late
        for rejection in late:
            # device frees at 10000 -> >= 5000 of busy time + wait budget
            assert rejection.retry_after_us >= 5_000.0
            assert rejection.shed_us == pytest.approx(5_000.0)

    def test_shed_counter_by_reason(self):
        stub = StubExecutor(cost_us=10_000.0)
        reg = stub.obs.registry
        before = reg.value("repro_serving_shed_total", reason="reject-new")
        trace = build_trace([0.0] * 6, [f"q{i}" for i in range(6)])
        policy = BatchPolicy(max_batch=2, max_queue_depth=2, shed="reject-new")
        simulate_serving(stub, trace, policy)
        after = reg.value("repro_serving_shed_total", reason="reject-new")
        assert after - before == 4

    def test_queue_depth_gauge_zero_after_drain(self):
        stub = StubExecutor()
        trace = build_trace([0.0] * 5, [f"q{i}" for i in range(5)])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=2))
        assert stub.obs.registry.value("repro_serving_queue_depth") == 0.0
        assert report.peak_queue_depth >= 1


class TestServingDeadlines:
    def test_build_trace_converts_relative_budget_to_absolute(self):
        trace = build_trace([0.0, 100.0], ["a", "b"], deadline_us=500.0)
        assert trace[0].deadline_us == 500.0
        assert trace[1].deadline_us == 600.0
        assert build_trace([0.0], ["a"])[0].deadline_us is None
        with pytest.raises(ValueError):
            build_trace([0.0], ["a"], deadline_us=0.0)

    def test_expired_requests_are_shed_not_dispatched(self):
        stub = StubExecutor(cost_us=10_000.0)
        # group 0 occupies the device for 10000us; the t=1 arrival's
        # 5000us deadline passes while it queues behind it
        trace = build_trace([0.0, 1.0], ["a", "b"], deadline_us=5_000.0)
        policy = BatchPolicy(max_batch=1)
        report = simulate_serving(stub, trace, policy)
        assert report.n_requests == 1
        assert report.n_rejected == 1
        rejection = report.rejected[0]
        assert rejection.reason == "deadline-expired"
        assert rejection.request_id == 1
        assert rejection.retry_after_us == 0.0
        assert len(stub.calls) == 1  # no device time spent on the dead one

    def test_goodput_counts_deadline_meeting_completions(self):
        stub = StubExecutor(cost_us=2_000.0)
        trace = build_trace([0.0, 0.0], ["a", "b"], deadline_us=3_000.0)
        # serial groups: first completes at 2000 (good), second at 4000
        # (dispatched in time, missed its deadline anyway)
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=1))
        assert report.n_requests == 2
        assert report.n_good == 1
        assert report.to_dict()["n_good"] == 1

    def test_group_executes_under_tightest_member_deadline(self):
        seen = []

        class Probe:
            def execute(self, queries):
                deadline = current_deadline()
                seen.append(None if deadline is None else deadline.budget_us)
                return list(queries), 10.0

        trace = [
            # ids follow submission order; both dispatch together at t=0
            *build_trace([0.0, 0.0], ["a", "b"]),
        ]
        trace[0] = trace[0].__class__(0, 0.0, "a", deadline_us=4_000.0)
        trace[1] = trace[1].__class__(1, 0.0, "b", deadline_us=9_000.0)
        simulate_serving(Probe(), trace, BatchPolicy(max_batch=2))
        assert seen == [4_000.0]

    def test_no_deadlines_means_no_scope(self):
        seen = []

        class Probe:
            def execute(self, queries):
                seen.append(current_deadline())
                return list(queries), 10.0

        simulate_serving(Probe(), build_trace([0.0], ["a"]), BatchPolicy())
        assert seen == [None]


# ----------------------------------------------------------------------
# engine: deadline-truncated sweeps
# ----------------------------------------------------------------------
class TestEngineDeadlines:
    def test_expired_deadline_skips_the_whole_sweep(self):
        engine, descs = build_engine()
        query = noisy_copy(descs[0], 8.0, seed=42)
        reg = engine.obs.registry
        before = reg.value("repro_engine_deadline_expired_total")
        with deadline_scope(10.0) as deadline:
            deadline.charge(10.0)  # already expired
            result = engine.search(query)
        assert result.partial
        assert result.images_searched == 0
        assert result.images_skipped == 8
        assert result.matches == []
        assert reg.value("repro_engine_deadline_expired_total") == before + 1

    def test_partial_prefix_is_bit_identical_to_full_search(self):
        engine, descs = build_engine()
        query = noisy_copy(descs[0], 8.0, seed=43)
        full = engine.search(query)
        # budget for roughly one cache batch: the scanned prefix must
        # match the full sweep's results exactly, match for match
        budget = full.elapsed_us / 3.0
        with deadline_scope(budget):
            partial = engine.search(query)
        assert partial.partial
        assert 0 < partial.images_searched < full.images_searched
        assert partial.images_skipped == full.images_searched - partial.images_searched
        full_by_id = {m.reference_id: m.good_matches for m in full.matches}
        for match in partial.matches:
            assert full_by_id[match.reference_id] == match.good_matches

    def test_generous_deadline_changes_nothing(self):
        engine, descs = build_engine()
        query = noisy_copy(descs[0], 8.0, seed=44)
        baseline = engine.search(query)
        with deadline_scope(baseline.elapsed_us * 100):
            result = engine.search(query)
        assert not result.partial
        assert result.images_skipped == 0
        assert result.images_searched == baseline.images_searched
        assert [m.reference_id for m in result.matches] == [
            m.reference_id for m in baseline.matches
        ]

    def test_verify_ignores_deadlines(self):
        engine, descs = build_engine()
        query = noisy_copy(descs[0], 8.0, seed=45)
        with deadline_scope(10.0) as deadline:
            deadline.charge(10.0)
            same, good = engine.verify(descs[0], query)  # 1:1 never sheds
        assert isinstance(same, bool) and good >= 0  # completed, no IndexError

    def test_group_sweep_truncates_too(self):
        engine, descs = build_engine()
        queries = [noisy_copy(descs[i], 8.0, seed=50 + i) for i in range(3)]
        with deadline_scope(1.0):
            group = engine.search_group(queries)
        assert group.partial
        assert group.images_skipped > 0
        for member in group.answers:
            assert member.partial


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(window=0)
        with pytest.raises(ValueError):
            BreakerPolicy(min_samples=11, window=10)
        with pytest.raises(ValueError):
            BreakerPolicy(failure_rate=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_ops=0)
        with pytest.raises(ValueError):
            BreakerPolicy(probe_successes=0)

    def test_opens_at_failure_rate(self):
        breaker = CircuitBreaker(
            BreakerPolicy(window=4, min_samples=4, failure_rate=0.5)
        )
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # 1/3 < 0.5
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN  # 2/4 >= 0.5

    def test_open_skips_then_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(
            BreakerPolicy(window=4, min_samples=2, failure_rate=0.5,
                          cooldown_ops=3, probe_successes=2)
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert not breaker.allow()  # third skip completes the cooldown
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe flows
        assert breaker.total_skips == 3

    def test_probe_successes_close_probe_failure_reopens(self):
        policy = BreakerPolicy(window=4, min_samples=2, failure_rate=0.5,
                               cooldown_ops=1, probe_successes=2)
        breaker = CircuitBreaker(policy)
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()  # cooldown of 1 -> half-open
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN  # 1 of 2 probes
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failure_fraction == 0.0  # window cleared

        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()  # failed probe: straight back to open
        assert breaker.state is BreakerState.OPEN

    def test_deterministic_replay(self):
        def drive(breaker):
            states = []
            outcomes = [False, False, True, False, False, True, True, True]
            for ok in outcomes:
                breaker.allow()
                (breaker.record_success if ok else breaker.record_failure)()
                states.append(breaker.state.value)
            return states

        policy = BreakerPolicy(window=4, min_samples=2, failure_rate=0.5,
                               cooldown_ops=1, probe_successes=2)
        assert drive(CircuitBreaker(policy)) == drive(CircuitBreaker(policy))

    def test_snapshot_shape(self):
        breaker = CircuitBreaker()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["window"] == 1
        assert set(snap["transitions"]) == {"closed", "open", "half-open"}


class TestClusterBreaker:
    def _flaky_cluster(self):
        system, descs = build_cluster(
            3, 6,
            retry_policy=RetryPolicy(max_attempts=1),
            health_policy=HealthPolicy(degraded_after=2, down_after=100),
            breaker_policy=BreakerPolicy(
                window=4, min_samples=2, failure_rate=0.5,
                cooldown_ops=2, probe_successes=1,
            ),
            auto_failover=False,
        )
        # one node is always-transient: its breaker must open
        system.nodes[0].fault_injector = FaultInjector(
            FaultSpec(transient_rate=1.0), seed=1
        )
        return system, descs

    def test_breaker_opens_and_sheds_attempts(self):
        system, descs = self._flaky_cluster()
        sick = system.nodes[0]
        query = noisy_copy(descs[0], 8.0, seed=60)
        reg = system.obs.registry
        before = reg.value("repro_cluster_breaker_skipped_total")
        for _ in range(2):  # two failures open the breaker
            system.search(query)
        assert sick.breaker.state is BreakerState.OPEN
        result = system.search(query)  # skipped without an attempt
        assert sick.node_id in result.unsearched_shards
        assert result.partial
        assert reg.value("repro_cluster_breaker_skipped_total") == before + 1
        assert sick.breaker.total_skips == 1

    def test_breaker_recovers_through_half_open(self):
        system, descs = self._flaky_cluster()
        sick = system.nodes[0]
        query = noisy_copy(descs[0], 8.0, seed=61)
        for _ in range(2):
            system.search(query)
        assert sick.breaker.state is BreakerState.OPEN
        sick.fault_injector = None  # the node heals
        for _ in range(2):  # cooldown_ops=2 skipped operations
            system.search(query)
        assert sick.breaker.state is BreakerState.HALF_OPEN
        result = system.search(query)  # the probe goes through and works
        assert sick.breaker.state is BreakerState.CLOSED
        assert sick.node_id in result.corpus_epoch

    def test_breaker_chaos_is_deterministic(self):
        def run():
            system, descs = self._flaky_cluster()
            query = noisy_copy(descs[0], 8.0, seed=62)
            outcomes = []
            for _ in range(8):
                result = system.search(query)
                outcomes.append(
                    (sorted(result.unsearched_shards), result.retries,
                     system.nodes[0].breaker.state.value)
                )
            return outcomes

        assert run() == run()

    def test_breaker_disabled_by_default(self):
        system, _ = build_cluster(2, 2)
        assert all(node.breaker is None for node in system.nodes)
        assert system.nodes[0].stats()["breaker"] == "disabled"

    def test_breaker_state_in_heartbeat_and_stats(self):
        system, _ = build_cluster(2, 2, breaker_policy=BreakerPolicy())
        beat = system.nodes[0].heartbeat()
        assert beat["breaker"] == "closed"
        assert system.nodes[0].stats()["breaker"] == "closed"
        assert system.add_node().breaker is not None  # policy is inherited


# ----------------------------------------------------------------------
# retry jitter
# ----------------------------------------------------------------------
class TestRetryJitter:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)

    def test_zero_jitter_is_bit_identical_to_legacy_schedule(self):
        policy = RetryPolicy(backoff_us=1_000.0, backoff_multiplier=2.0)
        for retry in range(6):
            expected = 1_000.0 * 2.0**retry
            assert policy.backoff_for(retry) == expected
            # the key must be completely inert at jitter 0
            assert policy.backoff_for(retry, key="gpu-03") == expected

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(
            backoff_us=1_000.0, backoff_multiplier=2.0,
            jitter_fraction=0.5, jitter_seed=7,
        )
        for retry in range(4):
            base = 1_000.0 * 2.0**retry
            wait = policy.backoff_for(retry, key="gpu-00")
            assert base * 0.5 <= wait <= base
            assert wait == policy.backoff_for(retry, key="gpu-00")  # replays

    def test_jitter_decorrelates_nodes_and_seeds(self):
        policy = RetryPolicy(jitter_fraction=1.0, jitter_seed=0)
        waits = {policy.backoff_for(0, key=f"gpu-{i:02d}") for i in range(8)}
        assert len(waits) == 8  # distinct nodes draw distinct waits
        other = RetryPolicy(jitter_fraction=1.0, jitter_seed=1)
        assert other.backoff_for(0, key="gpu-00") != policy.backoff_for(0, key="gpu-00")


# ----------------------------------------------------------------------
# token bucket + web-tier admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 4)
        with pytest.raises(ValueError):
            TokenBucket(10.0, 0)
        with pytest.raises(ValueError):
            AdmissionPolicy(rate_per_s=-1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(burst=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(brownout_tokens=1.5)
        with pytest.raises(ValueError):
            AdmissionPolicy(brownout_shard_fraction=0.0)

    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=2)
        assert bucket.fraction == 1.0
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # empty
        assert bucket.retry_after_us(0.0) == pytest.approx(1e6)

    def test_refills_on_simulated_time(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(200_000.0)  # 0.2 s = 2 tokens at 10/s
        # never overfills past burst
        bucket2 = TokenBucket(rate_per_s=1_000.0, burst=2)
        bucket2.try_take(0.0)
        assert bucket2.fraction <= 1.0

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=4)
        bucket.try_take(100_000.0)
        tokens_before = bucket.fraction
        bucket.try_take(0.0)  # out-of-order clock must not refill
        assert bucket.fraction <= tokens_before


class TestWebTierAdmission:
    def _tier(self, admission, n_refs=4, workers=1, **cluster_kwargs):
        system, descs = build_cluster(2, n_refs, **cluster_kwargs)
        tier = WebTier(system, n_workers=workers, admission=admission)
        return tier, descs

    def test_rate_limit_sheds_with_retry_hint(self):
        tier, descs = self._tier(AdmissionPolicy(rate_per_s=1.0, burst=2))
        query = noisy_copy(descs[0], 8.0, seed=70).tolist()
        reg = tier.system.obs.registry
        before = reg.value("repro_web_rate_limited_total")
        records = [
            tier.handle(Request("POST", "/search", {"descriptors": query}))
            for _ in range(4)
        ]
        statuses = [r.response.status for r in records]
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 1
        shed = next(r for r in records if r.response.status == 429)
        assert shed.response.body["retry_after_us"] > 0
        # a 429 is cheap: it must not pay the search handling cost
        assert shed.latency_us < 500.0
        assert reg.value("repro_web_rate_limited_total") > before

    def test_non_search_routes_bypass_the_bucket(self):
        tier, _ = self._tier(AdmissionPolicy(rate_per_s=1.0, burst=1))
        for _ in range(5):
            assert tier.handle(Request("GET", "/health")).response.ok
        statuses = {
            tier.handle(Request("GET", "/stats")).response.status for _ in range(3)
        }
        assert statuses == {200}

    def test_brownout_degrades_before_rejecting(self):
        # burst 4, brownout below 75% fill: the 2nd-4th searches run
        # browned out (half the shards), only later ones get 429
        tier, descs = self._tier(
            AdmissionPolicy(
                rate_per_s=1.0, burst=4,
                brownout_tokens=0.75, brownout_shard_fraction=0.5,
            )
        )
        query = noisy_copy(descs[0], 8.0, seed=71).tolist()
        reg = tier.system.obs.registry
        before = reg.value("repro_web_brownout_total")
        records = [
            tier.handle(Request("POST", "/search", {"descriptors": query}))
            for _ in range(4)
        ]
        assert all(r.response.status == 200 for r in records)
        assert reg.value("repro_web_brownout_total") - before == 3
        browned = records[1].response.body
        assert browned["partial"] is True
        assert len(browned["unsearched_shards"]) == 1  # half of 2 nodes
        assert reg.value("repro_cluster_brownout_shards_skipped_total") >= 1

    def test_brownout_respects_min_shard_fraction(self):
        # min_shard_fraction above the brownout fraction: the floor wins
        # and no DegradedClusterError escapes
        tier, descs = self._tier(
            AdmissionPolicy(
                rate_per_s=1.0, burst=4,
                brownout_tokens=1.0, brownout_shard_fraction=0.25,
            ),
            min_shard_fraction=1.0,
        )
        query = noisy_copy(descs[0], 8.0, seed=72).tolist()
        record = tier.handle(Request("POST", "/search", {"descriptors": query}))
        assert record.response.status == 200
        assert record.response.body["partial"] is False  # floor kept all shards

    def test_no_admission_policy_is_transparent(self):
        tier, descs = self._tier(None)
        query = noisy_copy(descs[0], 8.0, seed=73).tolist()
        for _ in range(6):
            assert tier.handle(
                Request("POST", "/search", {"descriptors": query})
            ).response.ok


# ----------------------------------------------------------------------
# REST deadlines + stats/metrics exposure
# ----------------------------------------------------------------------
class TestRestDeadlines:
    def _tier(self, n_refs=4):
        system, descs = build_cluster(2, n_refs)
        return WebTier(system, n_workers=1), descs

    def test_budget_validation(self):
        tier, descs = self._tier()
        query = noisy_copy(descs[0], 8.0, seed=80).tolist()
        for bad in (0, -5, "soon"):
            response = tier.handle(
                Request("POST", "/search", {"descriptors": query, "budget_us": bad})
            ).response
            assert response.status == 400

    def test_generous_budget_full_result(self):
        tier, descs = self._tier()
        query = noisy_copy(descs[0], 8.0, seed=81).tolist()
        response = tier.handle(
            Request("POST", "/search", {"descriptors": query, "budget_us": 1e12})
        ).response
        assert response.ok
        assert response.body["deadline_expired"] is False
        assert response.body["partial"] is False

    def test_tiny_budget_returns_partial(self):
        # 12 refs over 2 nodes: several cache batches per node, so a
        # microscopic budget must truncate each node's sweep mid-flight
        tier, descs = self._tier(n_refs=12)
        query = noisy_copy(descs[0], 8.0, seed=82).tolist()
        response = tier.handle(
            Request("POST", "/search", {"descriptors": query, "budget_us": 1e-3})
        ).response
        assert response.ok  # partial results, not an error
        assert response.body["deadline_expired"] is True
        assert response.body["partial"] is True
        assert response.body["images_searched"] < 12

    def test_partial_results_are_prefix_identical(self):
        tier, descs = self._tier(n_refs=6)
        query = noisy_copy(descs[0], 8.0, seed=83).tolist()
        full = tier.handle(
            Request("POST", "/search", {"descriptors": query, "top": 6})
        ).response.body
        budget = full["elapsed_us"] / 2.0
        partial = tier.handle(
            Request("POST", "/search",
                    {"descriptors": query, "top": 6, "budget_us": budget})
        ).response.body
        full_scores = {r["id"]: r["good_matches"] for r in full["results"]}
        for row in partial["results"]:
            assert full_scores[row["id"]] == row["good_matches"]

    def test_batch_route_carries_deadline_metadata(self):
        tier, descs = self._tier(n_refs=12)
        queries = [noisy_copy(descs[i], 8.0, seed=84 + i).tolist() for i in range(2)]
        response = tier.handle(
            Request("POST", "/search/batch", {"queries": queries, "budget_us": 1e-3})
        ).response
        assert response.ok
        assert response.body["deadline_expired"] is True
        for member in response.body["queries"]:
            assert member["deadline_expired"] is True
            assert member["partial"] is True

    def test_stats_v3_overload_block_and_metrics_exposition(self):
        tier, descs = self._tier(n_refs=12)
        query = noisy_copy(descs[0], 8.0, seed=85).tolist()
        tier.handle(
            Request("POST", "/search", {"descriptors": query, "budget_us": 1e-3})
        )
        stats = tier.handle(Request("GET", "/stats")).response.body
        assert stats["schema_version"] == 8
        overload = stats["overload"]
        assert overload["deadline_expired_sweeps_total"] >= 1
        assert overload["deadline_skipped_shards_total"] >= 0
        text = tier.handle(Request("GET", "/metrics")).response.body["text"]
        assert "repro_engine_deadline_expired_total" in text
        assert "repro_serving_shed_total" not in text or "reason=" in text


# ----------------------------------------------------------------------
# cluster-level deadline fan-out
# ----------------------------------------------------------------------
class TestClusterDeadlines:
    def test_expired_at_entry_skips_every_shard(self):
        system, descs = build_cluster(3, 6)
        query = noisy_copy(descs[0], 8.0, seed=90)
        reg = system.obs.registry
        before = reg.value("repro_cluster_deadline_skipped_shards_total")
        with deadline_scope(1.0) as deadline:
            deadline.charge(1.0)
            result = system.search(query)
        assert result.deadline_expired
        assert result.partial
        assert len(result.unsearched_shards) == 3
        assert result.images_searched == 0
        assert reg.value("repro_cluster_deadline_skipped_shards_total") == before + 3

    def test_fanout_charges_slowest_node_not_the_sum(self):
        system, descs = build_cluster(3, 6)
        query = noisy_copy(descs[0], 8.0, seed=91)
        per_node_us = [node.search_many([query]).elapsed_us for node in system.nodes]
        budget = sum(per_node_us) * 0.9  # < serial sum, >> max node time
        with deadline_scope(budget) as deadline:
            result = system.search(query)
        # concurrent fan-out: only the slowest branch is charged, so a
        # budget below the serial sum but above max(node) must complete
        assert not result.deadline_expired
        assert not result.partial
        assert deadline.spent_us <= max(per_node_us) * 1.5

    def test_group_deadline_expires_every_member(self):
        # 12 refs over 2 nodes -> multiple cache batches per node, so
        # the sweeps truncate instead of finishing in one batch
        system, descs = build_cluster(2, 12)
        queries = [noisy_copy(descs[i], 8.0, seed=92 + i) for i in range(2)]
        with deadline_scope(1e-3):
            group = system.search_group(queries)
        assert group.deadline_expired
        assert group.partial
        for member in group.answers:
            assert member.deadline_expired


# ----------------------------------------------------------------------
# bench experiment
# ----------------------------------------------------------------------
class TestOverloadExperiment:
    def test_quick_run_plateaus(self):
        from repro.bench.experiments import overload_bench

        result = overload_bench.run(quick=True)
        assert result.payload["summary"] == result.summary
        assert result.summary["goodput_plateaus"] is True
        assert result.summary["goodput_plateau_ratio"] >= 0.9
        assert result.summary["unprotected_p99_growth_x"] > 1.0
        rows = {row[0] for row in result.rows}
        assert rows == {"protected", "unprotected"}


class TestErrorHierarchy:
    def test_contract_error_is_a_serving_error(self):
        error = ExecutorContractError(expected=4, got=2, executor="Fused")
        assert isinstance(error, ServingError)
        assert error.expected == 4 and error.got == 2
        assert "Fused" in str(error)
        assert "4" in str(error) and "2" in str(error)
