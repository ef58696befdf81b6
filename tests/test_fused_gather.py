"""One functional plane per gather, against the parent's gather.

``tests/test_stacked_sweep.py``'s method one tier up.  ``ParentSystem._gather``
and ``parent_swept_matches`` are verbatim copies of
``DistributedSearchSystem._gather`` and ``TextureSearchEngine._swept_matches``
as of the commit before the gather owned the functional plane (less
``keep_masks``, an option the engine no longer has): every shard
computes its own stack inside its own sweep, the gather merges as answers
arrive.  The shipped gather lets every shard *charge* its sweep, computes all
of them in one ``SweepCompute.run()`` and merges afterwards; nothing but the
number of kernel calls may differ.  The parent's two result classes are
frozen here too; both shapes are compared through :func:`plain`.  Also here: the regression tests for the
two escapes fixed in the same change (REST knobs that raised, norms that
overflowed to zeros) and the allocation pin.
"""

from __future__ import annotations

import copy
import dataclasses
import resource
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import MethodType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EngineConfig, ImageMatch, SweepCompute, TextureSearchEngine, compute_scope, current_compute,
)
from repro.core import algorithm2 as algorithm2_module
from repro.core.results import Answer, Sweep
from repro.core.kernels import (
    Algorithm1Kernel, Algorithm2Kernel, PreparedQuery, QueryMatrix, ReferenceBatch,
)
from repro.distributed import (
    DistributedSearchSystem, FaultInjector, FaultSpec, Request, RetryPolicy, SearchNode, WebTier,
    build_api,
)
from repro.distributed.cluster import _TRACER, WEB_TIER_OVERHEAD_US
from repro.errors import (
    DegradedClusterError, HalfPrecisionOverflowError, InvalidDescriptorsError,
)
from repro.features.rootsift import l2_normalize, rootsift
from repro.obs import DeadlineFanOut, current_deadline, deadline_scope
from repro.routing import RouterPolicy
from tests.conftest import DEAD_PREFIX, make_descriptors, noisy_copy, planned_tiles, slot_ids

# -- frozen oracles (verbatim from the parent commit) ----------------------


@dataclass
class ClusterSearchResult:
    matches: list[ImageMatch]
    per_node: dict
    elapsed_us: float
    images_searched: int
    partial: bool = False
    unsearched_shards: list[str] = field(default_factory=list)
    retries: int = 0
    deadline_expired: bool = False
    routed: bool = False
    unrouted_shards: list[str] = field(default_factory=list)
    images_pruned: int = 0
    cascade_pruned: int = 0
    corpus_epoch: dict[str, int] = field(default_factory=dict)


@dataclass
class ClusterGroupResult:
    results: list[ClusterSearchResult] = field(default_factory=list)
    elapsed_us: float = 0.0
    retries: int = 0
    unsearched_shards: list[str] = field(default_factory=list)
    deadline_expired: bool = False
    routed: bool = False
    unrouted_shards: list[str] = field(default_factory=list)
    images_pruned: int = 0
    cascade_pruned: int = 0
    corpus_epoch: dict[str, int] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.unsearched_shards) or self.deadline_expired

    @property
    def answers(self) -> list[ClusterSearchResult]:  # what today's ``search`` reads
        return self.results


def parent_swept_matches(
    self, swept: list[tuple[ReferenceBatch, list | None]], query: PreparedQuery,
    n_queries: int, candidate_ids: set[str] | frozenset[str] | None,
) -> list[list[ImageMatch]]:
    """The sweep's functional plane: per-query matches of the batches
    the timing plane swept, in sweep order.  Those it only charged
    (``groups`` is ``None``) are computed here as one stack; every
    batch then goes through the tombstone/candidate filter."""
    stack = [batch for batch, groups in swept if groups is None]
    stacked = self.kernel.match_batch_multi(None, stack, query) if stack else []
    per_query: list[list[ImageMatch]] = [[] for _ in range(n_queries)]
    taken = 0
    for batch, groups in swept:
        if groups is None:
            groups = [matches[taken : taken + batch.size] for matches in stacked]
            taken += batch.size
        # tombstone filtering: resolve the batch's dead slots once
        # (kernels emit one match per slot, in slot order), then
        # drop them from every query's list by index, naming the rest.
        ids = slot_ids(self, batch)
        alive = [
            i for i, slot_id in enumerate(ids)
            if not slot_id.startswith(DEAD_PREFIX)
            and (candidate_ids is None or slot_id in candidate_ids)
        ]
        for q, matches in enumerate(groups):
            matches = [matches[i] for i in alive]
            for i, match in zip(alive, matches):
                match.reference_id = ids[i]
            per_query[q].extend(matches)
    return per_query


def parent_plane(self, swept, survivors, query, n_queries, candidate_ids):
    """Today's call into the functional plane, answered by the parent's.  A
    batch with a survivor mask (the cascade's) was matched inside the sweep
    loop there, by a call of its own."""
    matched = [
        (batch, None if mask is None
         else self.kernel.match_batch_multi(None, [batch], query, [mask]))
        for batch, mask in zip(swept, survivors, strict=True)
    ]
    return parent_swept_matches(self, matched, query, n_queries, candidate_ids)


class ParentSystem(DistributedSearchSystem):
    """The parent's cluster: its ``_gather``, over engines whose functional
    plane is the parent's ``_swept_matches``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for node in self.nodes:
            node.engine._swept_matches = MethodType(parent_plane, node.engine)

    def _gather(
        self,
        queries: list[np.ndarray],
        nprobe: int | None,
        recall_target: float | None,
        search_counter,
    ) -> ClusterGroupResult:
        """``DistributedSearchSystem._gather`` as of the parent commit: every shard
        computes inside its own sweep and is merged as soon as it has answered."""
        n_queries = len(queries)
        # prepared here once, not once per shard; the router keeps the raw
        prepared = [
            QueryMatrix(self._prepared(self._kernel.query_matrix, q)) for q in queries
        ]
        merged = [
            ClusterSearchResult(matches=[], per_node={}, elapsed_us=0.0, images_searched=0)
            for _ in range(n_queries)
        ]
        epochs_seen: dict[str, int] = {}
        slowest_us = 0.0
        retries = 0
        unsearched: list[str] = []
        truncated = False  # any node answered with a deadline-cut sweep
        route = self._route(queries, nprobe, recall_target)
        populated = [g for g in self.groups.values() if g.n_references > 0]
        nominated, unrouted, routed = self._partition_routed(populated, route)
        targets = nominated
        fanout = DeadlineFanOut(current_deadline())
        deadline_skipped: list[str] = []
        if fanout.expired_at_entry:
            # the budget was gone before the fan-out even started
            deadline_skipped = [group.shard_id for group in targets]
            self._deadline_skips.inc(len(deadline_skipped))
            targets = []
        for group in targets:
            candidates = (
                frozenset(route.per_shard.get(group.shard_id, ()))
                if routed else None
            )

            def attempt(replica: SearchNode, indices):  # runs inside read() below
                with fanout.branch():
                    return self._attempt_with_retry(
                        replica, [prepared[i] for i in indices], candidates
                    )

            answers, shard_us, shard_retries = group.read(
                n_queries, attempt, self.obs.now_us
            )
            slowest_us = max(slowest_us, shard_us)
            retries += shard_retries
            if answers is None:
                unsearched.append(group.shard_id)
                continue
            epochs_seen[group.shard_id] = group.epoch
            for into, result in zip(merged, answers):
                truncated = truncated or result.partial
                into.matches.extend(result.matches)
                into.per_node[group.shard_id] = result
                into.images_searched += result.images_searched
                into.images_pruned += result.images_pruned
                into.cascade_pruned += result.cascade_pruned
        fanout.join()
        unsearched.extend(deadline_skipped)
        if self.auto_failover:
            self.repair()
        search_counter.inc()
        if retries:
            self._retries.inc(retries)
        if unsearched:
            self._unsearched.inc(len(unsearched))
            self._partials.inc()
        if routed:
            for into in merged:
                hit = any(m.score > 0 for m in into.matches)
                self._router_hits.labels(result="hit" if hit else "miss").inc()
        elapsed = slowest_us + WEB_TIER_OVERHEAD_US
        _TRACER.annotate(
            nodes=len(populated), retries=retries, unsearched=len(unsearched),
            unrouted=len(unrouted), sim_elapsed_us=elapsed,
        )
        searched = len(nominated) - len(unsearched)
        if nominated and searched / len(nominated) < self.min_shard_fraction:
            raise DegradedClusterError(searched, len(nominated), self.min_shard_fraction)
        deadline_expired = bool(deadline_skipped) or truncated
        # standalone searches drive the simulated telemetry clock
        # relatively (no-op under a serving loop's exclusive scope)
        self.obs.advance_by(elapsed)
        for into in merged:
            into.elapsed_us = elapsed
            into.partial = bool(unsearched) or deadline_expired
            into.unsearched_shards = list(unsearched)  # private copy per query
            into.retries = retries
            into.deadline_expired = deadline_expired
            into.routed = routed
            into.unrouted_shards = list(unrouted)
            into.corpus_epoch = dict(epochs_seen)  # private copy per query
        return ClusterGroupResult(
            results=merged,
            elapsed_us=elapsed,
            retries=retries,
            unsearched_shards=list(unsearched),
            deadline_expired=deadline_expired,
            routed=routed,
            unrouted_shards=list(unrouted),
            images_pruned=max(r.images_pruned for r in merged),
            cascade_pruned=max(r.cascade_pruned for r in merged),
            corpus_epoch=dict(epochs_seen),
        )


# -- twin clusters ----------------------------------------------------------

M, N, BATCH = 24, 16, 4


def config(precision: str = "fp16", **kwargs) -> EngineConfig:
    defaults = dict(m=M, n=N, batch_size=BATCH, min_matches=2, scale_factor=0.25)
    return EngineConfig(**{**defaults, "precision": precision, **kwargs})


def reference(image: int) -> np.ndarray:
    return make_descriptors(M, seed=700 + image)


def query_for(image: int, seed: int) -> np.ndarray:
    return noisy_copy(reference(image)[:, :N], 6.0, seed=seed)


def build(system_class, cfg, shards=3, replicas=1, seals=(5,), dead=(), routed=False,
          faults=None, crashed=(), timeout_us=0.0):
    """A cluster whose shards went through ``seals`` (that many references
    enrolled round-robin, then every engine flushed, per entry — so partial
    batches of every size) and the deletion of the ``dead`` images.  ``faults``
    is ``(spec, seed)``: an injector of its own per cluster, same schedule."""
    injector = FaultInjector(faults[0], seed=faults[1]) if faults else None
    system = system_class(
        shards, cfg, replication_factor=replicas, fault_injector=injector,
        router_policy=RouterPolicy(kind="ivf", n_lists=3, nprobe=1) if routed else None,
        retry_policy=RetryPolicy(max_attempts=2, timeout_us=timeout_us),
    )
    image = 0
    for count in seals:
        for _ in range(count):
            system.add(f"ref{image}", reference(image))
            image += 1
        for node in system.nodes:
            node.engine.flush()
    for image in dead:
        system.delete(f"ref{image}")
    system.poll_lifecycle()  # warming replicas start serving
    if injector is not None:
        injector.crash(*(system.nodes[i % len(system.nodes)].node_id for i in crashed))
    return system


#: what a group reports in both shapes, and what each of its answers does
GROUP = ("elapsed_us", "retries", "partial", "unsearched_shards", "deadline_expired", "routed",
         "unrouted_shards", "images_pruned", "cascade_pruned", "corpus_epoch")
ANSWER = GROUP + ("images_searched",)


def builtin(value):
    return list(value) if isinstance(value, tuple) else (
        dict(value) if isinstance(value, Mapping) else value)


def plain(result) -> dict:
    """A search's answer or group — a :class:`Sweep` / :class:`Answer` or the
    parent's classes — as comparable builtins: matches and every field both
    shapes report (an engine's sweep has no fan-out: its fan-out fields read
    as they would on the parent's cluster result)."""
    if isinstance(result, (Answer, ClusterSearchResult)):
        return {"matches": [dataclasses.asdict(m) for m in result.matches],
                **{name: builtin(getattr(result, name)) for name in ANSWER}}
    answers = result.answers if isinstance(result, Sweep) else result.results
    return {**{name: builtin(getattr(result, name)) for name in GROUP},
            "answers": [plain(answer) for answer in answers]}


def left_behind(system) -> list:
    """Everything a gather leaves on the cluster's engines and devices."""
    return [
        (node.node_id, copy.deepcopy(node.engine.stats), node.engine.device.elapsed_us(),
         [(r.name, r.total_us, r.calls) for r in node.engine.device.profiler.records()],
         node.health.snapshot(), node.epoch)
        for node in system.nodes
    ]


def counters(system) -> dict:
    """Every ``repro_*`` series of the system's registry but the one that
    observes the host's wall clock (the router's nominate time)."""
    return {name: series for name, series in system.obs.registry.snapshot().items()
            if name.startswith("repro_") and name != "repro_router_overhead_us"}


def lived(system_class, case, groups, budget_of=None) -> tuple:
    """Build one side, run its searches, report all it answered and left."""
    system = build(system_class, **case)
    seen = []
    for search, queries in enumerate(groups):
        budget = budget_of(search) if budget_of else None
        try:
            with deadline_scope(budget) if budget is not None else nullcontext() as deadline:
                answer = plain(system.search_group(queries))
            seen.append((answer, deadline and deadline.spent_us))
        except DegradedClusterError as exc:
            seen.append(str(exc))
    return seen, left_behind(system), counters(system)


@st.composite
def gathers(draw):
    shards = draw(st.integers(1, 5))
    replicas = draw(st.sampled_from([1, 1, 2, 3]))
    seals = draw(st.lists(st.integers(1, 3 * shards + 2), min_size=1, max_size=3))
    total = sum(seals)
    faults = None
    if draw(st.booleans()):
        spec = FaultSpec(transient_rate=draw(st.sampled_from([0.0, 0.25])),
                         slow_rate=draw(st.sampled_from([0.0, 0.3])), slow_multiplier=8.0)
        faults = (spec, draw(st.integers(0, 50)))
    case = dict(
        cfg=config(draw(st.sampled_from(["fp16", "fp32"]))),
        shards=shards, replicas=replicas, seals=seals,
        dead=sorted(draw(st.sets(st.integers(0, total - 1), max_size=total // 2))),
        routed=draw(st.booleans()),
        faults=faults,
        # a crash schedule that leaves a reader on every shard, or one shard short
        crashed=draw(st.sets(st.integers(0, shards * replicas - 1), max_size=1)) if faults else (),
        timeout_us=draw(st.sampled_from([0.0, 0.0, 100.0, 300.0])) if faults else 0.0,
    )
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    groups = [[query_for((3 * s + q) % total, seed=q) for q in range(size)]
              for s, size in enumerate(sizes)]
    return case, groups, draw(st.none() | st.floats(0.05, 0.95))


@settings(max_examples=150, deadline=None)
@given(gathers())
def test_fused_gather_is_the_parents_gather_field_for_field(drawn):
    case, groups, cut = drawn
    budget_of = None
    if cut is not None:
        # a deadline that expires part of the way through the parent's full gather
        full, _, _ = lived(ParentSystem, case, groups)
        budget_of = lambda search: (
            None if isinstance(full[search], str) else cut * full[search][0]["elapsed_us"])
    fused = lived(DistributedSearchSystem, case, groups, budget_of)
    parent = lived(ParentSystem, case, groups, budget_of)
    assert fused == parent


@pytest.mark.parametrize("backend", ["cascade", "algorithm1"])
def test_kernels_that_match_inside_the_loop_answer_as_the_parent(backend):
    case = dict(cfg=config(backend=backend), shards=3, replicas=2, seals=[5, 2, 4], dead=[1, 6])
    groups = [[query_for(2, seed=1)], [query_for(9, seed=2)]]
    assert lived(DistributedSearchSystem, case, groups) == lived(ParentSystem, case, groups)


def test_a_discarded_attempt_leaves_a_job_that_changes_nothing():
    """Every sweep on one replica is slow past the timeout: the gather hangs
    up, retries the sibling and throws the first answer away — its job is
    still computed by ``run()``, into lists nobody reads."""
    slow = FaultSpec(slow_rate=1.0, slow_multiplier=50.0)
    case = dict(cfg=config(), shards=2, replicas=2, seals=[6, 3], faults=(slow, 4))
    groups = [[query_for(1, seed=1)], [query_for(4, seed=2), query_for(7, seed=3)]]
    probe = build(ParentSystem, **case).search(groups[0][0])
    case["timeout_us"] = probe.elapsed_us / 10  # between a clean sweep and a slowed one
    fused, parent = (lived(cls, case, groups) for cls in (DistributedSearchSystem, ParentSystem))
    assert fused == parent
    assert any(not isinstance(seen, str) and seen[0]["retries"] for seen in fused[0])


# -- counts that need no clock ---------------------------------------------


def count_calls(monkeypatch, owner, name: str) -> list:
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(
        owner, name, lambda *args, **kw: (calls.append(args), real(*args, **kw))[1])
    return calls


def test_fourteen_shards_one_kernel_call_one_gemm_per_tile_of_the_whole_stack(monkeypatch):
    system = build(DistributedSearchSystem, config(), shards=14, seals=[42, 14])
    image = M * N * 4
    for images_per_tile in (None, 20, 8):  # at one lane: one tile, three, seven
        with monkeypatch.context() as patch:
            if images_per_tile:
                patch.setattr(algorithm2_module, "_PRODUCT_TILE_BYTES", images_per_tile * image)
            tiles = planned_tiles(56, image)
            kernels = count_calls(patch, Algorithm2Kernel, "match_batch_multi")
            gemms = count_calls(patch, algorithm2_module, "batched_hgemm")
            scans = count_calls(patch, algorithm2_module, "functional_topk")
            result = system.search(query_for(17, seed=5))
        assert len(kernels) == 1 and kernels[0][1] is None  # computed once, charged by nobody here
        assert len(kernels[0][2]) == 28  # two sealed batches a shard, in fan-out order
        assert len(gemms) == len(scans) == len(tiles)
        assert sorted(len(args[1]) for args in gemms) == sorted(tiles)  # lanes finish in any order
        assert [args[1].ndim for args in gemms] == [3] * len(tiles)
        assert sum(len(args[1]) for args in gemms) == 56 == result.images_searched
        assert result.best().reference_id == "ref17" and len(result.corpus_epoch) == 14
    for node in system.nodes:  # while every device was charged its own two batches, each time
        steps = {r.name: r.calls for r in node.engine.device.profiler.records()}
        assert steps == dict.fromkeys(
            ["GEMM", "Top-2 sort", "sqrt", "D2H copy", "Post-processing"], 6)


def test_replica_slices_with_different_queries_are_different_computations(monkeypatch):
    """R = 2, a group of three: each shard's readers take queries (0, 2) and
    (1,) — two operands, so two fused calls of one slice per shard each."""
    system = build(DistributedSearchSystem, config(), shards=3, replicas=2, seals=[9])
    kernels = count_calls(monkeypatch, Algorithm2Kernel, "match_batch_multi")
    group = system.search_group([query_for(i, seed=i) for i in (1, 4, 7)])
    assert [r.best().reference_id for r in group.answers] == ["ref1", "ref4", "ref7"]
    assert len(kernels) == 2
    assert sorted(args[3].n_queries for args in kernels) == [1, 2]
    assert all(len(args[2]) == 3 for args in kernels)  # one batch from each shard, both times


def job(kernel, query, sizes=(2, 1)):
    """One sweep's submission, and the list its matches are delivered into."""
    stack = [
        ReferenceBatch(batch_id=i, slots=np.arange(10 * i, 10 * i + size),
                       tensor=np.stack([kernel.prepare_reference(reference(10 * i + s))[0]
                                        for s in range(size)]))
        for i, size in enumerate(sizes)
    ]
    delivered: list = []
    return (kernel, stack, [None] * len(stack), query, delivered.append), delivered


def test_jobs_are_fused_only_when_provably_one_computation(monkeypatch):
    kernel, twin = Algorithm2Kernel(config()), Algorithm2Kernel(config())
    other = Algorithm2Kernel(config(ratio_threshold=0.7))
    matrix = kernel.query_matrix(query_for(0, seed=1))
    flipped = matrix.copy()
    flipped.view(np.uint16)[3, 5] ^= 1  # one bit of one stored half
    query = PreparedQuery(matrix)
    cases = [
        ([(kernel, query), (twin, PreparedQuery(matrix.copy()))], 1),  # equal bits, other object
        ([(kernel, query), (kernel, PreparedQuery(flipped))], 2),
        ([(kernel, query), (other, query)], 2),  # a config that differs anywhere
        ([(kernel, query), (kernel, PreparedQuery(matrix, aux="anything"))], 2),
        ([(kernel, query), (kernel, PreparedQuery(matrix[:, :-1]))], 2),
    ]
    for members, calls in cases:
        with monkeypatch.context() as patch:
            kernels = count_calls(patch, Algorithm2Kernel, "match_batch_multi")
            scope, lists = SweepCompute(), []
            for member_kernel, member_query in members:
                submission, delivered = job(member_kernel, member_query)
                scope.submit(*submission)
                lists.append((submission, delivered))
            scope.run()
        assert len(kernels) == calls
        for (k, stack, _, q, _), delivered in lists:  # each its own answer, whoever shared the call
            alone = k.match_batch_multi(None, stack, q)
            assert [[dataclasses.astuple(m) for m in per_query] for per_query in delivered[0]] == [
                [dataclasses.astuple(m) for m in per_query] for per_query in alone]


def test_an_empty_stack_is_delivered_without_a_kernel_call(monkeypatch):
    kernels = count_calls(monkeypatch, Algorithm2Kernel, "match_batch_multi")
    per_image = count_calls(monkeypatch, Algorithm1Kernel, "match_batch_multi")
    engine = TextureSearchEngine(config())
    for image in range(6):
        engine.add_reference(f"ref{image}", reference(image))
    with compute_scope() as scope:
        pruned = engine.search(query_for(1, seed=1), candidate_ids={"nobody"})
        scope.run()
    assert pruned.matches == [] and pruned.images_pruned == 6 and not kernels
    exact = TextureSearchEngine(config(backend="algorithm1"))  # pre-costed like every kernel
    exact.add_reference("ref1", reference(1))
    with compute_scope() as scope:
        nobody = exact.search(query_for(1, seed=1), candidate_ids={"nobody"})
        held = exact.search(query_for(1, seed=1))
        assert held.matches == []  # delivered by run(), like everyone's
        scope.run()
    assert nobody.matches == [] and nobody.images_pruned == 1
    assert [m.reference_id for m in held.matches] == ["ref1"] and not kernels
    assert [args[2] for args in per_image] == [[next(iter(exact.cache.batches())).batch]]  # held's only


def test_a_scope_abandoned_by_the_fan_out_computes_nothing(monkeypatch):
    system = build(DistributedSearchSystem, config(), shards=3, seals=[6])
    kernels = count_calls(monkeypatch, Algorithm2Kernel, "match_batch_multi")
    real = SearchNode.search_many

    def third_shard_breaks(node, *args, **kwargs):
        if node is system.nodes[2]:
            raise RuntimeError("not a fault the gather knows")
        return real(node, *args, **kwargs)

    monkeypatch.setattr(SearchNode, "search_many", third_shard_breaks)
    with pytest.raises(RuntimeError):
        system.search(query_for(0, seed=1))
    assert not kernels
    assert [node.engine.stats.searches for node in system.nodes] == [1, 1, 0]  # charged, though
    assert type(current_compute()) is not SweepCompute  # and no scope is left open


def test_overflow_from_run_is_the_parents_exception():
    """Shard 1's only image overflows (a half match), shard 2's overflows
    further: the error names shard 1's batch, as the parent's fan-out did when
    it reached it — but every shard has been charged by then, not just shard 0."""
    cfg = config(scale_factor=512.0)  # s^2 = 262 144 > 65 504
    low, high = slice(0, 64), slice(64, 128)

    def sparse(columns, dims, seed):
        out = np.zeros((128, columns), dtype=np.float32)
        out[dims] = make_descriptors(columns, seed=seed)[dims]
        return out

    query = sparse(N, low, seed=1)
    half = query.copy()
    half[high] = make_descriptors(N, seed=2)[high]
    pad = lambda d: np.concatenate([d, sparse(M - N, high, seed=3)], axis=1)
    errors, searches = [], []
    for system_class in (DistributedSearchSystem, ParentSystem):
        system = system_class(3, cfg)
        for ref_id, descriptors in (("cold", sparse(M, high, seed=4)), ("half", pad(half)),
                                    ("same", pad(query))):
            system.add(ref_id, descriptors)
        with pytest.raises(HalfPrecisionOverflowError) as raised:
            system.search(query)
        errors.append((raised.value.scale, raised.value.max_value, str(raised.value)))
        searches.append([node.engine.stats.searches for node in system.nodes])
    assert errors[0] == errors[1]
    assert searches == [[1, 1, 1], [1, 0, 0]]  # what moved: the whole gather is charged


# -- the engine, outside and inside a scope --------------------------------


def engines(dead=(1, 6)):
    """The shipped engine and one whose functional plane is the parent's."""
    pair = []
    for parent in (False, True):
        engine = TextureSearchEngine(config())
        if parent:
            engine._swept_matches = MethodType(parent_plane, engine)
        for image in range(9):
            engine.add_reference(f"ref{image}", reference(image))
            if image % 3 == 1:
                engine.flush()
        for image in dead:
            engine.remove_reference(f"ref{image}")
        pair.append(engine)
    return pair


def test_outside_a_scope_the_engine_is_the_parents_engine():
    engine, parent = engines()
    queries = [query_for(2, seed=1), query_for(7, seed=2)]
    for candidates in (None, {"ref2", "ref3", "ref6"}):
        got = engine.search_group(queries, candidate_ids=candidates)
        want = parent.search_group(queries, candidate_ids=candidates)
        assert repr(plain(got)) == repr(plain(want))
        assert [len(r.matches) for r in got.answers] == [2 if candidates else 7] * 2
    assert repr(plain(engine.search(queries[0]))) == repr(plain(parent.search(queries[0])))
    assert engine.verify(reference(2), queries[0]) == parent.verify(reference(2), queries[0])
    assert engine.stats == parent.stats
    assert engine.device.elapsed_us() == parent.device.elapsed_us()


def test_inside_a_scope_matches_arrive_with_run():
    engine, parent = engines()
    queries = [query_for(2, seed=1), query_for(7, seed=2)]
    want = parent.search_group(queries)
    with compute_scope() as scope:
        held = engine.search_group(queries)
        assert [r.matches for r in held.answers] == [[], []]
        assert plain(held) == {**plain(want), "answers": [
            {**plain(r), "matches": []} for r in want.answers]}  # all but the matches is there
        assert engine.stats == parent.stats  # the timing plane is complete
        lists = [r.matches for r in held.answers]
        scope.run()
    assert plain(held) == plain(want)
    assert all(a is b for a, b in zip(lists, (r.matches for r in held.answers)))  # filled in place
    assert plain(engine.search_group(queries)) == plain(parent.search_group(queries))  # none left open


# -- the two escapes -------------------------------------------------------


def rest_cluster():
    system = DistributedSearchSystem(2, config(), replication_factor=2)
    for image in range(4):
        system.add(f"ref{image}", reference(image))
    system.poll_lifecycle()
    return system, WebTier(system, n_workers=1)


def state(system) -> dict:
    return {
        "kv": system.store.dump(),
        "cursors": {s: g._cursor for s, g in system.groups.items()},
        "epochs": {n.node_id: n.epoch for n in system.nodes},
        "durable_epochs": {s: system.epochs.get(s) for s in system.groups},
        "engines": left_behind(system),
    }


@pytest.mark.parametrize("knob, field", [
    ({"top": float("inf")}, "top"), ({"nprobe": float("inf")}, "nprobe"),
    ({"budget_us": float("nan")}, "budget_us"), (None, "body"),
])
def test_malformed_search_knobs_answer_400_and_touch_nothing(knob, field):
    system, tier = rest_cluster()
    query = query_for(1, seed=1).tolist()
    for path, payload in (("/search", {"descriptors": query}), ("/search/batch", {"queries": [query]})):
        before, stats_before = state(system), system.stats()
        body = None if knob is None else {**payload, **knob}
        for handle in (build_api(system).handle, lambda r: tier.handle(r).response):
            response = handle(Request("POST", path, body))
            assert response.status == 400 and f"'{field}'" in response.body["error"]
        assert state(system) == before
        after = system.stats()
        assert after == stats_before
    assert system.obs.registry.value("repro_web_requests_total", status="400") == 2
    assert system.obs.registry.value("repro_web_requests_total") == 2
    # lenient as ever: int() truncates a float (a bool is no number: tests/test_rest_knobs.py)
    assert tier.handle(Request("POST", "/search", {"descriptors": query, "top": 2.9})).response.ok


@pytest.mark.parametrize("make", [
    lambda: np.full((128, M), 3e38, np.float32),
    lambda: np.full((128, M), 1e37, np.float32),
    lambda: np.concatenate([np.full((64, M), 1e37, np.float32), np.ones((64, M), np.float32)]),
], ids=["3e38", "1e37", "half-huge"])
def test_an_overflowing_norm_is_rejected_not_enrolled_as_zeros(make, recwarn):
    descriptors = make()
    assert np.isfinite(descriptors).all()
    for normalise in (rootsift, l2_normalize):
        with pytest.raises(ValueError, match="norm is not finite"):
            normalise(descriptors)
    system, tier = rest_cluster()
    before = state(system)
    for path in ("/textures", "/enroll"):
        response = tier.handle(
            Request("POST", path, {"id": "huge", "descriptors": descriptors.tolist()})).response
        assert response.status == 400 and "norm" in response.body["error"]
    assert tier.handle(Request("GET", "/textures/huge")).response.status == 404
    assert state(system) == before and not system.store.exists("feature:huge")
    with pytest.raises(InvalidDescriptorsError):
        system.search(descriptors[:, :N])
    engine = TextureSearchEngine(config())
    for refused in (lambda: engine.add_reference("huge", descriptors),
                    lambda: engine.search(descriptors[:, :N]),
                    lambda: engine.verify(descriptors, reference(1)[:, :N])):
        with pytest.raises(ValueError):
            refused()
    assert engine.n_references == 0 and engine.stats.searches == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # and nothing about a valid input moved
    valid = reference(3)
    with np.errstate(all="ignore"):
        l1 = valid.sum(axis=0, keepdims=True)
    assert np.array_equal(rootsift(valid), np.sqrt(valid / np.maximum(l1, 1e-12), dtype=np.float32))


# -- the allocation pin ------------------------------------------------------


def test_fused_searches_do_not_churn_the_heap():
    """The 84-image service stack fits one 4 MiB tile; its scratch, its
    crossing operand and the GEMM's up-cast allocated apart are trimmed off
    the heap and faulted back in on every request (~2 500 minor faults)."""
    service = EngineConfig(m=96, n=128, precision="fp16", scale_factor=0.25, batch_size=8,
                           min_matches=8)
    system = DistributedSearchSystem(14, service)
    for image in range(84):
        system.add(f"ref{image}", make_descriptors(96, seed=image))
    queries = [noisy_copy(make_descriptors(96, seed=i)[:, :128], 6.0, seed=i) for i in range(10)]
    for query in queries:  # warm-up: the allocator settles its thresholds
        system.search(query)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(50):
        assert system.search(queries[i % 10]).images_searched == 84
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * 100, f"{faults / 50:.0f} minor faults a search"
