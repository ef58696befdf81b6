"""The four workloads: seeded input generation, set-up and the timed loop.

Everything here drives the package through its public API only.  The
program never sees the seed — only the descriptor matrices, request
bodies and arrival times generated from it before any clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import DistributedSearchSystem, EngineConfig, TextureSearchEngine
from repro import serving
from repro.data import SyntheticFeatureModel
from repro.distributed import Request, WebTier

#: ROADMAP item 1's dimensions (d=128, fp16, algorithm2).
PAPER = EngineConfig(m=384, n=768, batch_size=64)
#: what examples/distributed_search.py runs.
SERVICE = EngineConfig(m=96, n=128, precision="fp16", scale_factor=0.25,
                       batch_size=8, min_matches=8)

#: ``--seconds`` at which the op counts below apply unscaled; every
#: count (never a dimension, shard count or corpus size) is multiplied
#: by ``seconds / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 40.0

TOP = 3

#: ``--seed`` changes the *data* — which bricks are asked for and every
#: descriptor — never the amount of work: arrival times and the order of
#: op kinds come from this fixed stream, so runs with different seeds
#: form the same groups and grow the same corpus, and their timings are
#: samples of one quantity.  Group host time steps up by ~6 % per member,
#: so a median that sits between two size classes flips with the noise;
#: stream 3 puts serving_fused's median group in the middle of its largest
#: size class at both the contract's and the full op counts.
SCHEDULE_SEED = 3


def brick_id(brick: int) -> str:
    return f"brick-{brick:04d}"


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclass
class Op:
    """One operation of the timed loop and what it answered."""

    kind: str  # search | enroll | update | delete
    seconds: float = 0.0
    queries: int = 0
    images: int = 0  # images compared, times the group size when fused
    hits: int = 0  # queries whose top-1 was the ground-truth brick
    failed: bool = False
    error: str = ""
    verdict: list = field(default_factory=list)
    sim_us: list = field(default_factory=list)


# -- seeded inputs ---------------------------------------------------------


def _oracle_matches(reference: np.ndarray, query: np.ndarray, ratio: float) -> int:
    """Float64 RootSIFT 2-NN ratio test of one query against its own
    reference — the benchmark's independent check that a generated
    query is identifiable at all."""
    def unit(x):
        x = x.astype(np.float64)
        return np.sqrt(x / np.maximum(x.sum(axis=0, keepdims=True), 1e-12))

    squared = 2.0 - 2.0 * (unit(reference).T @ unit(query))
    nearest = np.sqrt(np.maximum(np.partition(squared, 1, axis=0)[:2], 0.0))
    return int((nearest[0] < ratio * nearest[1]).sum())


class Corpus:
    """Brick *b*'s reference is ``capture(b, "reference").top(m)``, its
    queries ``capture(b, "query", k).top(n)`` for k = 0, 1, ...; ground
    truth is *b*.

    The generator's query captures have a heavy difficulty tail (a few
    percent share almost no keypoint with their reference), and the
    contract wants workloads on which no operation fails, so a capture
    is skipped unless the oracle finds the engine's own ``min_matches``
    good matches against its reference.  Repeated queries for one brick
    take successive captures, so no two ops share a query matrix.
    """

    def __init__(self, seed: int, config: EngineConfig) -> None:
        self.model = SyntheticFeatureModel(seed=seed)
        self.config = config
        self._references: dict[int, np.ndarray] = {}
        self._next_capture: dict[int, int] = {}

    def reference(self, brick: int) -> np.ndarray:
        if brick not in self._references:
            capture = self.model.capture(brick, "reference").top(self.config.m)
            self._references[brick] = capture.descriptors
        return self._references[brick]

    def query(self, brick: int) -> np.ndarray:
        cfg = self.config
        reference = self.reference(brick)
        while True:
            index = self._next_capture.get(brick, 0)
            self._next_capture[brick] = index + 1
            capture = self.model.capture(brick, "query", capture_index=index).top(cfg.n)
            matches = _oracle_matches(reference, capture.descriptors, cfg.ratio_threshold)
            if matches >= cfg.min_matches:
                return capture.descriptors


def _search_request(query: np.ndarray) -> Request:
    return Request("POST", "/search", {"descriptors": query.tolist(), "top": TOP})


def _texture_request(path: str, brick: int, reference: np.ndarray) -> Request:
    return Request("POST", path, {"id": brick_id(brick), "descriptors": reference.tolist()})


# -- outcomes --------------------------------------------------------------


def _judge_search(op: Op, truths, answers, sim_us) -> None:
    """Fill a search op's outcome.  ``answers`` holds, per query,
    ``(top ids, their good_matches, images_searched, degraded)`` where
    degraded means partial or a non-empty ``unsearched_shards``."""
    op.queries = len(truths)
    for truth, (ids, good, images, degraded) in zip(truths, answers):
        op.images += images
        op.hits += bool(ids) and ids[0] == brick_id(truth)
        op.failed = op.failed or degraded
        op.verdict.append((ids, good, images, degraded))
    op.sim_us.extend(sim_us)


def _answer_from_body(body: dict):
    results = body["results"]
    return (
        [hit["id"] for hit in results],
        [hit["good_matches"] for hit in results],
        body["images_searched"],
        bool(body["partial"] or body["unsearched_shards"]),
    )


def _rest_search(rec, tier: WebTier, brick: int, query: np.ndarray) -> None:
    request = _search_request(query)  # body built outside the timed region
    with rec.timed("search") as op:
        record = tier.handle(request)
    response = record.response
    if not response.ok:
        op.failed, op.error = True, f"{response.status}: {response.body.get('error')}"
        return
    _judge_search(op, [brick], [_answer_from_body(response.body)],
                  [response.body["elapsed_us"], record.latency_us])


def _rest_enroll_base(tier: WebTier, corpus: Corpus, bricks) -> None:
    for brick in bricks:
        record = tier.handle(_texture_request("/textures", brick, corpus.reference(brick)))
        if record.response.status != 201:
            raise RuntimeError(f"enrolment of {brick_id(brick)} answered {record.response.status}")


def _cluster_engines(system: DistributedSearchSystem) -> list[TextureSearchEngine]:
    return [node.engine for node in system.nodes]


# -- workloads -------------------------------------------------------------


class EnginePaper:
    name = "engine_paper"
    why = ("one engine at the paper's m=384/n=768 over 64 GPU-resident references: top-k "
           "and GEMM on one (384, 49152) matrix per call, no tier code runs")
    setup_reps = 1  # set-up is dominated by a multi-second warm-up search
    references = 64

    def generate(self, seed: int, scale: float) -> dict:
        corpus = Corpus(seed, PAPER)
        bricks = range(self.references)
        return {
            "references": [(brick_id(b), corpus.reference(b)) for b in bricks],
            "warmup": [corpus.query(b % self.references) for b in range(scaled(2, scale))],
            "queries": [(b % self.references, corpus.query(b % self.references))
                        for b in range(scaled(10, scale))],
        }

    def setup(self, inputs: dict) -> TextureSearchEngine:
        engine = TextureSearchEngine(PAPER)
        for ref_id, descriptors in inputs["references"]:
            engine.add_reference(ref_id, descriptors)
        engine.flush()
        for query in inputs["warmup"]:
            engine.search(query)
        return engine

    def engines(self, engine) -> list[TextureSearchEngine]:
        return [engine]

    def run(self, engine: TextureSearchEngine, inputs: dict, rec) -> None:
        for brick, query in inputs["queries"]:
            with rec.timed("search") as op:
                result = engine.search(query)
            top = result.top(TOP)
            answer = ([m.reference_id for m in top], [m.good_matches for m in top],
                      result.images_searched, result.partial)
            _judge_search(op, [brick], [answer], [result.elapsed_us])


class RestFanout:
    name = "rest_fanout"
    why = ("14 shards behind the web tier, <=6-image batches per shard: fixed per-call cost "
           "and per-shard repetition dominate; every Python tier is crossed per request")
    setup_reps = 3
    references = 84
    nodes = 14
    workers = 4

    def generate(self, seed: int, scale: float) -> dict:
        corpus = Corpus(seed, SERVICE)
        order = np.random.default_rng([seed, 1]).permutation(self.references)
        warm = scaled(20, scale)
        picks = [int(order[i % self.references]) for i in range(warm + scaled(600, scale))]
        queries = [(b, corpus.query(b)) for b in picks]
        return {"corpus": corpus, "warmup": queries[:warm], "queries": queries[warm:]}

    def setup(self, inputs: dict) -> WebTier:
        tier = WebTier(DistributedSearchSystem(self.nodes, SERVICE), n_workers=self.workers)
        _rest_enroll_base(tier, inputs["corpus"], range(self.references))
        for _, query in inputs["warmup"]:
            if not tier.handle(_search_request(query)).response.ok:
                raise RuntimeError("warm-up search failed")
        return tier

    def engines(self, tier: WebTier) -> list[TextureSearchEngine]:
        return _cluster_engines(tier.system)

    def run(self, tier: WebTier, inputs: dict, rec) -> None:
        for brick, query in inputs["queries"]:
            _rest_search(rec, tier, brick, query)


class _TimedExecutor:
    """Times each dispatched group around the real executor's
    ``execute`` — the op of the serving workload."""

    name = "perfbench-timed"

    def __init__(self, inner, rec) -> None:
        self.inner = inner
        self.rec = rec
        self.ops: list[Op] = []

    def execute(self, queries):
        with self.rec.timed("search") as op:
            answer = self.inner.execute(queries)
        self.ops.append(op)
        return answer


class ServingFused:
    name = "serving_fused"
    why = ("a Poisson trace batched into fused query groups over 4 shards: the multi-query "
           "kernel path, /search/batch, cluster.search_group and the batcher loop")
    setup_reps = 3
    references = 128
    nodes = 4
    rate_per_s = 3000.0
    policy = serving.BatchPolicy(max_batch=8, max_wait_us=2000.0)

    def generate(self, seed: int, scale: float) -> dict:
        corpus = Corpus(seed, SERVICE)
        n_requests = scaled(480, scale)
        rng = np.random.default_rng([seed, 2])
        bricks = [int(b) for b in rng.integers(0, self.references, n_requests)]
        arrivals = serving.poisson_arrivals(n_requests, self.rate_per_s, seed=SCHEDULE_SEED)
        warm_groups = [
            [corpus.query(int(b)) for b in rng.integers(0, self.references, 6)]
            for _ in range(scaled(2, scale))
        ]
        return {
            "corpus": corpus,
            "warmup": warm_groups,
            "truths": bricks,
            "trace": serving.build_trace(arrivals, [corpus.query(b) for b in bricks]),
        }

    def setup(self, inputs: dict) -> WebTier:
        tier = WebTier(DistributedSearchSystem(self.nodes, SERVICE), n_workers=1)
        _rest_enroll_base(tier, inputs["corpus"], range(self.references))
        executor = serving.WebTierBatchExecutor(tier, top=TOP)
        for group in inputs["warmup"]:
            executor.execute(group)
        return tier

    def engines(self, tier: WebTier) -> list[TextureSearchEngine]:
        return _cluster_engines(tier.system)

    def run(self, tier: WebTier, inputs: dict, rec) -> None:
        executor = _TimedExecutor(serving.WebTierBatchExecutor(tier, top=TOP), rec)
        report = serving.simulate_serving(executor, inputs["trace"], self.policy)
        rec.serving_report = report
        payloads = {record.request_id: record for record in report.records}
        for group, op in zip(report.groups, executor.ops):
            records = [payloads[request_id] for request_id in group.request_ids]
            _judge_search(op, [inputs["truths"][i] for i in group.request_ids],
                          [_answer_from_body(r.result) for r in records],
                          [group.execute_us] + [r.latency_us for r in records])
        for shed in report.rejected:
            rec.ops.append(Op("search", failed=True, error=f"shed: {shed.reason}"))


class MutationMix(RestFanout):
    name = "mutation_mix"
    why = ("rest_fanout's topology with 50% searches, 30% new enrolments, 10% re-enrolments "
           "and 10% deletes: writes never touch a kernel, reads pay for their side effects")

    def generate(self, seed: int, scale: float) -> dict:
        corpus = Corpus(seed, SERVICE)
        rng = np.random.default_rng([seed, 3])
        live = list(range(self.references))
        warm = [(b, corpus.query(b)) for b in
                (int(b) for b in rng.integers(0, self.references, scaled(20, scale)))]
        fresh = self.references
        ops = []
        for draw in np.random.default_rng(SCHEDULE_SEED).random(scaled(600, scale)):
            if draw >= 0.9:
                ops.append(("delete", live.pop(int(rng.integers(len(live)))), None))
            elif draw >= 0.8:
                brick = live[int(rng.integers(len(live)))]
                ops.append(("update", brick, corpus.reference(brick)))
            elif draw >= 0.5:
                live.append(fresh)
                ops.append(("enroll", fresh, corpus.reference(fresh)))
                fresh += 1
            else:
                brick = live[int(rng.integers(len(live)))]
                ops.append(("search", brick, corpus.query(brick)))
        return {"corpus": corpus, "warmup": warm, "ops": ops}

    def run(self, tier: WebTier, inputs: dict, rec) -> None:
        for kind, brick, matrix in inputs["ops"]:
            if kind == "search":
                _rest_search(rec, tier, brick, matrix)
                continue
            if kind == "delete":
                request = Request("DELETE", f"/reference/{brick_id(brick)}")
                expected = (200, "deleted", True)
            else:
                request = _texture_request("/enroll", brick, matrix)
                expected = (201, "updated", False) if kind == "enroll" else (200, "updated", True)
            with rec.timed(kind) as op:
                record = tier.handle(request)
            body = record.response.body
            status, flag, value = expected
            op.failed = record.response.status != status or body.get(flag) is not value
            op.error = f"{record.response.status}: {body}" if op.failed else ""
            op.verdict.append((kind, record.response.status, body.get("node"), body.get("epoch")))
            op.sim_us.append(record.latency_us)


WORKLOADS = {w.name: w for w in (EnginePaper(), RestFanout(), ServingFused(), MutationMix())}
