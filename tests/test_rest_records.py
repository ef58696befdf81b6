"""Descriptor payloads as serialized feature records.

Every route that takes descriptors accepts the bytes of an fp32, scale-1.0
:class:`FeatureRecord` beside nested lists, and answers the two forms of one
float32 matrix alike.  A record that does not decode, or decodes to anything
but the raw ``(d, count)`` descriptors, answers 400 before any side effect.
The package's own web-tier clients send records.
"""

from __future__ import annotations

import copy
import json
import struct
import warnings

import numpy as np
import pytest

from repro.core import EngineConfig
from repro.distributed import DistributedSearchSystem, Request, WebTier, build_api
from repro.distributed.serialization import (
    FeatureRecord,
    serialize_descriptors,
    serialize_record,
)
from repro.serving import (
    BatchPolicy,
    WebTierBatchExecutor,
    build_trace,
    poisson_arrivals,
    simulate_serving,
)
from tests.conftest import make_descriptors, noisy_copy

M, N = 24, 16
CFG = EngineConfig(m=M, n=N, batch_size=2, min_matches=2, scale_factor=0.25)
REFS = 6

#: (method, path, body around one payload) for every route that takes descriptors
ROUTES = [
    ("POST", "/textures", lambda q: {"id": "new", "descriptors": q}),
    ("POST", "/textures", lambda q: {"id": "ref1", "descriptors": q}),  # an update
    ("PUT", "/textures/ref2", lambda q: {"descriptors": q}),
    ("POST", "/enroll", lambda q: {"id": "new", "descriptors": q}),
    ("POST", "/enroll", lambda q: {"id": "ref3", "descriptors": q}),
    ("POST", "/search", lambda q: {"descriptors": q, "top": 3}),
    ("POST", "/search/batch", lambda q: {"queries": [q, q], "top": 3}),
]
ROUTE_IDS = ["add", "re-add", "put", "enroll", "re-enroll", "search", "batch"]


def record(matrix, precision="fp32", scale=1.0) -> bytes:
    """A feature record of ``matrix``; the defaults are what the package's clients send."""
    return serialize_record(FeatureRecord("", np.asarray(matrix), precision, scale))


def cluster() -> DistributedSearchSystem:
    system = DistributedSearchSystem(2, CFG, replication_factor=2)
    for image in range(REFS):
        system.add(f"ref{image}", make_descriptors(M, seed=900 + image))
    return system


def state(system) -> tuple:
    """The KV store, every epoch, every engine's clock and stats, every counter."""
    return (
        system.store.dump(),
        {node.node_id: node.epoch for node in system.nodes},
        {shard: system.epochs.get(shard) for shard in system.groups},
        [(node.engine.device.elapsed_us(), copy.deepcopy(node.engine.stats))
         for node in system.nodes],
        json.dumps(system.obs.registry.snapshot(), sort_keys=True, default=str),
    )


def query() -> np.ndarray:
    return noisy_copy(make_descriptors(M, seed=902)[:, :N], 6.0)


@pytest.mark.parametrize("method, path, wrap", ROUTES, ids=ROUTE_IDS)
def test_a_record_and_a_list_of_one_matrix_answer_alike(method, path, wrap):
    matrix = query() if "search" in path else make_descriptors(M, seed=950)
    as_list, as_record = cluster(), cluster()
    listed = build_api(as_list).handle(Request(method, path, wrap(matrix.tolist())))
    recorded = build_api(as_record).handle(Request(method, path, wrap(record(matrix))))
    assert listed.ok, listed.body
    assert (recorded.status, recorded.body) == (listed.status, listed.body)
    assert state(as_record) == state(as_list)


def _truncated() -> bytes:
    return record(query())[:-5]


def _short_payload() -> bytes:
    """A well-formed record whose matrix field holds one float too few for its (d, m)."""
    body = record(query())
    count = query().size * 4
    head, payload = body[: -count - 3], body[-count:]  # field 7: tag + 2-byte length
    assert body[-count - 3] == (7 << 3) | 2
    shorter = payload[:-4]
    length = len(shorter)
    return head + bytes([(7 << 3) | 2, 0x80 | (length & 0x7F), length >> 7]) + shorter


def _with(value: float) -> bytes:
    matrix = query()
    matrix[3, 5] = value
    return record(matrix)


BAD_RECORDS = {
    "truncated": (_truncated, "malformed descriptor record"),
    "payload length": (_short_payload, "malformed descriptor record"),
    "wrong d": (lambda: record(query()[:-1]), "descriptors must be (128, count)"),
    "nan": (lambda: _with(np.nan), "descriptors contain non-finite values"),
    "inf": (lambda: _with(np.inf), "descriptors contain non-finite values"),
    "fp16": (lambda: record(query(), precision="fp16"), "malformed descriptor record"),
    "scale": (lambda: record(query(), scale=0.25), "malformed descriptor record"),
}


@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
@pytest.mark.parametrize("method, path, wrap", ROUTES, ids=ROUTE_IDS)
def test_a_bad_record_answers_400_and_touches_nothing(method, path, wrap, bad, monkeypatch):
    make, error = BAD_RECORDS[bad]
    system = cluster()
    api = build_api(system)
    calls = []
    for node in system.nodes:
        for name in ("add", "enroll", "add_record", "search", "search_many"):
            original = getattr(node, name)
            monkeypatch.setattr(node, name, lambda *a, _f=original, _n=name, **k: (
                calls.append(_n), _f(*a, **k))[1])
    before = state(system)
    response = api.handle(Request(method, path, wrap(make())))
    assert response.status == 400, response.body
    assert response.body["error"].startswith(error)
    assert state(system) == before
    assert calls == []
    good = query() if "search" in path else make_descriptors(M, seed=950)
    assert api.handle(Request(method, path, wrap(record(good)))).ok  # the record alone was at fault
    assert calls  # and the spies see a shard call


def test_a_record_that_is_not_a_record_answers_400():
    api = build_api(cluster())
    # a later field overrides an earlier one, so each suffix replaces one field
    scale_as_varint = record(query()) + struct.pack("BB", (6 << 3) | 0, 3)
    id_not_utf8 = record(query()) + struct.pack("BBB", (2 << 3) | 2, 1, 0xFF)
    for junk in (b"", b"\xff", b"not a record", scale_as_varint, id_not_utf8):
        response = api.handle(Request("POST", "/search", {"descriptors": junk}))
        assert response.status == 400, junk
        assert response.body["error"].startswith("malformed descriptor record")


class _Spy:
    """A web tier that keeps every request body it forwards."""

    def __init__(self, tier: WebTier) -> None:
        self.tier, self.system, self.bodies = tier, tier.system, []

    def handle(self, request):
        self.bodies.append(request.body)
        return self.tier.handle(request)


def test_the_batch_executor_sends_records_and_gets_the_list_answers():
    rng = np.random.default_rng(7)
    bricks = [int(b) for b in rng.integers(0, REFS, 24)]
    queries = [noisy_copy(make_descriptors(M, seed=900 + b)[:, :N], 6.0, seed=i)
               for i, b in enumerate(bricks)]
    trace = build_trace(poisson_arrivals(len(queries), 3000.0, seed=3), queries)
    spy = _Spy(WebTier(cluster(), n_workers=1))
    report = simulate_serving(WebTierBatchExecutor(spy, top=3), trace,
                              BatchPolicy(max_batch=4, max_wait_us=2000.0))
    assert len(report.groups) > 1 and any(len(g.request_ids) > 1 for g in report.groups)
    assert all(isinstance(q, bytes) for body in spy.bodies for q in body["queries"])

    lists = build_api(cluster())
    for group in report.groups:
        body = {"queries": [queries[i].tolist() for i in group.request_ids], "top": 3}
        response = lists.handle(Request("POST", "/search/batch", body))
        assert response.ok
        assert [report.records[i].result for i in group.request_ids] == response.body["queries"]


def test_web_tier_enroll_sends_a_record(monkeypatch):
    descriptors = make_descriptors(M, seed=960)
    tier, listed = WebTier(cluster(), n_workers=1), WebTier(cluster(), n_workers=1)
    bodies = []
    monkeypatch.setattr(tier, "handle", lambda request: (bodies.append(request.body),
                                                         WebTier.handle(tier, request))[1])
    response = tier.enroll("fresh", descriptors)
    expected = listed.handle(
        Request("POST", "/enroll", {"id": "fresh", "descriptors": descriptors.tolist()}))
    assert [type(body["descriptors"]) for body in bodies] == [bytes]
    assert (response.status, response.body) == (expected.response.status, expected.response.body)
    assert state(tier.system) == state(listed.system)


def test_a_double_past_float32_is_the_servers_400_not_a_client_warning():
    descriptors = make_descriptors(M, seed=961).astype(np.float64)
    assert serialize_descriptors(descriptors) == record(descriptors.astype(np.float32))
    descriptors[3, 5] = 1e308  # finite as a double, inf as float32
    tier = WebTier(cluster(), n_workers=1)
    before = state(tier.system)[:-1]  # the web tier counts the 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        response = tier.enroll("fresh", descriptors)
    assert response.status == 400
    assert response.body["error"] == "descriptors contain non-finite values"
    assert state(tier.system)[:-1] == before
