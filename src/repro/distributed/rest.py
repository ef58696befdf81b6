"""RESTful API layer (Sec. 8: "We can add, delete, update, and search a
texture image through the provided APIs").

An in-process HTTP-like router: requests carry a method, a path and a
JSON-style dict body; responses carry a status code and a dict body.
Routes::

    POST   /textures            {"id": ..., "descriptors": [[...], ...]}
    GET    /textures/{id}
    PUT    /textures/{id}       {"descriptors": [[...], ...]}
    DELETE /textures/{id}
    POST   /enroll              {"id": ..., "descriptors": [[...], ...]}
    DELETE /reference/{id}
    POST   /search              {"descriptors": [[...], ...], "top": k,
                                 "nprobe": p?, "recall_target": r?,
                                 "budget_us": t}   # optional deadline
    POST   /search/batch        {"queries": [[[...], ...], ...], "top": k,
                                 "budget_us": t}
    GET    /stats
    GET    /health
    GET    /elastic
    GET    /metrics
    GET    /metrics/history     {"names": [...]?, "since_us": t?, "limit": n?}

``POST /enroll`` and ``DELETE /reference/{id}`` are the *online*
mutation path: responses carry the shard's new index ``epoch`` (the
read-your-writes handle — search responses echo a ``corpus_epoch``
map to compare against), a crashed target shard answers 503 without
mutating anything, and deletes are idempotent (a tombstone is written
even for unknown ids so stale blobs can never resurrect).

A descriptor payload (each entry of ``queries`` too) takes one of two
forms: ``(d, count)`` nested lists, what a JSON body would carry, or
the bytes of a serialized :class:`~repro.distributed.serialization.FeatureRecord`
(fp32 at scale 1.0, its matrix the raw ``(d, count)`` descriptors:
:func:`~repro.distributed.serialization.serialize_descriptors`) — the
protobuf-style record Sec. 8 ships to the GPU containers, and what the
package's own clients (:meth:`WebTier.enroll`,
:class:`~repro.serving.WebTierBatchExecutor`) send.  A record that does
not decode, is not fp32 at scale 1.0, has the wrong ``d`` or holds a
non-finite value answers 400 as a bad list does.  A well-formed payload
the backend cannot prepare (a negative entry under RootSIFT, FP16
overflow at the configured scale) answers 400 on every route that takes
one, with nothing written, routed or fanned out.  No sockets are
involved — the web tier of the paper's Fig. 6 is reproduced as a
deterministic, testable dispatch layer.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from ..errors import (
    DegradedClusterError,
    InvalidDescriptorsError,
    NodeDownError,
    RestError,
    SerializationError,
    TransientNodeError,
)
from ..core.registry import kernel_class
from ..core.results import Answer, Sweep
from ..obs import deadline_scope
from .cluster import DistributedSearchSystem
from .serialization import deserialize_descriptors

__all__ = ["Request", "Response", "Router", "build_api"]

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.:-]{1,128}$")

#: upper bound on fused query-group size accepted by ``/search/batch``
#: (the serving tier's batcher never exceeds its own ``max_batch``).
MAX_GROUP_SIZE = 64


@dataclass
class Request:
    method: str
    path: str
    body: dict = field(default_factory=dict)


@dataclass
class Response:
    status: int
    body: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Router:
    """Method + path-template dispatch (``{param}`` segments)."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern, Callable]] = []

    def route(self, method: str, template: str):
        pattern = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template) + "$"
        )

        def decorator(fn: Callable) -> Callable:
            self._routes.append((method.upper(), pattern, fn))
            return fn

        return decorator

    def handle(self, request: Request) -> Response:
        matched_path = False
        for method, pattern, fn in self._routes:
            match = pattern.match(request.path)
            if not match:
                continue
            matched_path = True
            if method != request.method.upper():
                continue
            if not isinstance(request.body, dict):
                return Response(400, {"error": "request 'body' must be an object"})
            try:
                return fn(request, **match.groupdict())
            except RestError as exc:
                return Response(exc.status, {"error": str(exc)})
            except InvalidDescriptorsError as exc:  # rejected before any side effect
                return Response(400, {"error": str(exc)})
        if matched_path:
            return Response(405, {"error": f"method {request.method} not allowed"})
        return Response(404, {"error": f"no route for {request.path}"})


def _number(field: str, raw, cast: type):
    """The body's ``field`` value ``raw`` as ``cast`` (``int`` or ``float``), or
    a 400.  A JSON ``true``/``false`` is no number, though ``int(True)`` is 1."""
    try:
        if isinstance(raw, bool):
            raise TypeError(raw)
        return cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        noun = "an integer" if cast is int else "a number"
        raise RestError(400, f"'{field}' must be {noun}, got {raw!r}") from exc


def _parse_top(body: dict) -> int:
    """Optional result count (``top``, default 1) from the body."""
    top = _number("top", body.get("top", 1), int)
    if not (1 <= top <= 100):
        raise RestError(400, "'top' must be in [1, 100]")
    return top


def _parse_budget(body: dict) -> float | None:
    """Optional per-request deadline budget (simulated µs) from the body."""
    raw = body.get("budget_us")
    if raw is None:
        return None
    budget_us = _number("budget_us", raw, float)
    if not budget_us > 0:  # a NaN budget would never expire
        raise RestError(400, f"'budget_us' must be > 0, got {budget_us}")
    return budget_us


def _parse_routing(body: dict) -> tuple[int | None, float | None]:
    """Optional per-request routing knobs (``nprobe``, ``recall_target``)
    from the body; both pass through to the cluster's routing tier and
    are ignored when no router is configured."""
    nprobe = body.get("nprobe")
    if nprobe is not None:
        nprobe = _number("nprobe", nprobe, int)
        if nprobe < 1:
            raise RestError(400, f"'nprobe' must be >= 1, got {nprobe}")
    recall_target = body.get("recall_target")
    if recall_target is not None:
        recall_target = _number("recall_target", recall_target, float)
        if not 0.0 < recall_target <= 1.0:
            raise RestError(
                400, f"'recall_target' must be in (0, 1], got {recall_target}"
            )
    return nprobe, recall_target


def _parse_descriptors(body: dict, d_expected: int) -> np.ndarray:
    """The body's ``descriptors`` — nested lists or a serialized
    :class:`FeatureRecord` — as a finite float32 ``(d, count)`` matrix,
    or a 400."""
    raw = body.get("descriptors")
    if raw is None:
        raise RestError(400, "missing 'descriptors'")
    if isinstance(raw, bytes):
        try:
            matrix = deserialize_descriptors(raw)
        except SerializationError as exc:
            raise RestError(400, f"malformed descriptor record: {exc}") from exc
    else:
        try:
            with np.errstate(over="ignore"):  # a finite double past float32 becomes inf: 400 below
                matrix = np.asarray(raw, dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise RestError(400, f"malformed descriptors: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != d_expected:
        raise RestError(
            400,
            f"descriptors must be ({d_expected}, count), got {list(matrix.shape)}",
        )
    if not np.all(np.isfinite(matrix)):
        raise RestError(400, "descriptors contain non-finite values")
    return matrix


def _run_search(body: dict, search: Callable, queries):
    """Parse the knobs both search routes share (``top``, ``budget_us``,
    ``nprobe``, ``recall_target``), run ``search(queries, nprobe=...,
    recall_target=...)`` under the optional request deadline, and
    return ``(outcome, top)``; a degraded cluster answers 503."""
    top = _parse_top(body)
    budget_us = _parse_budget(body)
    nprobe, recall_target = _parse_routing(body)
    scope = deadline_scope(budget_us) if budget_us is not None else nullcontext()
    try:
        with scope:
            return search(queries, nprobe=nprobe, recall_target=recall_target), top
    except DegradedClusterError as exc:
        raise RestError(503, str(exc)) from exc


#: what every answer of a search response reports of its header, in order
_ANSWER_KEYS = (
    "images_searched", "elapsed_us", "partial", "unsearched_shards",
    "deadline_expired", "images_pruned", "cascade_pruned", "corpus_epoch",
)
_SWEEP_FIELDS = frozenset(f.name for f in fields(Sweep))


def _header(sweep: Sweep, keys) -> dict:
    """Header fields as a JSON body holds them (tuples as lists)."""
    values = {key: getattr(sweep, key) for key in keys}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _query_payload(answer: Answer, top: int, *keys: str) -> dict:
    """The per-query part of a search response (both search routes): the
    ranked matches, then :data:`_ANSWER_KEYS` and ``keys`` of the answer's
    header, then any field a :class:`Sweep` subclass adds."""
    added = [f.name for f in fields(answer.sweep) if f.name not in _SWEEP_FIELDS]
    return {
        "results": [
            {"id": m.reference_id, "score": m.good_matches, "good_matches": m.good_matches}
            for m in answer.top(top)
        ],
        **_header(answer.sweep, (*_ANSWER_KEYS, *keys, *added)),
    }


def _check_id(ref_id: str) -> str:
    if not _ID_PATTERN.match(ref_id):
        raise RestError(400, f"invalid texture id {ref_id!r}")
    return ref_id


def build_api(system: DistributedSearchSystem) -> Router:
    """Wire the Sec. 8 API routes onto a cluster."""
    router = Router()
    d = system.engine_config.d

    @router.route("POST", "/textures")
    def add_texture(request: Request) -> Response:
        ref_id = _check_id(str(request.body.get("id", "")))
        matrix = _parse_descriptors(request.body, d)
        existed = system.has(ref_id)
        node_id = system.add(ref_id, matrix)
        return Response(
            200 if existed else 201,
            {
                "id": ref_id, "node": node_id, "updated": existed,
                "epoch": system.epochs.get(node_id),
            },
        )

    @router.route("POST", "/enroll")
    def enroll(request: Request) -> Response:
        """Online enrollment: like ``POST /textures`` but through the
        epoched mutation path — the response's ``epoch`` is the
        read-your-writes handle, and a crashed/flaky target shard
        answers 503 (retryable) with nothing mutated."""
        ref_id = _check_id(str(request.body.get("id", "")))
        matrix = _parse_descriptors(request.body, d)
        try:
            ack = system.enroll(ref_id, matrix)
        except (NodeDownError, TransientNodeError) as exc:
            raise RestError(503, f"enrollment unavailable: {exc}") from exc
        return Response(
            200 if ack.updated else 201,
            {
                "id": ack.ref_id,
                "node": ack.node_id,
                "epoch": ack.epoch,
                "updated": ack.updated,
            },
        )

    @router.route("DELETE", "/reference/{ref_id}")
    def delete_reference(request: Request, ref_id: str) -> Response:
        """Online deletion; idempotent — deleting an unknown id still
        writes the tombstone and answers 200 with ``deleted: false``."""
        ref_id = _check_id(ref_id)
        ack = system.delete(ref_id)
        return Response(
            200,
            {
                "id": ack.ref_id,
                "node": ack.node_id,
                "epoch": ack.epoch,
                "deleted": ack.deleted,
            },
        )

    @router.route("GET", "/textures/{ref_id}")
    def get_texture(request: Request, ref_id: str) -> Response:
        ref_id = _check_id(ref_id)
        if not system.has(ref_id):
            raise RestError(404, f"texture {ref_id!r} not found")
        blob = system.get_record_bytes(ref_id)
        return Response(
            200,
            {"id": ref_id, "stored_bytes": 0 if blob is None else len(blob)},
        )

    @router.route("PUT", "/textures/{ref_id}")
    def update_texture(request: Request, ref_id: str) -> Response:
        ref_id = _check_id(ref_id)
        if not system.has(ref_id):
            raise RestError(404, f"texture {ref_id!r} not found")
        matrix = _parse_descriptors(request.body, d)
        node_id = system.add(ref_id, matrix)
        return Response(
            200,
            {
                "id": ref_id, "node": node_id, "updated": True,
                "epoch": system.epochs.get(node_id),
            },
        )

    @router.route("DELETE", "/textures/{ref_id}")
    def delete_texture(request: Request, ref_id: str) -> Response:
        ref_id = _check_id(ref_id)
        if not system.has(ref_id):
            raise RestError(404, f"texture {ref_id!r} not found")
        ack = system.delete(ref_id)
        return Response(
            200,
            {"id": ref_id, "deleted": ack.deleted, "epoch": ack.epoch},
        )

    @router.route("POST", "/search")
    def search(request: Request) -> Response:
        matrix = _parse_descriptors(request.body, d)
        answer, top = _run_search(request.body, system.search, matrix)
        return Response(
            200,
            {
                **_query_payload(answer, top),
                "throughput_images_per_s": answer.images_per_s,
                **_header(answer.sweep, ("routed", "unrouted_shards")),
            },
        )

    @router.route("POST", "/search/batch")
    def search_batch(request: Request) -> Response:
        """Fused query-group search: one cluster sweep answers every
        query in the body.  Per-query partial-result metadata
        (``partial``, ``unsearched_shards``) is preserved in each
        query's entry — a shard dying mid-group flags every member."""
        raw_queries = request.body.get("queries")
        if not isinstance(raw_queries, (list, tuple)) or not raw_queries:
            raise RestError(400, "missing or empty 'queries' list")
        if len(raw_queries) > MAX_GROUP_SIZE:
            raise RestError(
                400, f"at most {MAX_GROUP_SIZE} queries per batch, got {len(raw_queries)}"
            )
        backend = system.engine_config.backend
        if len(raw_queries) > 1 and not kernel_class(backend).supports_multiquery:
            raise RestError(
                400,
                f"backend {backend!r} answers one query per request; "
                f"got a batch of {len(raw_queries)}",
            )
        matrices = [
            _parse_descriptors({"descriptors": q}, d) for q in raw_queries
        ]
        sweep, top = _run_search(request.body, system.search_group, matrices)
        return Response(
            200,
            {
                "group_size": len(sweep.answers),
                **_header(sweep, (
                    "elapsed_us", "retries", "partial", "unsearched_shards",
                    "deadline_expired", "routed", "unrouted_shards", "corpus_epoch",
                )),
                "queries": [_query_payload(answer, top, "retries") for answer in sweep.answers],
            },
        )

    @router.route("GET", "/stats")
    def stats(request: Request) -> Response:
        return Response(200, system.stats())

    @router.route("GET", "/elastic")
    def elastic(request: Request) -> Response:
        """Replica topology, lifecycle counts, fleet cost (node-seconds)
        and autoscaler state — the stats v8 ``elastic`` block alone, so
        a control plane can poll it cheaply."""
        return Response(200, system.elastic_report())

    @router.route("GET", "/metrics")
    def metrics(request: Request) -> Response:
        """Prometheus text exposition of the system's own registry."""
        return Response(
            200,
            {
                "content_type": "text/plain; version=0.0.4",
                "text": system.obs.registry.to_prometheus(),
            },
        )

    @router.route("GET", "/metrics/history")
    def metrics_history(request: Request) -> Response:
        """Time-series sample history from the
        :class:`~repro.obs.timeseries.TimeSeriesRecorder` attached to the
        system's handle.  Optional body keys: ``names`` (list of metric
        families), ``since_us`` (drop older samples; NaN is refused, the
        infinities are valid bounds), ``limit`` (keep only the newest N).
        Answers ``enabled: false`` with no recorder attached — history
        is opt-in telemetry, not an error."""
        recorder = system.obs.recorder
        if recorder is None:
            return Response(200, {"enabled": False, "samples": []})
        names = request.body.get("names")
        if names is not None:
            if not isinstance(names, (list, tuple)) or not all(
                isinstance(n, str) for n in names
            ):
                raise RestError(400, "'names' must be a list of metric names")
        raw = request.body.get("since_us")
        since_us = None if raw is None else _number("since_us", raw, float)
        if since_us != since_us:  # NaN: every ``t_us >= nan`` is false
            raise RestError(400, f"'since_us' must be a number, got {raw!r}")
        limit = request.body.get("limit")
        if limit is not None:
            limit = _number("limit", limit, int)
            if limit < 0:
                raise RestError(400, f"'limit' must be >= 0, got {limit}")
        return Response(
            200,
            {
                "enabled": True,
                **recorder.history(names=names, since_us=since_us, limit=limit),
            },
        )

    @router.route("GET", "/health")
    def health(request: Request) -> Response:
        """Cluster health rollup; 503 once nothing can serve."""
        report = system.health_report()
        return Response(200 if report["status"] != "down" else 503, report)

    return router
