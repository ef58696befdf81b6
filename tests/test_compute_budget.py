"""The other side of ``tests/test_design_budget.py`` (stdlib ``ast``, and
one search for the threading contract).

The gather's functional plane (``core/compute.py``) stays a small leaf
module with two openers — the gather, which runs its scope, and the
paper tables' timing-only sweep, which never does — and fusing sweeps
added no knob: every
constructor and ``EngineConfig`` keep the parameters they had.  Host tile
lanes stay inside the tile loop: no other module gains a thread, and no
code on a lane reads the caller's context variables.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import threading
from pathlib import Path

import pytest

import repro
from repro.core import EngineConfig, TextureSearchEngine, algorithm2, compute, compute_scope
from repro.distributed import DistributedSearchSystem, SearchNode
from repro.obs import deadline_scope, default_tracer, reqctx, tracing
from tests.conftest import make_descriptors

SRC = Path(repro.__file__).resolve().parent
MAX_LINES = 80


def docstring_lines(tree: ast.Module) -> int:
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            total += doc.end_lineno - doc.lineno + 1
    return total


def test_the_compute_module_stays_small():
    source = inspect.getsource(compute)
    assert len(source.splitlines()) - docstring_lines(ast.parse(source)) <= MAX_LINES


def test_the_compute_module_is_a_leaf_of_core():
    """The ambient-scope idiom is ``contextvars``', not a dependency on the
    tiers that use it: nothing from ``distributed/``, ``serving/`` or ``obs/``."""
    tree = ast.parse(inspect.getsource(compute))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module}"
            assert not node.module.startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("repro") for alias in node.names)


def test_only_the_gather_opens_a_scope():
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "compute_scope":
                    callers.append((path.relative_to(SRC).as_posix(), fn.name))
    assert callers == [("bench/tables.py", "swept"), ("distributed/cluster.py", "_gather")]


def test_fusion_added_no_knob():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "d", "m", "n", "precision", "scale_factor", "backend", "normalization", "batch_size",
        "tensor_core", "ratio_threshold", "min_matches", "streams",
    ]
    parameters = lambda cls: list(inspect.signature(cls.__init__).parameters)[1:]
    assert parameters(TextureSearchEngine) == [
        "config", "device", "host_cache_bytes", "gpu_cache_bytes", "pinned", "kernel",
        "obs",  # the owning system's telemetry handle, not a knob
    ]
    assert parameters(SearchNode) == [
        "node_id", "engine_config", "device_spec", "node_config", "health_policy", "breaker_policy",
        "obs",  # the owning cluster's telemetry handle, not a knob
    ]
    assert parameters(DistributedSearchSystem) == [
        "n_nodes", "engine_config", "device_spec", "node_config", "store",
        "retry_policy", "min_shard_fraction", "auto_failover", "fault_injector", "health_policy",
        "breaker_policy", "router_policy", "replication_factor",
    ]


def test_only_the_tile_loop_starts_host_threads():
    """Host tile lanes live in ``core/algorithm2.py``; the only other user of
    ``threading`` is the KV store's lock.  (``EngineConfig``'s field list —
    no lane knob — is pinned by ``test_fusion_added_no_knob``.)"""
    users = sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if any(word in path.read_text() for word in ("threading", "ThreadPoolExecutor",
                                                     "concurrent.futures"))
    )
    assert users == ["core/algorithm2.py", "distributed/kvstore.py"]


class Watched:
    """A context variable that records every read made on a ``tile-lane``
    thread (such a thread does not inherit the caller's context, so a read
    there sees the default, not the request's)."""

    def __init__(self, var, seen: list):
        self.var, self.seen, self.reads = var, seen, 0

    def get(self, *default):
        self.reads += 1
        if threading.current_thread().name.startswith("tile-lane"):
            self.seen.append(self.var.name)
        return self.var.get(*default)

    def set(self, value):
        return self.var.set(value)

    def reset(self, token):
        self.var.reset(token)


@pytest.fixture
def tracer():
    """The process-wide request tracer, with no spans before the test and
    reset and off after it."""
    tracer = default_tracer()
    tracer.reset()
    yield tracer
    tracer.reset()
    tracer.disable()


def test_nothing_on_a_tile_lane_reads_the_callers_context(monkeypatch, tracer):
    """The deadline, the compute scope and the current span stay on the
    caller's thread: a two-lane search under all of them, with tracing on,
    reads none of them from a lane."""
    seen: list = []
    watched = [(reqctx, "_deadline"), (compute, "_scope"), (tracing, "_current_span")]
    for owner, name in watched:
        monkeypatch.setattr(owner, name, Watched(getattr(owner, name), seen))
    monkeypatch.setattr(algorithm2, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(algorithm2, "_PRODUCT_TILE_BYTES", 1)  # a tile an image
    real_gemm, lane_ran = algorithm2.batched_hgemm, threading.Event()

    def gemm(*args, **kwargs):  # the caller's first tile waits until a lane has one too
        if threading.current_thread().name.startswith("tile-lane"):
            lane_ran.set()
        else:
            lane_ran.wait(timeout=10)
        return real_gemm(*args, **kwargs)

    monkeypatch.setattr(algorithm2, "batched_hgemm", gemm)
    service = EngineConfig(m=24, n=16, batch_size=4, min_matches=2, scale_factor=0.25)
    system = DistributedSearchSystem(2, service)
    for image in range(10):
        system.add(f"ref{image}", make_descriptors(24, seed=image))
    engine = TextureSearchEngine(service)
    for image in range(6):
        engine.add_reference(f"ref{image}", make_descriptors(24, seed=image))
    query = make_descriptors(24, seed=3)[:, :16]
    tracer.enable()
    with deadline_scope(1e12):
        assert system.search(query).best().reference_id == "ref3"
        with compute_scope() as scope:
            result = engine.search(query)
            scope.run()
        assert result.best().reference_id == "ref3"
    assert lane_ran.is_set() and tracer.spans  # two lanes ran, and spans were taken
    assert all(variable.reads for variable in (getattr(owner, name) for owner, name in watched))
    assert seen == []
