"""The other side of ``tests/test_design_budget.py`` (stdlib ``ast`` only).

The gather's functional plane (``core/compute.py``) stays a small leaf
module with one opener, and fusing sweeps added no knob: every
constructor and ``EngineConfig`` keep the parameters they had.  Host tile
lanes stay inside the tile loop: no other module gains a thread.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.core import EngineConfig, TextureSearchEngine, compute
from repro.distributed import DistributedSearchSystem, SearchNode

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
    assert callers == [("distributed/cluster.py", "_gather")]


def test_fusion_added_no_knob():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "d", "m", "n", "precision", "scale_factor", "backend", "normalization", "batch_size",
        "sort_kind", "tensor_core", "ratio_threshold", "min_matches", "streams", "k",
    ]
    parameters = lambda cls: list(inspect.signature(cls.__init__).parameters)[1:]
    assert parameters(TextureSearchEngine) == [
        "config", "device", "host_cache_bytes", "gpu_cache_bytes", "pinned", "kernel",
    ]
    assert parameters(SearchNode) == [
        "node_id", "engine_config", "device_spec", "node_config", "health_policy", "backend",
        "breaker_policy",
    ]
    assert parameters(DistributedSearchSystem) == [
        "n_nodes", "engine_config", "device_spec", "node_config", "store", "placement",
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
