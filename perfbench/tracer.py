"""Span tracing from the outside: timing wrappers around the public
entry points of each layer, installed for the traced pass only.

Spans inside the program are a later issue; here every span is recorded
by a wrapper this file installs around a public function or method, so
a layer's *self time* is the span's duration minus the time its child
spans cover — code between two wrapped boundaries is charged to the
enclosing span's layer.

A module-level function is patched *where it is imported*, not only
where it is defined: ``repro.core.algorithm2`` binds
``functional_topk`` at import, so replacing ``repro.core.topk``'s
attribute alone would record nothing.  :meth:`Tracer.install` therefore
rebinds every attribute of every loaded ``repro`` module that *is* the
original function object.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

import numpy as np

WRAPPED_FLAG = "__perfbench_wrapped__"

# -- counters taken at the same boundaries as the spans -------------------


def _observe_topk(counters, args, result):
    a = args[0]
    counters["topk.columns"] += a.shape[1]
    counters["topk.scanned_bytes"] += a.nbytes


def _observe_batched_hgemm(counters, args, result):
    a, b = args[1], args[2]
    batch, k, m = a.shape
    n = b.shape[1]
    counters["blas.flop"] += 2 * batch * m * n * k
    # computed, not measured: the fp16->fp32 up-cast of both operands
    # plus the fp32->fp16->fp32 rounding round trip of the product
    counters["blas.cast_bytes"] += (a.size + b.size) * 4 + batch * m * n * 6


def _observe_engine_search(counters, args, result):
    engine = args[0]
    cache = engine.cache
    counters["engine.batches_swept"] += cache.gpu_batches + cache.host_batches
    counters["engine.images_swept"] += result.images_searched
    counters["engine.batch_slots"] += (
        (cache.gpu_batches + cache.host_batches) * engine.config.batch_size
    )
    counters["engine.live_images"] += engine.n_references


def _observe_cluster_search(counters, args, result):
    counters["cluster.searches"] += 1
    counters["cluster.shards"] += len(result.corpus_epoch)  # shards that answered
    counters["cluster.retries"] += result.retries


def _observe_kv_write(counters, args, result):
    counters["kvstore.bytes_written"] += len(args[-1])


#: (span name, module, attribute path, counter hook).  The span's layer
#: is the name's first dotted component.
TARGETS = (
    ("topk.functional_topk", "repro.core.topk", "functional_topk", _observe_topk),
    ("blas.batched_hgemm", "repro.blas.gemm", "batched_hgemm", _observe_batched_hgemm),
    ("blas.hgemm", "repro.blas.gemm", "hgemm", None),
    ("blas.sgemm", "repro.blas.gemm", "sgemm", None),
    ("kernel.knn_algorithm2", "repro.core.algorithm2", "knn_algorithm2", None),
    ("kernel.knn_algorithm2_multiquery", "repro.core.query_batching",
     "knn_algorithm2_multiquery", None),
    ("kernel.match_batch", "repro.core.kernels", "Algorithm2Kernel.match_batch", None),
    ("kernel.match_batch_multi", "repro.core.kernels",
     "Algorithm2Kernel.match_batch_multi", None),
    ("ratio_test.match_images_batch", "repro.core.ratio_test", "match_images_batch", None),
    ("ratio_test.batch_ratio_test_masks", "repro.core.ratio_test",
     "batch_ratio_test_masks", None),
    ("features.query_prep", "repro.core.kernels", "Algorithm2Kernel.query_matrix", None),
    ("features.ref_prep", "repro.core.kernels", "Algorithm2Kernel.prepare_reference", None),
    ("engine.search", "repro.core.engine", "TextureSearchEngine.search",
     _observe_engine_search),
    ("engine.search_group", "repro.core.engine", "TextureSearchEngine.search_group",
     _observe_engine_search),
    ("engine.add_reference", "repro.core.engine", "TextureSearchEngine.add_reference", None),
    ("engine.remove_reference", "repro.core.engine",
     "TextureSearchEngine.remove_reference", None),
    ("engine.flush", "repro.core.engine", "TextureSearchEngine.flush", None),
    ("cache.add", "repro.cache.hybrid", "HybridFeatureCache.add", None),
    ("cache.remove", "repro.cache.hybrid", "HybridFeatureCache.remove", None),
    ("node.search", "repro.distributed.node", "SearchNode.search", None),
    ("node.search_many", "repro.distributed.node", "SearchNode.search_many", None),
    ("node.add", "repro.distributed.node", "SearchNode.add", None),
    ("node.remove", "repro.distributed.node", "SearchNode.remove", None),
    ("cluster.search", "repro.distributed.cluster", "DistributedSearchSystem.search",
     _observe_cluster_search),
    ("cluster.search_group", "repro.distributed.cluster",
     "DistributedSearchSystem.search_group", _observe_cluster_search),
    ("cluster.add", "repro.distributed.cluster", "DistributedSearchSystem.add", None),
    ("cluster.enroll", "repro.distributed.cluster", "DistributedSearchSystem.enroll", None),
    ("cluster.remove", "repro.distributed.cluster", "DistributedSearchSystem.remove", None),
    ("cluster.delete", "repro.distributed.cluster", "DistributedSearchSystem.delete", None),
    ("cluster.repair", "repro.distributed.cluster", "DistributedSearchSystem.repair", None),
    ("rest.handle", "repro.distributed.rest", "Router.handle", None),
    ("web.handle", "repro.distributed.loadbalancer", "WebTier.handle", None),
    ("serving.simulate_serving", "repro.serving.batcher", "simulate_serving", None),
    ("serving.execute", "repro.serving.executors", "WebTierBatchExecutor.execute", None),
    ("kvstore.set", "repro.distributed.kvstore", "KVStore.set", _observe_kv_write),
    ("kvstore.hset", "repro.distributed.kvstore", "KVStore.hset", _observe_kv_write),
    ("kvstore.get", "repro.distributed.kvstore", "KVStore.get", None),
    ("kvstore.hget", "repro.distributed.kvstore", "KVStore.hget", None),
    ("kvstore.delete", "repro.distributed.kvstore", "KVStore.delete", None),
    ("kvstore.hdel", "repro.distributed.kvstore", "KVStore.hdel", None),
    ("kvstore.exists", "repro.distributed.kvstore", "KVStore.exists", None),
    ("serialization.serialize_record", "repro.distributed.serialization",
     "serialize_record", None),
    ("serialization.deserialize_record", "repro.distributed.serialization",
     "deserialize_record", None),
) + tuple(
    (f"gpusim.{op}", "repro.gpusim.engine_model", f"GPUDevice.{op}", None)
    for op in ("gemm", "top2_scan", "elementwise", "d2h_result",
               "cpu_postprocess", "h2d", "synchronize")
)

COUNTER_NAMES = (
    "topk.columns", "topk.scanned_bytes", "blas.flop", "blas.cast_bytes",
    "engine.batches_swept", "engine.images_swept",
    "engine.batch_slots", "engine.live_images",
    "cluster.searches", "cluster.shards", "cluster.retries",
    "kvstore.bytes_written",
)


class Tracer:
    """In-memory span recorder.  A span is ``[name id, start ns, end ns,
    parent span index, op index]``; the trace is written out once, when
    the workload ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self.op = -1
        self._window = 0
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_window(self) -> int:
        """Open the timed window: layer totals and counters cover only
        what happens from here on (set-up spans stay in the trace file,
        under their ``bench.setup`` roots, but are not attributed)."""
        for key in self.counters:
            self.counters[key] = 0
        self._window = self.begin("bench.window")
        return self._window

    def begin(self, name: str) -> int:
        """Open a span by hand (the harness's window and op spans)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"unbalanced spans: closed {index}, innermost was {popped}")

    def wrap(self, fn, name: str, observe=None):
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        setattr(wrapper, WRAPPED_FLAG, True)
        return wrapper

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, observe in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self.wrap(original, name, observe))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, observe)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def window_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "self_ms"}}`` over the timed window, plus
        the same per span name under ``"#name"`` keys.  Spans are
        appended in start order and the window is the last root, so its
        descendants are exactly the spans recorded after it."""
        table = np.asarray(self.spans[self._window:], dtype=np.int64)
        duration = table[:, 2] - table[:, 1]
        covered = np.zeros(len(table), dtype=np.int64)
        parent = table[:, 3] - self._window
        np.add.at(covered, parent[1:], duration[1:])
        self_ns = duration - covered
        totals: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = table[:, 0] == name_id
            calls = int(mask.sum())
            self_ms = float(self_ns[mask].sum()) / 1e6
            totals["#" + name] = {"calls": calls, "self_ms": self_ms}
            layer = totals.setdefault(name.split(".", 1)[0], {"calls": 0, "self_ms": 0.0})
            layer["calls"] += calls
            layer["self_ms"] += self_ms
        return totals

    def dump(self, path, workload: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": workload,
                    "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
                separators=(",", ":"),
            )


def leftover_wrappers() -> list[str]:
    """Every still-patched target (empty after a clean uninstall)."""
    found = []
    for _, module_name, path, _ in TARGETS:
        value = importlib.import_module(module_name)
        for part in path.split("."):
            value = getattr(value, part)
        if getattr(value, WRAPPED_FLAG, False):
            found.append(f"{module_name}.{path}")
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if getattr(value, WRAPPED_FLAG, False):
                found.append(f"{loaded_name}.{key}")
    return sorted(set(found))
