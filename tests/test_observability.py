"""Unified observability layer: metrics registry, request tracing,
Perfetto export, REST scrape, and serving meters equivalence."""

import json

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import DistributedSearchSystem, Request, WebTier, build_api
from repro.gpusim import GPUDevice, TESLA_P100, TimelineTracer
from repro.obs import (
    MetricsRegistry,
    RequestTracer,
    TimeSeriesRecorder,
    default_tracer,
    to_perfetto,
)
from repro.obs.smoke import parse_prometheus, run_smoke
from repro.serving import (
    BatchPolicy,
    FusedEngineExecutor,
    ServingReport,
    build_trace,
    simulate_serving,
)
from tests.conftest import make_descriptors, noisy_copy, pairs

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


@pytest.fixture
def tracer():
    """The process-wide request tracer, enabled, with no spans before the
    test and reset and off after it."""
    tracer = default_tracer()
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.reset()
    tracer.disable()


class TestMetricsRegistry:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "ops", ("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc(2)
        c.labels(kind="b").inc()
        assert reg.value("ops_total", kind="a") == 3
        assert reg.value("ops_total", kind="b") == 1
        assert reg.value("ops_total", kind="missing") == 0

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x")
        b = reg.counter("x_total", "x")
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x")  # same name, different type

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth")
        g.set(5)
        g.inc()
        g.inc(-2)
        assert reg.value("depth") == 4

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_us", "latency", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.mean == pytest.approx(555.5 / 4)

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("y_total", "y", ("k",))
        child = c.labels(k="v")
        child.inc(7)
        reg.reset()
        assert reg.value("y_total", k="v") == 0
        child.inc()  # pre-bound child still wired to the registry view
        assert reg.value("y_total", k="v") == 1

    def test_disable_is_a_kill_switch(self):
        reg = MetricsRegistry()
        c = reg.counter("z_total", "z")
        reg.disable()
        c.inc()
        assert reg.value("z_total") == 0
        reg.enable()
        c.inc()
        assert reg.value("z_total") == 1

    def test_json_snapshot_roundtrips(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a").inc()
        reg.histogram("b_us", "b", buckets=(1.0,)).observe(2.0)
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload["a_total"]["type"] == "counter"
        assert payload["b_us"]["type"] == "histogram"

    def test_prometheus_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", ("route",)).labels(route="search").inc(3)
        reg.gauge("depth", "queue").set(2)
        h = reg.histogram("lat_us", "latency", buckets=(10.0, 100.0))
        h.observe(5.0)
        h.observe(50.0)
        samples = parse_prometheus(reg.to_prometheus())
        assert samples['req_total{route="search"}'] == 3
        assert samples["depth"] == 2
        assert samples['lat_us_bucket{le="10"}'] == 1
        assert samples['lat_us_bucket{le="100"}'] == 2
        assert samples['lat_us_bucket{le="+Inf"}'] == 2
        assert samples["lat_us_count"] == 2
        assert samples["lat_us_sum"] == 55


class TestRequestTracer:
    def test_disabled_tracer_yields_none(self):
        tracer = RequestTracer()
        with tracer.span("op") as span:
            assert span is None
        assert tracer.spans == []

    def test_spans_nest_within_parents(self):
        tracer = RequestTracer()
        tracer.enable()
        with tracer.span("outer", layer="web"):
            with tracer.span("mid", layer="cluster"):
                with tracer.span("inner", layer="engine"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        outer, mid, inner = by_name["outer"], by_name["mid"], by_name["inner"]
        assert outer.trace_id == mid.trace_id == inner.trace_id
        assert (mid.parent_id, inner.parent_id) == (outer.span_id, mid.span_id)
        assert (outer.depth, mid.depth, inner.depth) == (0, 1, 2)
        # temporal containment: each child strictly inside its parent
        assert outer.start_us <= mid.start_us <= inner.start_us
        assert inner.end_us <= mid.end_us <= outer.end_us

    def test_sibling_roots_get_distinct_traces(self):
        tracer = RequestTracer()
        tracer.enable()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert len(tracer.traces()) == 2

    def test_annotate_hits_active_span(self):
        tracer = RequestTracer()
        tracer.enable()
        with tracer.span("op"):
            tracer.annotate(items=4)
        assert tracer.spans[0].attrs["items"] == 4

    def test_perfetto_roundtrips_json(self):
        tracer = RequestTracer()
        tracer.enable()
        with tracer.span("outer", layer="web"):
            with tracer.span("inner", layer="engine"):
                pass
        payload = json.loads(tracer.to_perfetto())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        assert all(e["pid"] == 1 for e in events)

    def test_perfetto_merges_engine_events(self):
        tracer = RequestTracer()
        tracer.enable()
        device = GPUDevice(TESLA_P100)
        timeline = TimelineTracer()
        with timeline.attached(device):
            with tracer.span("request", layer="web"):
                device.submit("compute", 5.0, step="GEMM")
                device.submit("d2h", 1.0, step="result")
                device.submit("compute", 2.0, step="sqrt")
        payload = json.loads(to_perfetto(tracer.spans, timeline.events))
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2}
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"requests", "device"}
        # device lanes: one per engine, named by thread-name metadata
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 2
        }
        assert sorted(lanes.values()) == ["compute", "d2h"]
        device_events = [e for e in payload["traceEvents"] if e["ph"] == "X" and e["pid"] == 2]
        # one event per submit: named by its step, lasting the charged us,
        # categorised by and drawn in its engine's lane
        assert [(e["name"], e["dur"], e["cat"]) for e in device_events] == [
            ("GEMM", 5.0, "compute"), ("result", 1.0, "d2h"), ("sqrt", 2.0, "compute")]
        assert all(lanes[e["tid"]] == e["cat"] for e in device_events)


def _small_system(n_refs=6):
    system = DistributedSearchSystem(2, CFG)
    descs = {i: make_descriptors(32, seed=2200 + i) for i in range(n_refs)}
    for i, d in descs.items():
        system.add(f"r{i}", d)
    return system, descs


class TestCrossTierTracing:
    def test_group_of_one_matches_plain_search(self, tracer):
        """A fused group of one must walk the same engine/cache span
        structure as a plain search — the executor paths converged."""
        system, descs = _small_system()
        query = noisy_copy(descs[1], 8.0, seed=21)
        system.search(query)
        system.search_group([query])
        shapes = [tracer.trace_shape(t) for t in tracer.traces()]
        assert len(shapes) == 2
        inner = [
            [(d, layer, name) for d, layer, name in shape
             if layer in ("engine", "cache")]
            for shape in shapes
        ]
        assert inner[0] == inner[1]
        assert inner[0], "no engine/cache spans recorded"

    def test_webtier_trace_nests_five_layers(self, tracer):
        system, descs = _small_system()
        tier = WebTier(system, n_workers=1)
        query = noisy_copy(descs[0], 8.0, seed=22).tolist()
        response = tier.handle(
            Request("POST", "/search", {"descriptors": query})
        ).response
        assert response.ok
        (trace_id,) = tracer.traces().keys()
        shape = tracer.trace_shape(trace_id)
        layers_by_depth = {d: layer for d, layer, _ in shape}
        assert layers_by_depth[0] == "web"
        assert layers_by_depth[1] == "cluster"
        assert layers_by_depth[2] == "node"
        assert layers_by_depth[3] == "engine"
        assert layers_by_depth[4] == "cache"

    def test_smoke_module(self, tmp_path, tracer):
        summary = run_smoke(str(tmp_path / "trace.json"))
        assert summary["max_depth"] >= 5
        assert (tmp_path / "trace.json").exists()

    def test_metrics_route_scrapes_registry(self):
        system, descs = _small_system()
        tier = WebTier(system, n_workers=1)
        system.search(noisy_copy(descs[0], 8.0, seed=23))
        scrape = tier.handle(Request("GET", "/metrics")).response
        assert scrape.ok
        assert scrape.body["content_type"].startswith("text/plain")
        samples = parse_prometheus(scrape.body["text"])
        assert samples['repro_cluster_searches_total{kind="single"}'] == 1
        hits = samples.get('repro_cache_sweep_lookups_total{result="hit"}', 0)
        misses = samples.get('repro_cache_sweep_lookups_total{result="miss"}', 0)
        assert hits + misses > 0


def test_two_clusters_keep_their_own_telemetry():
    """Two clusters in one process: everything cluster A counts, records
    and clocks stays out of cluster B's ``/stats``, ``/metrics``, fleet
    cost and registry — B did nothing, so B reads zero everywhere."""
    a, b = DistributedSearchSystem(2, CFG), DistributedSearchSystem(3, CFG)
    a.obs.recorder = TimeSeriesRecorder(a.obs.registry, interval_us=1_000.0)
    descs = [make_descriptors(32, seed=2400 + i) for i in range(6)]
    for i, desc in enumerate(descs):
        a.enroll(f"r{i}", desc)
    for i in range(5):
        assert pairs(a.search(noisy_copy(descs[i], 8.0, seed=24 + i)))
    assert a.node_seconds() > 0.0
    assert a.obs.registry.value("repro_enrollment_ops_total", op="enroll") == 6
    assert a.stats()["fault_tolerance"]["searches_single_total"] == 5

    api = build_api(b)  # the routes alone: a web tier would count these reads
    stats = api.handle(Request("GET", "/stats")).body
    for block in ("fault_tolerance", "cache", "enrollment"):
        counters = {k: v for k, v in stats[block].items() if k.endswith("_total")}
        assert counters and not any(counters.values()), (block, counters)
    scrape = api.handle(Request("GET", "/metrics")).body["text"]
    assert not {k: v for k, v in parse_prometheus(scrape).items() if v}
    assert b.node_seconds() == 0.0
    assert b.obs.registry.value("repro_enrollment_ops_total", op="enroll") == 0.0
    assert b.obs.registry.get("repro_enrollment_ops_total")._children == {}


class TestServingMeters:
    def _report(self):
        rng = np.random.default_rng(3)
        engine = TextureSearchEngine(CFG)
        descs = [make_descriptors(32, seed=2300 + i) for i in range(4)]
        for i, d in enumerate(descs):
            engine.add_reference(f"r{i}", d)
        queries = [
            noisy_copy(descs[int(rng.integers(0, 4))], 8.0, seed=i)
            for i in range(9)
        ]
        arrivals = [float(i * 100) for i in range(9)]
        self.registry = engine.obs.registry
        return simulate_serving(
            FusedEngineExecutor(engine),
            build_trace(arrivals, queries),
            BatchPolicy(max_batch=4, max_wait_us=500.0),
        )

    def test_meters_match_record_recomputation_bitwise(self):
        # the registry's group-size series and the report's figures, read
        # off its group records, count the same launches exactly
        report = self._report()
        recomputed = ServingReport(
            policy=report.policy, records=report.records, groups=report.groups
        )
        assert report.mean_group_size == recomputed.mean_group_size
        assert report.fused_occupancy == recomputed.fused_occupancy
        hist = self.registry.get("repro_serving_group_size")
        assert hist.count == len(report.groups)
        assert hist.sum / hist.count == report.mean_group_size

    def test_peak_queue_depth_tracked(self):
        report = self._report()
        assert report.peak_queue_depth >= 1
        assert report.to_dict()["peak_queue_depth"] == report.peak_queue_depth

    def test_queue_depth_gauge_settles_to_zero_after_drain(self):
        # the loop's final observation: once every request has been
        # dispatched the gauge must read an empty queue, not whatever
        # depth the last group left behind
        report = self._report()
        assert self.registry.value("repro_serving_queue_depth") == 0.0
        assert report.peak_queue_depth >= 1

    def test_serving_registry_series(self):
        self._report()
        reg = self.registry
        assert reg.value("repro_serving_requests_total") == 9
        size = reg.value("repro_serving_groups_total", trigger="size")
        timeout = reg.value("repro_serving_groups_total", trigger="timeout")
        assert size + timeout >= 3  # 9 requests, groups of <= 4
