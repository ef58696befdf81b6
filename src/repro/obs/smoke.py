"""Observability smoke check — run as ``python -m repro.obs.smoke``.

Drives one tiny end-to-end request through the full stack (web tier →
cluster → node → engine → cache → device) with metrics and tracing
enabled, then verifies the two exported surfaces:

* ``GET /metrics`` returns Prometheus text exposition that a minimal
  parser accepts, with the key series (cache, engine, web) non-zero;
* the request tracer exports valid Perfetto/Chrome JSON whose deepest
  request lane nests at least five layers (web → cluster → node →
  engine → cache);
* the time-series layer end-to-end: a
  :class:`~repro.obs.timeseries.TimeSeriesRecorder` attached to the
  cluster's handle accumulates
  samples on the simulated clock as cluster ops advance it, the SLO
  engine evaluates its policies on the sample grid,
  ``GET /metrics/history`` serves the ring buffer, ``GET /stats``
  reports the schema-v7 ``"slo"`` block, and the Perfetto export
  carries telemetry counter tracks next to the spans.

Exit code 0 on success; any assertion failure is a non-zero exit, so
CI can run this module directly as a smoke step.  The trace is written
to the path given as the first argument (default ``obs_trace.json``)
for artifact upload.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from . import (
    BurnRateRule,
    SeriesSelection,
    SloEngine,
    SloPolicy,
    TimeSeriesRecorder,
    default_tracer,
)


def _make_descriptors(count: int, seed: int, d: int = 32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    desc = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    return (desc * 512.0).astype(np.float32)


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal Prometheus text-format parser: ``{series: value}``.

    Validates the subset the registry emits (HELP/TYPE comments and
    ``name{labels} value`` samples) and raises ``ValueError`` on any
    malformed line — that is the "Prometheus parses it" assertion.
    """
    samples: dict[str, float] = {}
    typed: set[str] = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"malformed comment line: {line!r}")
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"unknown metric type in: {line!r}")
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            raise ValueError(f"unexpected comment line: {line!r}")
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed sample line: {line!r}")
        name = series.split("{", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if name not in typed and base not in typed:
            raise ValueError(f"sample without # TYPE: {line!r}")
        samples[series] = float(value)
    return samples


def run_smoke(trace_path: str = "obs_trace.json") -> dict:
    """Execute the smoke scenario; returns a summary dict (raises on
    any failed check)."""
    from ..core import EngineConfig
    from ..distributed import DistributedSearchSystem, Request, WebTier

    tracer = default_tracer()
    tracer.reset()
    tracer.enable()

    cfg = EngineConfig(m=32, n=32, d=32, batch_size=2, min_matches=3)
    system = DistributedSearchSystem(2, cfg)
    web = WebTier(system, n_workers=2)

    refs = {f"tex-{i}": _make_descriptors(24, seed=100 + i) for i in range(4)}
    for ref_id, desc in refs.items():
        record = web.handle(
            Request("POST", "/textures", {"id": ref_id, "descriptors": desc.tolist()})
        )
        assert record.response.status == 201, record.response

    query = refs["tex-1"] + np.float32(1.0)
    search = web.handle(
        Request("POST", "/search", {"descriptors": query.tolist(), "top": 2})
    )
    assert search.response.ok, search.response
    assert search.response.body["results"], "search returned no matches"

    # ---- metrics surface ------------------------------------------------
    scrape = web.handle(Request("GET", "/metrics")).response
    assert scrape.ok, scrape
    samples = parse_prometheus(scrape.body["text"])
    key_series = [
        "repro_cache_adds_total",
        "repro_engine_sweeps_total",
        'repro_cache_sweep_lookups_total{result="hit"}',
        'repro_web_requests_total{route="search",status="200"}',
        'repro_cluster_searches_total{kind="single"}',
    ]
    for series in key_series:
        value = samples.get(series, 0.0)
        assert value > 0, f"expected non-zero series {series}, got {value}"

    # ---- trace surface --------------------------------------------------
    tracer.export(trace_path)
    with open(trace_path) as fh:
        payload = json.load(fh)
    events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert events, "trace exported no spans"
    layers = {e.get("cat") for e in events}
    required = {"web", "cluster", "node", "engine", "cache"}
    missing = required - layers
    assert not missing, f"trace missing layers: {sorted(missing)}"
    search_traces = [t for t in tracer.traces() if len(tracer.trace_shape(t)) >= 5]
    assert search_traces, "no request trace with >= 5 nesting layers"
    depth = max(
        max(d for d, _, _ in tracer.trace_shape(t)) + 1 for t in search_traces
    )
    assert depth >= 5, f"deepest trace nests {depth} layers, need >= 5"

    # ---- time-series + SLO surface --------------------------------------
    # attach a recorder on the simulated clock (each cluster search
    # advances it by the search's elapsed simulated time) and an SLO
    # engine evaluating on its sample grid
    registry = system.obs.registry
    recorder = TimeSeriesRecorder(registry, interval_us=2_000.0, retention=128)
    engine = SloEngine(
        [
            SloPolicy(
                name="sweep-latency", kind="latency", objective=0.5,
                metric="repro_engine_sweep_us", threshold_us=100.0,
                critical=BurnRateRule(4_000.0, 16_000.0, 1.5),
                warning=BurnRateRule(8_000.0, 32_000.0, 1.0),
            ),
            SloPolicy(
                name="search-availability", kind="availability", objective=0.99,
                error_series=(
                    SeriesSelection("repro_cluster_partial_results_total"),
                ),
                total_series=(SeriesSelection("repro_cluster_searches_total"),),
                critical=BurnRateRule(4_000.0, 16_000.0, 10.0),
                warning=BurnRateRule(8_000.0, 32_000.0, 2.0),
            ),
        ],
        registry,
    )
    engine.attach(recorder)
    system.obs.recorder, system.obs.slo = recorder, engine

    for i in range(6):
        hit = web.handle(
            Request("POST", "/search", {"descriptors": query.tolist(), "top": 1})
        )
        assert hit.response.ok, hit.response
    recorder.flush()
    assert len(recorder) >= 3, (
        f"recorder took {len(recorder)} samples; cluster ops did not "
        "advance the simulated clock"
    )
    search_rate = recorder.rate(
        "repro_cluster_searches_total", recorder.now_us
    )
    assert search_rate > 0, "windowed search rate is zero after 6 searches"
    assert engine.state_of("search-availability") == "ok", (
        "healthy searches tripped the availability SLO: "
        f"{engine.burns_of('search-availability')}"
    )

    history = web.handle(
        Request("GET", "/metrics/history", {"names": [
            "repro_cluster_searches_total", "repro_engine_sweep_us",
        ]})
    ).response
    assert history.ok, history
    assert history.body["enabled"], "history route reports recorder missing"
    assert history.body["n_samples"] == len(recorder)
    newest = history.body["samples"][-1]["series"]
    assert "repro_cluster_searches_total" in newest, sorted(newest)

    stats = web.handle(Request("GET", "/stats")).response
    assert stats.ok, stats
    assert stats.body["schema_version"] == 9, stats.body["schema_version"]
    slo_block = stats.body["slo"]
    assert slo_block["recorder"]["enabled"], slo_block
    assert slo_block["engine"]["enabled"], slo_block
    states = {p["name"]: p["state"] for p in slo_block["engine"]["policies"]}
    assert set(states) == {"sweep-latency", "search-availability"}, states

    counters = recorder.perfetto_counters(["repro_cluster_searches_total"])
    merged = json.loads(tracer.to_perfetto(counters=counters))
    counter_events = [
        e for e in merged["traceEvents"] if e.get("ph") == "C"
    ]
    assert counter_events, "Perfetto export carries no counter tracks"
    assert any(
        e.get("name") == "process_name" and e["args"]["name"] == "telemetry"
        for e in merged["traceEvents"]
    ), "telemetry process metadata missing from Perfetto export"

    tracer.disable()
    return {
        "series_checked": key_series,
        "samples": len(samples),
        "spans": len(events),
        "max_depth": depth,
        "timeseries_samples": len(recorder),
        "slo_states": states,
        "trace_path": trace_path,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    trace_path = argv[0] if argv else "obs_trace.json"
    summary = run_smoke(trace_path)
    print("observability smoke OK")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
