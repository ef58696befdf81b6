"""Time-series telemetry and SLO burn-rate alerting: recorder clock
semantics, windowed views, the alert state machine, determinism, and
the REST / stats / Perfetto surfaces."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import DistributedSearchSystem, Request, WebTier
from repro.obs import (
    CRITICAL,
    OK,
    WARNING,
    BurnRateRule,
    MetricsRegistry,
    SeriesSelection,
    SloEngine,
    SloPolicy,
    Observability,
    TimeSeriesRecorder,
    to_perfetto,
)
from repro.obs.metrics import _escape_label_value
from repro.obs.smoke import parse_prometheus
from repro.serving import (
    BatchPolicy,
    FusedEngineExecutor,
    build_trace,
    poisson_arrivals,
    simulate_serving,
)
from tests.conftest import make_descriptors, noisy_copy

BOUNDS = (10.0, 50.0, 100.0, 500.0, 1000.0)


def _recorder(interval_us=1_000.0, retention=64):
    reg = MetricsRegistry()
    return reg, TimeSeriesRecorder(reg, interval_us=interval_us, retention=retention)


class TestRecorderClock:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(interval_us=0.0, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            TimeSeriesRecorder(retention=1, registry=MetricsRegistry())

    def test_baseline_sample_at_zero(self):
        _, rec = _recorder()
        assert len(rec) == 1
        assert rec.samples[0].t_us == 0.0

    def test_samples_land_on_grid(self):
        """Crossing several boundaries scrapes once, stamped at the
        *last* boundary crossed."""
        _, rec = _recorder(interval_us=1_000.0)
        rec.advance_to(3_700.0)
        assert [s.t_us for s in rec.samples] == [0.0, 3_000.0]
        rec.advance_to(3_999.0)  # same interval: no new sample
        assert len(rec) == 2
        rec.advance_to(4_000.0)  # exactly on the boundary
        assert rec.samples[-1].t_us == 4_000.0

    def test_advance_to_is_monotone(self):
        _, rec = _recorder()
        rec.advance_to(5_000.0)
        rec.advance_to(2_000.0)  # stale reading: ignored
        assert rec.now_us == 5_000.0

    def test_advance_by_accumulates(self):
        _, rec = _recorder(interval_us=1_000.0)
        for _ in range(4):
            rec.advance_by(600.0)
        assert rec.now_us == pytest.approx(2_400.0)
        assert [s.t_us for s in rec.samples] == [0.0, 1_000.0, 2_000.0]

    def test_exclusive_scope_suppresses_relative_advances(self):
        _, rec = _recorder()
        with rec.exclusive():
            rec.advance_by(10_000.0)  # nested relative driver: ignored
            assert rec.now_us == 0.0
            rec.advance_to(1_500.0)  # the absolute driver still advances
        rec.advance_by(500.0)  # back outside: relative works again
        assert rec.now_us == pytest.approx(2_000.0)

    def test_flush_takes_off_grid_sample(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("f_total", "f")
        rec.advance_to(1_000.0)
        c.inc(3)
        rec.advance_to(1_400.0)  # no boundary crossed: not yet visible
        assert rec.last("f_total") == 0.0
        rec.flush()
        assert rec.samples[-1].t_us == 1_400.0
        assert rec.last("f_total") == 3.0

    def test_rescrape_same_instant_replaces(self):
        _, rec = _recorder()
        rec.flush()
        rec.flush()
        assert len(rec) == 1  # three scrapes at t=0, one sample

    def test_ring_retention(self):
        _, rec = _recorder(interval_us=1_000.0, retention=4)
        for i in range(1, 11):
            rec.advance_to(i * 1_000.0)
        assert len(rec) == 4
        assert [s.t_us for s in rec.samples] == [
            7_000.0, 8_000.0, 9_000.0, 10_000.0
        ]

    def test_listener_sees_every_sample(self):
        _, rec = _recorder(interval_us=1_000.0)
        seen = []
        rec.add_listener(lambda s: seen.append(s.t_us))
        rec.advance_to(2_500.0)
        rec.remove_listener(rec._listeners[0])
        rec.advance_to(5_000.0)
        assert seen == [2_000.0]

    def test_handle_hooks_noop_without_a_recorder(self):
        obs = Observability()
        obs.advance_to(1_000.0)
        obs.advance_by(1_000.0)
        with obs.exclusive() as attached:
            assert attached is None  # nothing attached: all no-ops
        assert obs.now_us is None
        obs.recorder = rec = TimeSeriesRecorder(obs.registry)
        obs.advance_by(1_500.0)
        assert rec.now_us == obs.now_us == 1_500.0
        with obs.exclusive() as attached:
            assert attached is rec
            obs.advance_by(1_000.0)  # the absolute driver owns the clock
        assert obs.now_us == 1_500.0


class TestWindowedViews:
    def test_counter_delta_and_rate(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("ops_total", "ops")
        c.inc(5)
        rec.advance_to(1_000.0)
        c.inc(10)
        rec.advance_to(2_000.0)
        assert rec.last("ops_total") == 15.0
        assert rec.delta("ops_total", 1_000.0) == 10.0
        # 10 ops over 1000 simulated us = 10_000 ops / simulated second
        assert rec.rate("ops_total", 1_000.0) == pytest.approx(10_000.0)
        assert rec.delta("ops_total", 10_000.0) == 15.0  # clamped to ring

    def test_gauge_last_value(self):
        reg, rec = _recorder(interval_us=1_000.0)
        g = reg.gauge("depth", "queue depth")
        g.set(7)
        rec.advance_to(1_000.0)
        g.set(3)
        rec.advance_to(2_000.0)
        assert rec.last("depth") == 3.0

    def test_delta_clamps_registry_reset(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("r_total", "r")
        c.inc(9)
        rec.advance_to(1_000.0)
        reg.reset()
        rec.advance_to(2_000.0)
        assert rec.delta("r_total", 1_000.0) == 0.0  # not -9

    def test_label_selection_sums_children(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("req_total", "req", ("route", "code"))
        c.labels(route="/a", code="200").inc(4)
        c.labels(route="/a", code="500").inc(1)
        c.labels(route="/b", code="200").inc(2)
        rec.advance_to(1_000.0)
        assert rec.delta("req_total", 1_000.0) == 7.0  # whole family
        assert rec.delta("req_total", 1_000.0, {"route": "/a"}) == 5.0
        assert rec.delta("req_total", 1_000.0, {"code": "200"}) == 6.0
        assert rec.delta("req_total", 1_000.0, {"route": "/c"}) == 0.0

    def test_window_percentile_nearest_rank(self):
        reg, rec = _recorder(interval_us=1_000.0)
        h = reg.histogram("lat_us", "latency", buckets=BOUNDS)
        for v in (5.0, 20.0, 20.0, 80.0, 400.0, 400.0, 400.0, 900.0, 900.0, 2_000.0):
            h.observe(v)
        rec.advance_to(1_000.0)
        # 10 observations; nearest-rank quantised to bucket bounds
        assert rec.window_percentile("lat_us", 50, 1_000.0) == 500.0
        assert rec.window_percentile("lat_us", 10, 1_000.0) == 10.0
        assert rec.window_percentile("lat_us", 90, 1_000.0) == 1_000.0
        assert rec.window_percentile("lat_us", 99, 1_000.0) == math.inf
        with pytest.raises(ValueError):
            rec.window_percentile("lat_us", 0, 1_000.0)
        with pytest.raises(ValueError):
            rec.window_percentile("lat_us", 101, 1_000.0)

    def test_window_sees_only_windowed_observations(self):
        reg, rec = _recorder(interval_us=1_000.0)
        h = reg.histogram("lat_us", "latency", buckets=BOUNDS)
        for _ in range(10):
            h.observe(900.0)  # old slow phase
        rec.advance_to(1_000.0)
        for _ in range(10):
            h.observe(20.0)  # recent fast phase
        rec.advance_to(2_000.0)
        assert rec.window_percentile("lat_us", 95, 1_000.0) == 50.0
        # a window spanning both phases sees the slow tail again
        assert rec.window_percentile("lat_us", 95, 2_000.0) == 1_000.0

    def test_window_error_fraction_snaps_threshold(self):
        reg, rec = _recorder(interval_us=1_000.0)
        h = reg.histogram("lat_us", "latency", buckets=BOUNDS)
        for v in (20.0, 60.0, 60.0, 900.0):
            h.observe(v)
        rec.advance_to(1_000.0)
        # threshold 75 snaps up to bound 100: the 60s become "good"
        assert TimeSeriesRecorder.effective_threshold_us(BOUNDS, 75.0) == 100.0
        assert rec.window_error_fraction("lat_us", 75.0, 1_000.0) == (1, 4)
        # past the last bound: only overflow counts as error
        assert TimeSeriesRecorder.effective_threshold_us(BOUNDS, 5_000.0) == math.inf
        assert rec.window_error_fraction("lat_us", 5_000.0, 1_000.0) == (0, 4)

    def test_unknown_metric_is_empty(self):
        _, rec = _recorder()
        rec.flush()
        assert rec.last("nope_total") == 0.0
        assert rec.delta("nope_total", 1_000.0) == 0.0
        assert rec.window_percentile("nope_us", 99, 1_000.0) == 0.0
        assert rec.histogram_bounds("nope_us") == ()

    def test_history_filters(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("h_total", "h")
        for i in range(1, 5):
            c.inc()
            rec.advance_to(i * 1_000.0)
        out = rec.history(names=["h_total"], since_us=2_000.0, limit=2)
        assert out["n_samples"] == 2
        assert [s["t_us"] for s in out["samples"]] == [3_000.0, 4_000.0]
        assert set(out["meta"]) == {"h_total"}
        rows = out["samples"][-1]["series"]["h_total"]
        assert rows == [{"labels": {}, "value": 4.0}]


@st.composite
def _observations(draw):
    return draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2_000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=0, max_size=60,
        )
    )


def _quantise(value: float) -> float:
    for bound in BOUNDS:
        if value <= bound:
            return bound
    return math.inf


class TestPercentileProperties:
    """Satellite: windowed percentiles from bucket deltas must agree
    with a nearest-rank recomputation over the raw observation stream
    (quantised to bucket bounds — all a histogram can know)."""

    @settings(max_examples=80, deadline=None)
    @given(old=_observations(), new=_observations(),
           p=st.sampled_from([1.0, 50.0, 90.0, 95.0, 99.0, 100.0]))
    def test_windowed_percentile_matches_raw_recompute(self, old, new, p):
        reg = MetricsRegistry()
        rec = TimeSeriesRecorder(
            interval_us=1_000.0, retention=16, registry=reg
        )
        h = reg.histogram("p_us", "p", buckets=BOUNDS)
        for v in old:
            h.observe(v)
        rec.advance_to(1_000.0)
        for v in new:
            h.observe(v)
        rec.advance_to(2_000.0)
        got = rec.window_percentile("p_us", p, 1_000.0)
        if not new:
            assert got == 0.0
            return
        ranked = sorted(_quantise(v) for v in new)
        expect = ranked[max(1, math.ceil(p / 100.0 * len(ranked))) - 1]
        assert got == expect

    @settings(max_examples=40, deadline=None)
    @given(values=_observations(), threshold=st.floats(0.5, 3_000.0))
    def test_error_fraction_matches_raw_recompute(self, values, threshold):
        reg = MetricsRegistry()
        rec = TimeSeriesRecorder(
            interval_us=1_000.0, retention=16, registry=reg
        )
        h = reg.histogram("e_us", "e", buckets=BOUNDS)
        for v in values:
            h.observe(v)
        rec.advance_to(1_000.0)
        errors, total = rec.window_error_fraction("e_us", threshold, 1_000.0)
        effective = TimeSeriesRecorder.effective_threshold_us(BOUNDS, threshold)
        assert total == len(values)
        # overflow observations are always errors: the histogram cannot
        # prove they were under any finite (or snapped-to-inf) threshold
        assert errors == sum(
            1 for v in values
            if _quantise(v) > effective or math.isinf(_quantise(v))
        )


def _latency_policy(**overrides):
    kwargs = dict(
        name="lat", kind="latency", objective=0.9,
        metric="lat_us", threshold_us=100.0,
        critical=BurnRateRule(2_000.0, 6_000.0, 3.0),
        warning=BurnRateRule(4_000.0, 12_000.0, 1.0),
    )
    kwargs.update(overrides)
    return SloPolicy(**kwargs)


class TestSloPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(0.0, 1_000.0, 1.0)
        with pytest.raises(ValueError):
            BurnRateRule(2_000.0, 1_000.0, 1.0)  # fast > slow
        with pytest.raises(ValueError):
            BurnRateRule(1_000.0, 2_000.0, 0.0)
        with pytest.raises(ValueError):
            _latency_policy(kind="throughput")
        with pytest.raises(ValueError):
            _latency_policy(objective=1.0)
        with pytest.raises(ValueError):
            _latency_policy(metric="")
        with pytest.raises(ValueError):
            _latency_policy(clear_hold_us=-1.0)
        with pytest.raises(ValueError):
            _latency_policy(min_events=0)
        with pytest.raises(ValueError):
            SloPolicy(
                name="a", kind="availability", objective=0.99,
                critical=BurnRateRule(1.0, 2.0, 1.0),
                warning=BurnRateRule(1.0, 2.0, 1.0),
            )  # no series selections

    @staticmethod
    def _burns(reg, policy, observations):
        """The ``repro_slo_burn_rate`` series an engine reports after one
        sample over ``observations`` (every window reaches back to t=0)."""
        h = reg.histogram("lat_us", "latency", buckets=BOUNDS)
        rec = TimeSeriesRecorder(reg, interval_us=1_000.0)
        SloEngine([policy], registry=reg).attach(rec)
        for value in observations:
            h.observe(value)
        rec.advance_to(1_000.0)
        return {s["labels"]["window"]: s["value"] for s in reg.snapshot()["repro_slo_burn_rate"]["series"]}

    def test_burn_rate_math(self):
        policy = _latency_policy()  # budget = 0.1
        burns = self._burns(MetricsRegistry(), policy, [20.0] * 7 + [900.0] * 3)
        # 3/10 above 100us -> error fraction 0.3 -> burn 3.0
        assert burns == pytest.approx(dict.fromkeys(
            ("critical_fast", "critical_slow", "warning_fast", "warning_slow"), 3.0))
        assert policy.error_budget == pytest.approx(0.1)

    def test_burn_rate_empty_window_is_zero(self):
        burns = self._burns(MetricsRegistry(), _latency_policy(), [])
        assert burns == dict.fromkeys(("critical_fast", "critical_slow", "warning_fast", "warning_slow"), 0.0)


class TestSloEngine:
    def _engine(self, policies, reg):
        return SloEngine(policies, registry=reg)

    def _drive(self, reg, rec, engine, slow_per_tick, ticks, fast_per_tick=0):
        h = reg.get("lat_us") or reg.histogram("lat_us", "l", buckets=BOUNDS)
        for _ in range(ticks):
            for _ in range(slow_per_tick):
                h.observe(900.0)
            for _ in range(fast_per_tick):
                h.observe(20.0)
            rec.advance_to(rec.now_us + 1_000.0)

    def test_escalates_immediately_and_logs(self):
        reg, rec = _recorder(interval_us=1_000.0)
        reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._engine([_latency_policy()], reg)
        engine.attach(rec)
        assert engine.state_of("lat") == OK
        self._drive(reg, rec, engine, slow_per_tick=5, ticks=3)
        assert engine.state_of("lat") == CRITICAL
        first = engine.log.first_at("lat", CRITICAL)
        assert first is not None and first.previous in (OK, WARNING)
        assert engine.log.worst_state("lat") == CRITICAL
        # alert state mirrored into the registry for the exporters
        assert reg.value("repro_slo_state", policy="lat") == 2.0
        assert reg.value(
            "repro_slo_transitions_total", policy="lat", to="critical"
        ) == 1.0

    def test_hysteresis_holds_then_clears(self):
        reg, rec = _recorder(interval_us=1_000.0)
        reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._engine(
            [_latency_policy(
                critical=BurnRateRule(1_000.0, 2_000.0, 3.0),
                warning=BurnRateRule(1_000.0, 2_000.0, 1.0),
                clear_hold_us=3_000.0,
            )],
            reg,
        )
        engine.attach(rec)
        self._drive(reg, rec, engine, slow_per_tick=5, ticks=3)
        assert engine.state_of("lat") == CRITICAL
        # burns fall silent, but the state holds for clear_hold_us ...
        self._drive(reg, rec, engine, slow_per_tick=0, ticks=2,
                    fast_per_tick=5)
        assert engine.state_of("lat") == CRITICAL
        # ... and only then downgrades
        self._drive(reg, rec, engine, slow_per_tick=0, ticks=4,
                    fast_per_tick=5)
        assert engine.state_of("lat") == OK
        states = [e.state for e in engine.log.for_policy("lat")]
        assert states[-1] == OK and CRITICAL in states

    def test_min_events_gate(self):
        reg, rec = _recorder(interval_us=1_000.0)
        h = reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._engine([_latency_policy(min_events=50)], reg)
        engine.attach(rec)
        h.observe(900.0)  # 1/1 late = burn 10, but only one event
        rec.advance_to(1_000.0)
        assert engine.state_of("lat") == OK

    def test_availability_policy_and_sink(self):
        reg, rec = _recorder(interval_us=1_000.0)
        errors = reg.counter("err_total", "e", ("kind",))
        total = reg.counter("all_total", "t")
        policy = SloPolicy(
            name="avail", kind="availability", objective=0.99,
            error_series=(SeriesSelection("err_total", {"kind": "shed"}),),
            total_series=(SeriesSelection("all_total"),),
            critical=BurnRateRule(1_000.0, 2_000.0, 10.0),
            warning=BurnRateRule(1_000.0, 2_000.0, 2.0),
        )
        engine = self._engine([policy], reg)
        events = []
        engine.add_sink(events.append)
        engine.attach(rec)
        for _ in range(3):
            total.inc(10)
            errors.labels(kind="shed").inc(5)  # 50% errors, budget 1%
            errors.labels(kind="other").inc(50)  # not selected
            rec.advance_to(rec.now_us + 1_000.0)
        assert engine.state_of("avail") == CRITICAL
        assert events and events[-1].state == CRITICAL
        assert events[-1].burn_fast >= 10.0

    def test_detach_stops_evaluation(self):
        reg, rec = _recorder(interval_us=1_000.0)
        reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._engine([_latency_policy()], reg)
        engine.attach(rec)
        engine.detach()
        self._drive(reg, rec, engine, slow_per_tick=5, ticks=3)
        assert engine.state_of("lat") == OK
        assert len(engine.log) == 0

    def test_duplicate_policy_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            SloEngine([_latency_policy(), _latency_policy()], registry=reg)

    def test_to_dict_shape(self):
        reg, rec = _recorder(interval_us=1_000.0)
        reg.histogram("lat_us", "l", buckets=BOUNDS)
        engine = self._engine([_latency_policy()], reg)
        engine.attach(rec)
        self._drive(reg, rec, engine, slow_per_tick=5, ticks=3)
        out = engine.to_dict()
        (entry,) = out["policies"]
        assert entry["name"] == "lat" and entry["state"] == CRITICAL
        assert entry["metric"] == "lat_us"
        assert set(entry["burn"]) == {WARNING, CRITICAL}
        assert out["n_transitions"] == len(out["alerts"]) >= 1

    def test_attached_engine_reports_on_its_own_system_only(self):
        cfg = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)
        mine, other = DistributedSearchSystem(1, cfg), DistributedSearchSystem(1, cfg)
        rec = TimeSeriesRecorder(mine.obs.registry)
        engine = self._engine([_latency_policy()], mine.obs.registry)
        engine.attach(rec)
        mine.obs.recorder, mine.obs.slo = rec, engine
        assert mine.stats()["slo"]["engine"]["enabled"] is True
        assert other.stats()["slo"] == {
            "recorder": {"enabled": False}, "engine": {"enabled": False}, "transitions": {},
        }
        assert other.obs.registry.get("repro_slo_state") is None


class TestDeterminism:
    """Same seed + same trace must give a bit-identical alert timeline
    (the recorder runs on simulated time only — no wall-clock leaks)."""

    def _run_once(self):
        cfg = EngineConfig(m=32, n=32, batch_size=4, min_matches=5,
                           scale_factor=0.25)
        engine = TextureSearchEngine(cfg)
        descs = [make_descriptors(cfg.n, seed=s) for s in range(4)]
        for i, d in enumerate(descs):
            engine.add_reference(f"r{i}", d)
        executor = FusedEngineExecutor(engine)
        queries = [noisy_copy(descs[i % 4], 4.0, seed=i) for i in range(24)]
        _, group_us = executor.execute(queries[:8])
        arrivals = poisson_arrivals(len(queries), 8 / group_us * 1e6 * 3.0,
                                    seed=7)
        trace = build_trace(arrivals, queries)
        recorder = TimeSeriesRecorder(engine.obs.registry, interval_us=group_us / 2.0,
                                      retention=512)
        slo = SloEngine([
            SloPolicy(
                name="lat", kind="latency", objective=0.9,
                metric="repro_serving_latency_us",
                threshold_us=2.0 * group_us,
                critical=BurnRateRule(2 * group_us, 6 * group_us, 2.0),
                warning=BurnRateRule(4 * group_us, 12 * group_us, 1.0),
            ),
        ], engine.obs.registry)
        slo.attach(recorder)
        engine.obs.recorder = recorder
        simulate_serving(
            executor, trace, BatchPolicy(max_batch=8)
        )
        recorder.flush()
        return {
            "alerts": slo.log.to_dicts(),
            "samples": [s.t_us for s in recorder.samples],
        }

    def test_alert_timeline_is_reproducible(self):
        first = self._run_once()
        second = self._run_once()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert len(first["samples"]) > 2  # the run actually sampled


class TestRestAndStatsSurfaces:
    def _tier(self):
        cfg = EngineConfig(m=32, n=32, batch_size=2, min_matches=5,
                           scale_factor=0.25)
        system = DistributedSearchSystem(2, cfg)
        descs = [make_descriptors(cfg.n, seed=40 + i) for i in range(4)]
        for i, d in enumerate(descs):
            system.add(f"r{i}", d)
        return WebTier(system, n_workers=1), descs

    def test_metrics_history_route(self):
        tier, descs = self._tier()
        # no recorder attached: opt-in telemetry answers disabled
        off = tier.handle(Request("GET", "/metrics/history")).response
        assert off.ok and off.body == {"enabled": False, "samples": []}

        obs = tier.system.obs
        obs.recorder = rec = TimeSeriesRecorder(obs.registry, interval_us=1_000.0, retention=64)
        query = noisy_copy(descs[0], 4.0, seed=9).tolist()
        for _ in range(3):
            assert tier.handle(
                Request("POST", "/search", {"descriptors": query})
            ).response.ok
        rec.flush()
        on = tier.handle(
            Request("GET", "/metrics/history",
                    {"names": ["repro_cluster_searches_total"],
                     "limit": 5})
        ).response
        assert on.ok and on.body["enabled"] is True
        assert on.body["n_samples"] >= 1
        assert set(on.body["meta"]) == {"repro_cluster_searches_total"}
        last = on.body["samples"][-1]["series"]
        assert last["repro_cluster_searches_total"][0]["value"] == 3.0

        for bad in (
            {"names": "not-a-list"},
            {"names": [1, 2]},
            {"since_us": "soon"},
            {"limit": "many"},
        ):
            resp = tier.handle(
                Request("GET", "/metrics/history", bad)
            ).response
            assert resp.status == 400

    def test_stats_v7_slo_block(self):
        tier, descs = self._tier()
        stats = tier.handle(Request("GET", "/stats")).response.body
        assert stats["schema_version"] == 9
        assert stats["slo"]["recorder"] == {"enabled": False}
        assert stats["slo"]["engine"] == {"enabled": False}

        obs = tier.system.obs
        rec = TimeSeriesRecorder(obs.registry, interval_us=1_000.0, retention=64)
        engine = SloEngine([
            SloPolicy(
                name="search-availability", kind="availability",
                objective=0.99,
                error_series=(
                    SeriesSelection("repro_cluster_partial_results_total"),
                ),
                total_series=(
                    SeriesSelection("repro_cluster_searches_total"),
                ),
                critical=BurnRateRule(2_000.0, 6_000.0, 10.0),
                warning=BurnRateRule(4_000.0, 12_000.0, 2.0),
            ),
        ], obs.registry)
        engine.attach(rec)
        obs.recorder, obs.slo = rec, engine
        query = noisy_copy(descs[0], 4.0, seed=11).tolist()
        assert tier.handle(
            Request("POST", "/search", {"descriptors": query})
        ).response.ok
        rec.flush()
        stats = tier.handle(Request("GET", "/stats")).response.body
        slo = stats["slo"]
        assert slo["recorder"]["enabled"] is True
        assert slo["recorder"]["n_samples"] >= 1
        assert slo["engine"]["enabled"] is True
        (entry,) = slo["engine"]["policies"]
        assert entry["name"] == "search-availability"
        assert entry["state"] == OK

    def test_perfetto_counter_tracks(self):
        reg, rec = _recorder(interval_us=1_000.0)
        c = reg.counter("track_total", "t", ("k",))
        for i in range(1, 4):
            c.labels(k="a").inc()
            rec.advance_to(i * 1_000.0)
        points = rec.perfetto_counters()
        trace = json.loads(to_perfetto([], counters=points))
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert len(counters) == len(points)
        assert {e["pid"] for e in counters} == {3}
        series = {e["name"] for e in counters}
        assert 'track_total{k=a}' in series
        names = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e.get("name") == "process_name"
        ]
        assert "telemetry" in names
        # values follow the sampled timeline (the t=0 baseline predates
        # the counter's registration, so the track starts at 1)
        track = sorted(
            (e["ts"], e["args"]["value"]) for e in counters
        )
        assert [v for _, v in track] == [1.0, 2.0, 3.0]


class TestHistogramObserveBisect:
    """Satellite: the bisect-based bucket lookup must agree with the
    linear scan it replaced, including on exact bucket bounds."""

    @staticmethod
    def _linear_index(buckets, value):
        for i, bound in enumerate(buckets):
            if value <= bound:
                return i
        return len(buckets)

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=3_000.0,
                          allow_nan=False, allow_infinity=False),
                st.sampled_from(BOUNDS),  # exact bounds: the edge case
            ),
            min_size=1, max_size=40,
        )
    )
    def test_bisect_matches_linear_scan(self, values):
        reg = MetricsRegistry()
        h = reg.histogram("b_us", "b", buckets=BOUNDS)
        expect = [0] * (len(BOUNDS) + 1)
        for v in values:
            h.observe(v)
            expect[self._linear_index(BOUNDS, v)] += 1
        assert list(h.bucket_counts) == expect
        assert h.count == len(values)


class TestLabelValueEscaping:
    """Satellite: Prometheus text format 0.0.4 label-value escaping."""

    def test_escape_rules(self):
        assert _escape_label_value("plain") == "plain"
        assert _escape_label_value("back\\slash") == "back\\\\slash"
        assert _escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert _escape_label_value("two\nlines") == "two\\nlines"
        # escapes-of-escapes stay reversible: backslash first
        assert _escape_label_value('\\"') == '\\\\\\"'

    def test_hostile_values_stay_parseable(self):
        reg = MetricsRegistry()
        c = reg.counter("hostile_total", "h", ("source",))
        hostile = 'C:\\textures\n"brick wall"'
        c.labels(source=hostile).inc(3)
        text = reg.to_prometheus()
        assert "\n\"" not in text.replace("\\n", "")  # newline is escaped
        samples = parse_prometheus(text)  # raises on any malformed line
        series = 'hostile_total{source="C:\\\\textures\\n\\"brick wall\\""}'
        assert samples[series] == 3.0
