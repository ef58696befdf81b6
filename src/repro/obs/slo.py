"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloPolicy` states an objective ("99% of sweeps finish within
2.5 ms", "99.9% of searches complete without shed") and the
:class:`SloEngine` turns the :class:`~repro.obs.timeseries.TimeSeriesRecorder`'s
windowed views into an OK → WARNING → CRITICAL state machine using the
SRE-workbook *multi-window, multi-burn-rate* construction:

* Every objective reduces to a windowed ``(errors, total)`` pair — for
  a latency objective an "error" is an observation above the threshold
  (from histogram bucket deltas); for an availability objective it is
  the delta of an error-counter selection over the delta of a total
  selection.
* ``burn_rate = error_fraction / error_budget`` where the budget is
  ``1 − objective``.  Burn 1.0 spends the budget exactly at the rate
  the objective allows; burn 3.0 exhausts a 30-day budget in 10 days.
* A severity fires only when **both** its fast and its slow window
  burn at or above the rule's threshold: the slow window proves the
  problem is real, the fast window proves it is *still happening*
  (and resets quickly once it stops).
* Hysteresis: severity escalates immediately, but downgrades only
  after the higher severity's rules have been quiet for
  ``clear_hold_us`` of simulated time — a flapping burn rate does not
  produce a flapping alert history.

The engine subscribes to the recorder's sample grid, so evaluation
points are exactly the sample boundaries: the alert timeline is a pure
function of the event timeline and is byte-comparable across runs —
the determinism test in ``tests/test_timeseries_slo.py`` relies on it.

Alert state is also pushed back into the metrics registry
(``repro_slo_state``, ``repro_slo_burn_rate``,
``repro_slo_transitions_total``) so the existing exporters — Prometheus
text, ``GET /stats`` schema v7, Perfetto counter tracks — surface SLO
health with no extra plumbing, and any :class:`AlertSink` (the future
autoscaler) can subscribe for structured events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .metrics import MetricsRegistry
from .timeseries import TimeSeriesRecorder

__all__ = [
    "OK",
    "WARNING",
    "CRITICAL",
    "AlertEvent",
    "AlertLog",
    "BurnRateRule",
    "SloEngine",
    "SloPolicy",
]

OK = "ok"
WARNING = "warning"
CRITICAL = "critical"

#: numeric encoding of states for the ``repro_slo_state`` gauge.
_STATE_LEVEL = {OK: 0, WARNING: 1, CRITICAL: 2}


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate condition.

    Fires when the error budget burns at ``burn_threshold``× the
    sustainable rate over *both* windows.  Classic pairings put the
    fast window at ~1/12 of the slow one.
    """

    fast_window_us: float
    slow_window_us: float
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.fast_window_us <= 0 or self.slow_window_us <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.fast_window_us > self.slow_window_us:
            raise ValueError(
                f"fast window ({self.fast_window_us}) must not exceed "
                f"slow window ({self.slow_window_us})"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")


@dataclass(frozen=True)
class SeriesSelection:
    """A counter selection: metric name plus a (partial) label match,
    summed across matching children."""

    name: str
    labels: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SloPolicy:
    """A declarative service-level objective.

    ``kind="latency"``: ``objective`` of observations of histogram
    ``metric`` (under ``labels``) must finish within ``threshold_us``
    (quantised up to the histogram's bucket resolution).

    ``kind="availability"``: ``objective`` of the ``total_series``
    counter increase must *not* be in the ``error_series`` increase
    (e.g. shed + deadline-missed over all completions).
    """

    name: str
    kind: str  # "latency" | "availability"
    objective: float  # e.g. 0.99 -> 1% error budget
    critical: BurnRateRule
    warning: BurnRateRule
    clear_hold_us: float = 0.0
    # latency policies
    metric: str = ""
    threshold_us: float = 0.0
    labels: Mapping[str, str] = field(default_factory=dict)
    # availability policies
    error_series: tuple[SeriesSelection, ...] = ()
    total_series: tuple[SeriesSelection, ...] = ()
    #: evaluate only when the slow window saw at least this many events
    #: (tiny windows make burn rates of 0/0 or 1/1 meaningless).
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency":
            if not self.metric or self.threshold_us <= 0:
                raise ValueError(
                    "latency policies need a histogram metric and a "
                    "positive threshold_us"
                )
        else:
            if not self.error_series or not self.total_series:
                raise ValueError(
                    "availability policies need error_series and "
                    "total_series selections"
                )
        if self.clear_hold_us < 0:
            raise ValueError("clear_hold_us must be >= 0")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def _window_errors(
        self, recorder: TimeSeriesRecorder, window_us: float
    ) -> tuple[float, float]:
        """(errors, total) for the trailing window under this policy."""
        if self.kind == "latency":
            errors, total = recorder.window_error_fraction(
                self.metric, self.threshold_us, window_us, self.labels
            )
            return float(errors), float(total)
        errors = sum(
            recorder.delta(sel.name, window_us, sel.labels)
            for sel in self.error_series
        )
        total = sum(
            recorder.delta(sel.name, window_us, sel.labels)
            for sel in self.total_series
        )
        return errors, total


@dataclass(frozen=True)
class AlertEvent:
    """One state transition in a policy's alert history."""

    t_us: float
    policy: str
    state: str  # the new state
    previous: str
    burn_fast: float
    burn_slow: float

    def to_dict(self) -> dict:
        return {
            "t_us": self.t_us,
            "policy": self.policy,
            "state": self.state,
            "previous": self.previous,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
        }


class AlertLog:
    """Append-only structured record of every transition."""

    def __init__(self) -> None:
        self.events: list[AlertEvent] = []

    def append(self, event: AlertEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_policy(self, name: str) -> list[AlertEvent]:
        return [e for e in self.events if e.policy == name]

    def first_at(self, name: str, state: str) -> AlertEvent | None:
        """Earliest transition of ``name`` *into* ``state``."""
        for event in self.events:
            if event.policy == name and event.state == state:
                return event
        return None

    def worst_state(self, name: str) -> str:
        worst = OK
        for event in self.events:
            if event.policy != name:
                continue
            if _STATE_LEVEL[event.state] > _STATE_LEVEL[worst]:
                worst = event.state
        return worst

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]


#: structured alert subscriber — the autoscaler/health tier plugs in here.
AlertSink = Callable[[AlertEvent], None]


class _PolicyState:
    __slots__ = ("state", "clear_since_us", "burns")

    def __init__(self) -> None:
        self.state = OK
        #: simulated time since which every rule above the current
        #: state's severity has been quiet (None = not quiet).
        self.clear_since_us: float | None = None
        #: last evaluated burns {severity: (fast, slow)} for stats.
        self.burns: dict[str, tuple[float, float]] = {}


class SloEngine:
    """Evaluates policies on the recorder's sample grid.

    Construct on the registry it reports its state into (the one the
    recorder watches), then :meth:`attach` to the recorder (subscribes
    as a sample listener).  Severity escalates the instant a rule fires;
    it downgrades only after the policy's rules at higher severities
    have been continuously quiet for ``clear_hold_us``.
    """

    def __init__(
        self,
        policies: Sequence[SloPolicy],
        registry: MetricsRegistry,
        sinks: Sequence[AlertSink] = (),
    ) -> None:
        names = [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names in {names}")
        self.policies = tuple(policies)
        self.log = AlertLog()
        self._states = {p.name: _PolicyState() for p in self.policies}
        self._sinks = list(sinks)
        self._recorder: TimeSeriesRecorder | None = None
        self._g_state = registry.gauge(
            "repro_slo_state",
            "Alert state per SLO policy (0=ok, 1=warning, 2=critical)",
            labelnames=("policy",),
        )
        self._g_burn = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn-rate multiple per policy and window",
            labelnames=("policy", "window"),
        )
        self._c_transitions = registry.counter(
            "repro_slo_transitions_total",
            "Alert state transitions per policy and destination state",
            labelnames=("policy", "to"),
        )
        self._c_sink_errors = registry.counter(
            "repro_slo_sink_errors_total",
            "AlertSink callbacks that raised during dispatch (each sink "
            "is isolated, so one hostile sink can neither abort "
            "evaluation nor starve the other sinks)",
        )
        for policy in self.policies:
            self._g_state.labels(policy=policy.name).set(0.0)

    # -- wiring ---------------------------------------------------------
    def attach(self, recorder: TimeSeriesRecorder) -> None:
        if self._recorder is not None:
            self.detach()
        self._recorder = recorder
        recorder.add_listener(self._on_sample)

    def detach(self) -> None:
        if self._recorder is not None:
            self._recorder.remove_listener(self._on_sample)
            self._recorder = None

    def add_sink(self, sink: AlertSink) -> None:
        self._sinks.append(sink)

    # -- evaluation -----------------------------------------------------
    def _on_sample(self, sample) -> None:
        self.evaluate(sample.t_us)

    def evaluate(self, t_us: float) -> None:
        recorder = self._recorder
        if recorder is None:
            return
        for policy in self.policies:
            self._evaluate_policy(policy, recorder, t_us)

    def _rule_fires(
        self,
        policy: SloPolicy,
        rule: BurnRateRule,
        recorder: TimeSeriesRecorder,
    ) -> tuple[bool, float, float]:
        # one windowed (errors, total) query per window — this runs on
        # every sample for every policy, so don't recompute the slow
        # window for the min_events gate
        e_fast, t_fast = policy._window_errors(recorder, rule.fast_window_us)
        e_slow, t_slow = policy._window_errors(recorder, rule.slow_window_us)
        budget = policy.error_budget
        fast = (e_fast / t_fast) / budget if t_fast > 0 else 0.0
        slow = (e_slow / t_slow) / budget if t_slow > 0 else 0.0
        fires = (
            t_slow >= policy.min_events
            and fast >= rule.burn_threshold
            and slow >= rule.burn_threshold
        )
        return fires, fast, slow

    def _evaluate_policy(
        self, policy: SloPolicy, recorder: TimeSeriesRecorder, t_us: float
    ) -> None:
        state = self._states[policy.name]
        crit_fires, crit_fast, crit_slow = self._rule_fires(
            policy, policy.critical, recorder
        )
        warn_fires, warn_fast, warn_slow = self._rule_fires(
            policy, policy.warning, recorder
        )
        state.burns = {
            CRITICAL: (crit_fast, crit_slow),
            WARNING: (warn_fast, warn_slow),
        }
        self._g_burn.labels(policy=policy.name, window="critical_fast").set(crit_fast)
        self._g_burn.labels(policy=policy.name, window="critical_slow").set(crit_slow)
        self._g_burn.labels(policy=policy.name, window="warning_fast").set(warn_fast)
        self._g_burn.labels(policy=policy.name, window="warning_slow").set(warn_slow)

        if crit_fires:
            target = CRITICAL
        elif warn_fires:
            target = WARNING
        else:
            target = OK

        current = state.state
        if _STATE_LEVEL[target] >= _STATE_LEVEL[current]:
            # escalation (or steady state at the firing severity) is
            # immediate, and any firing at >= current severity resets
            # the clear clock.
            state.clear_since_us = None
            if target != current:
                self._transition(
                    policy, state, target, t_us,
                    *(state.burns[target] if target in state.burns else (0.0, 0.0)),
                )
            return
        # target below current: hold the current severity until the
        # rules have been quiet for clear_hold_us of simulated time.
        if state.clear_since_us is None:
            state.clear_since_us = t_us
        if t_us - state.clear_since_us >= policy.clear_hold_us:
            burns = state.burns.get(target, (0.0, 0.0)) if target != OK else (
                warn_fast, warn_slow
            )
            self._transition(policy, state, target, t_us, *burns)
            state.clear_since_us = None

    def _transition(
        self,
        policy: SloPolicy,
        state: _PolicyState,
        target: str,
        t_us: float,
        burn_fast: float,
        burn_slow: float,
    ) -> None:
        event = AlertEvent(
            t_us=t_us,
            policy=policy.name,
            state=target,
            previous=state.state,
            burn_fast=burn_fast,
            burn_slow=burn_slow,
        )
        state.state = target
        self.log.append(event)
        self._g_state.labels(policy=policy.name).set(
            float(_STATE_LEVEL[target])
        )
        self._c_transitions.labels(policy=policy.name, to=target).inc()
        # the state machine committed above; sinks are observers and
        # must not be able to unwind it — a raising sink is counted and
        # skipped, the remaining sinks still see the event
        for sink in list(self._sinks):
            try:
                sink(event)
            except Exception:
                self._c_sink_errors.inc()

    # -- introspection --------------------------------------------------
    def state_of(self, name: str) -> str:
        return self._states[name].state

    def burns_of(self, name: str) -> dict[str, tuple[float, float]]:
        return dict(self._states[name].burns)

    def to_dict(self) -> dict:
        """The ``"slo"`` stats block (schema v7)."""
        policies = []
        for policy in self.policies:
            state = self._states[policy.name]
            entry = {
                "name": policy.name,
                "kind": policy.kind,
                "objective": policy.objective,
                "state": state.state,
                "burn": {
                    sev: {"fast": fast, "slow": slow}
                    for sev, (fast, slow) in sorted(state.burns.items())
                },
            }
            if policy.kind == "latency":
                entry["metric"] = policy.metric
                entry["threshold_us"] = policy.threshold_us
            policies.append(entry)
        return {
            "policies": policies,
            "alerts": self.log.to_dicts(),
            "n_transitions": len(self.log),
        }
