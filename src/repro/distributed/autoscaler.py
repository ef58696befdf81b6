"""SLO-driven elastic autoscaling on the simulated event clock.

Millions of users means diurnal traffic, not the paper's fixed 14-node
fleet.  The :class:`Autoscaler` closes the loop between the telemetry
the obs layer already produces and the replica-group topology the
cluster now supports:

* **Control inputs.**  It subscribes to the cluster's
  :class:`~repro.obs.timeseries.TimeSeriesRecorder` as a sample
  listener, so decisions land exactly on the deterministic sample grid
  (byte-identical replays for identical event timelines), and to the
  :class:`~repro.obs.slo.SloEngine` as an
  :class:`~repro.obs.slo.AlertSink`, so a CRITICAL burn-rate page can
  boost the scale-up response ahead of the averaged signals.  The
  primary signal is serving queue depth (``repro_serving_queue_depth``)
  normalised per replica — the same target-tracking input real fleets
  use — cross-checked against goodput collapse
  (``repro_serving_completions_total{outcome=...}``) and breaker state.
* **Policy.**  Classic target tracking with a hysteresis band and
  per-direction cooldowns: scale out when the per-replica signal
  exceeds ``target * (1 + band)``, scale in when it falls below
  ``target * (1 - band)``, and never flap faster than the cooldowns
  allow.  All decisions derive from sampled telemetry and the policy —
  no randomness, no wall clock.
* **Actuation.**  Scaling out attaches replicas uniformly across
  shards (sorted order — deterministic) via
  :meth:`DistributedSearchSystem.add_replica`; the new replica warms
  its cache from the KV store and passes the readiness gate before it
  takes reads.  Scaling in drains replicas gracefully via
  :meth:`DistributedSearchSystem.remove_replica`; in-flight work
  finishes before the container is detached.

The autoscaler never drops below one replica per shard and never
exceeds ``max_replicas_per_shard``; cost is visible through
``DistributedSearchSystem.node_seconds`` and the stats v8 ``elastic``
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import default_tracer
from ..obs.slo import CRITICAL, AlertEvent, SloEngine
from ..obs.timeseries import Sample, TimeSeriesRecorder

__all__ = ["Autoscaler", "AutoscalerPolicy", "ScalingEvent"]

_TRACER = default_tracer()


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Target-tracking knobs (all times in simulated microseconds).

    ``target_queue_depth`` is the desired *per-replica* serving queue
    depth; the tracked signal is the sampled cluster queue depth
    divided by the serving replica count.  ``band`` is the hysteresis
    dead zone around the target: inside it the fleet holds, so small
    oscillations never flap the topology.  Scale-out adds
    ``step_out`` replicas per shard tier; scale-in removes
    ``step_in``.  Each direction has its own cooldown — fleets should
    grow eagerly and shrink reluctantly, so the defaults make scale-in
    an order of magnitude slower.  A CRITICAL SLO alert overrides the
    scale-out cooldown once per ``critical_boost_cooldown_us`` (the
    burn-rate pager outranks the averaged queue signal).
    """

    target_queue_depth: float = 4.0
    band: float = 0.25
    window_us: float = 200_000.0
    min_replicas_per_shard: int = 1
    max_replicas_per_shard: int = 4
    step_out: int = 1
    step_in: int = 1
    cooldown_out_us: float = 300_000.0
    cooldown_in_us: float = 2_000_000.0
    critical_boost_cooldown_us: float = 500_000.0

    def __post_init__(self) -> None:
        if self.target_queue_depth <= 0:
            raise ValueError("target_queue_depth must be positive")
        if not 0.0 <= self.band < 1.0:
            raise ValueError(f"band must be in [0, 1), got {self.band}")
        if self.window_us <= 0:
            raise ValueError("window_us must be positive")
        if self.min_replicas_per_shard < 1:
            raise ValueError("min_replicas_per_shard must be >= 1")
        if self.max_replicas_per_shard < self.min_replicas_per_shard:
            raise ValueError(
                "max_replicas_per_shard must be >= min_replicas_per_shard"
            )
        if self.step_out < 1 or self.step_in < 1:
            raise ValueError("scale steps must be >= 1")
        if min(self.cooldown_out_us, self.cooldown_in_us,
               self.critical_boost_cooldown_us) < 0:
            raise ValueError("cooldowns must be >= 0")


@dataclass(frozen=True)
class ScalingEvent:
    """One actuated topology change (for the bench / stats timeline)."""

    t_us: float
    action: str  # "scale_out" | "scale_in"
    reason: str
    signal: float
    replicas_before: int
    replicas_after: int

    def to_dict(self) -> dict:
        return {
            "t_us": self.t_us,
            "action": self.action,
            "reason": self.reason,
            "signal": self.signal,
            "replicas_before": self.replicas_before,
            "replicas_after": self.replicas_after,
        }


class Autoscaler:
    """Deterministic replica autoscaler for one
    :class:`~repro.distributed.cluster.DistributedSearchSystem`.

    Wire-up::

        scaler = Autoscaler(system, policy)
        scaler.attach(recorder)          # decisions on the sample grid
        slo_engine.add_sink(scaler.on_alert)   # optional CRITICAL boost

    Decisions fire from :meth:`on_sample` (one evaluation per telemetry
    sample) and actuate through the cluster's graceful replica
    lifecycle, so a scale-out is only visible to reads after warm-up
    and a scale-in never drops in-flight work.
    """

    def __init__(
        self,
        system,
        policy: AutoscalerPolicy | None = None,
    ) -> None:
        self.system = system
        self.policy = policy or AutoscalerPolicy()
        self._decisions = system.obs.registry.counter(
            "repro_autoscaler_decisions_total",
            "Autoscaler control decisions by action (hold decisions included "
            "so the decision cadence itself is observable)",
            ("action",),
        )
        self.events: list[ScalingEvent] = []
        self._recorder: TimeSeriesRecorder | None = None
        self._last_out_us = -float("inf")
        self._last_in_us = -float("inf")
        self._last_boost_us = -float("inf")
        self._critical_pending = False
        system.autoscaler = self

    # -- wiring ---------------------------------------------------------
    def attach(self, recorder: TimeSeriesRecorder) -> None:
        if self._recorder is not None:
            self.detach()
        self._recorder = recorder
        recorder.add_listener(self.on_sample)

    def detach(self) -> None:
        if self._recorder is not None:
            self._recorder.remove_listener(self.on_sample)
            self._recorder = None

    def subscribe(self, engine: SloEngine) -> None:
        """Register as an :class:`AlertSink` on an SLO engine."""
        engine.add_sink(self.on_alert)

    # -- control inputs -------------------------------------------------
    def on_alert(self, event: AlertEvent) -> None:
        """AlertSink: a CRITICAL page arms a cooldown-bypassing
        scale-out boost consumed at the next sample."""
        if event.state == CRITICAL:
            self._critical_pending = True

    def on_sample(self, sample: Sample) -> None:
        """Sample listener: evaluate the policy at this grid point."""
        self.evaluate(sample.t_us)

    # -- signals --------------------------------------------------------
    def _serving_replicas(self) -> int:
        from .replica import ReplicaState

        return sum(
            1 for node in self.system.nodes
            if node.replica_state is ReplicaState.SERVING
        ) or 1

    def signal(self) -> float:
        """The tracked signal: sampled serving queue depth normalised
        per serving replica."""
        recorder = self._recorder
        if recorder is None:
            return 0.0
        depth = recorder.last("repro_serving_queue_depth")
        return depth / self._serving_replicas()

    def goodput_fraction(self) -> float:
        """Windowed goodput share (completions within deadline over all
        completions) — the cross-check signal: a fleet can have a short
        queue *because* admission is shedding everything."""
        recorder = self._recorder
        if recorder is None:
            return 1.0
        window = self.policy.window_us
        good = recorder.delta(
            "repro_serving_completions_total", window, {"outcome": "good"}
        )
        late = recorder.delta(
            "repro_serving_completions_total", window, {"outcome": "late"}
        )
        shed = recorder.delta("repro_serving_shed_total", window)
        total = good + late + shed
        if total <= 0:
            return 1.0
        return good / total

    def breakers_open(self) -> float:
        """Breaker-open transitions inside the window (capacity that
        exists on paper but is refusing traffic — scale-in veto)."""
        recorder = self._recorder
        if recorder is None:
            return 0.0
        return recorder.delta(
            "repro_breaker_transitions_total", self.policy.window_us,
            {"to": "open"},
        )

    # -- decision -------------------------------------------------------
    def evaluate(self, now_us: float) -> str:
        """One control-loop iteration; returns the action taken
        (``"scale_out"`` / ``"scale_in"`` / ``"hold"``)."""
        self.system.poll_lifecycle()
        policy = self.policy
        signal = self.signal()
        boost = False
        if self._critical_pending:
            self._critical_pending = False
            if now_us - self._last_boost_us >= policy.critical_boost_cooldown_us:
                boost = True
        high = policy.target_queue_depth * (1.0 + policy.band)
        low = policy.target_queue_depth * (1.0 - policy.band)
        degraded = self.goodput_fraction() < 0.99 or self.breakers_open() > 0

        action = "hold"
        if (signal > high and now_us - self._last_out_us >= policy.cooldown_out_us) or boost:
            if self._scale_out(now_us, signal, "critical-alert" if boost else "queue-depth"):
                action = "scale_out"
                self._last_out_us = now_us
                if boost:
                    self._last_boost_us = now_us
        elif (
            signal < low
            and not degraded  # a shedding/breaker-tripping fleet never shrinks
            and now_us - self._last_in_us >= policy.cooldown_in_us
        ):
            if self._scale_in(now_us, signal):
                action = "scale_in"
                self._last_in_us = now_us
        self._decisions.labels(action=action).inc()
        return action

    # -- actuation ------------------------------------------------------
    def _replica_counts(self) -> dict[str, int]:
        return {
            shard_id: len(group.active())
            for shard_id, group in self.system.groups.items()
        }

    def _scale_out(self, now_us: float, signal: float, reason: str) -> bool:
        """Attach ``step_out`` replicas to every shard below the cap
        (uniform tiers over sorted shards — deterministic)."""
        counts = self._replica_counts()
        before = sum(counts.values())
        added = 0
        with _TRACER.span(
            "autoscaler.scale_out", layer="autoscaler", reason=reason,
        ) as span:
            for _ in range(self.policy.step_out):
                for shard_id in sorted(counts):
                    if counts[shard_id] >= self.policy.max_replicas_per_shard:
                        continue
                    self.system.add_replica(shard_id)
                    counts[shard_id] += 1
                    added += 1
            if span is not None:
                span.set(added=added, signal=signal)
        if not added:
            return False
        self.events.append(ScalingEvent(
            t_us=now_us, action="scale_out", reason=reason, signal=signal,
            replicas_before=before, replicas_after=before + added,
        ))
        return True

    def _scale_in(self, now_us: float, signal: float) -> bool:
        """Drain ``step_in`` replicas from every shard above the floor."""
        counts = self._replica_counts()
        before = sum(counts.values())
        removed = 0
        floor = max(self.policy.min_replicas_per_shard, 1)
        with _TRACER.span(
            "autoscaler.scale_in", layer="autoscaler", reason="queue-depth",
        ) as span:
            for _ in range(self.policy.step_in):
                for shard_id in sorted(counts):
                    if counts[shard_id] <= floor:
                        continue
                    self.system.remove_replica(shard_id)
                    counts[shard_id] -= 1
                    removed += 1
            if span is not None:
                span.set(removed=removed, signal=signal)
        if not removed:
            return False
        self.events.append(ScalingEvent(
            t_us=now_us, action="scale_in", reason="queue-depth",
            signal=signal, replicas_before=before,
            replicas_after=before - removed,
        ))
        return True

    # -- introspection --------------------------------------------------
    def to_dict(self) -> dict:
        """The ``autoscaler`` side of the stats v8 ``elastic`` block."""
        policy = self.policy
        return {
            "policy": {
                "target_queue_depth": policy.target_queue_depth,
                "band": policy.band,
                "window_us": policy.window_us,
                "min_replicas_per_shard": policy.min_replicas_per_shard,
                "max_replicas_per_shard": policy.max_replicas_per_shard,
                "cooldown_out_us": policy.cooldown_out_us,
                "cooldown_in_us": policy.cooldown_in_us,
            },
            "signal": self.signal(),
            "events": [event.to_dict() for event in self.events],
            "n_events": len(self.events),
            "decisions": {
                action: self.system.obs.registry.value(
                    "repro_autoscaler_decisions_total", action=action
                )
                for action in ("scale_out", "scale_in", "hold")
            },
        }
