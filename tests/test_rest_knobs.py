"""A JSON boolean is not a number.  Python's ``int(True) == 1`` used to make
``{"budget_us": true}`` a 1 µs deadline (a partial 200) and ``true`` a valid
``top``, ``nprobe``, ``recall_target``, ``since_us`` or ``limit``; every one
of them now answers 400, and the refused request leaves nothing behind."""

from __future__ import annotations

import copy
import json

import pytest

from repro.core import EngineConfig
from repro.distributed import DistributedSearchSystem, Request, build_api
from repro.obs.timeseries import TimeSeriesRecorder
from tests.conftest import make_descriptors, noisy_copy

M, N = 24, 16
CFG = EngineConfig(m=M, n=N, batch_size=2, min_matches=2, scale_factor=0.25)

FIELDS = [
    *(("/search", field) for field in ("top", "nprobe", "recall_target", "budget_us")),
    *(("/search/batch", field) for field in ("top", "nprobe", "recall_target", "budget_us")),
    ("/metrics/history", "since_us"), ("/metrics/history", "limit"),
]


def state(system) -> tuple:
    """The KV store, every epoch, every engine's clock and stats, every counter."""
    return (
        system.store.dump(),
        {node.node_id: node.epoch for node in system.nodes},
        {shard: system.epochs.get(shard) for shard in system.groups},
        [(node.engine.device.elapsed_us(), copy.deepcopy(node.engine.stats)) for node in system.nodes],
        json.dumps(system.obs.registry.snapshot(), sort_keys=True, default=str),
    )


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("path, field", FIELDS)
def test_a_boolean_knob_answers_400_and_touches_nothing(path, field, value):
    system = DistributedSearchSystem(2, CFG, replication_factor=2)
    for image in range(4):
        system.add(f"ref{image}", make_descriptors(M, seed=700 + image))
    query = noisy_copy(make_descriptors(M, seed=701)[:, :N], 6.0).tolist()
    body = {"/search": {"descriptors": query}, "/search/batch": {"queries": [query]}}.get(path, {})
    method = "GET" if path == "/metrics/history" else "POST"
    api = build_api(system)
    system.obs.recorder = TimeSeriesRecorder(system.obs.registry)
    before = state(system)
    response = api.handle(Request(method, path, {**body, field: value}))
    after = state(system)
    assert api.handle(Request(method, path, body)).status == 200  # the knob alone was at fault
    assert response.status == 400, response.body
    assert response.body["error"].startswith(f"'{field}' must be ")
    assert after == before


def history_api():
    """A cluster whose recorder holds four samples (t = 0, 1, 2, 3 ms)."""
    system = DistributedSearchSystem(2, CFG)
    system.obs.recorder = TimeSeriesRecorder(system.obs.registry, interval_us=1_000.0)
    for t_us in (1_000.0, 2_000.0, 3_000.0):
        system.obs.advance_to(t_us)
    return build_api(system)


@pytest.mark.parametrize("since_us", ["nan", float("nan"), "NaN"])
def test_a_nan_since_us_answers_400(since_us):
    """Every ``t_us >= nan`` is false: a NaN bound used to answer 200 with no
    sample at all, as if the history were empty."""
    response = history_api().handle(Request("GET", "/metrics/history", {"since_us": since_us}))
    assert response.status == 400, response.body
    assert response.body["error"].startswith("'since_us' must be ")


@pytest.mark.parametrize("since_us, n_samples", [
    (0.0, 4), (2_000.0, 2), (float("-inf"), 4), ("-inf", 4), (float("inf"), 0), ("inf", 0),
])
def test_a_finite_or_infinite_since_us_is_a_bound(since_us, n_samples):
    response = history_api().handle(Request("GET", "/metrics/history", {"since_us": since_us}))
    assert response.status == 200, response.body
    assert response.body["n_samples"] == n_samples
