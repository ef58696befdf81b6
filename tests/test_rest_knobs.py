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
from repro.obs import default_registry
from repro.obs.timeseries import TimeSeriesRecorder, install_recorder
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
        json.dumps(default_registry().snapshot(), sort_keys=True, default=str),
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
    previous = install_recorder(TimeSeriesRecorder())
    try:
        before = state(system)
        response = api.handle(Request(method, path, {**body, field: value}))
        after = state(system)
        assert api.handle(Request(method, path, body)).status == 200  # the knob alone was at fault
    finally:
        install_recorder(previous)
    assert response.status == 400, response.body
    assert response.body["error"].startswith(f"'{field}' must be ")
    assert after == before
