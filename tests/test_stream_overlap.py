"""Host-resident batches streamed over several streams, on every backend.

The Sec. 6.2 overlap can hide PCIe transfers and CPU post-processing
behind the device's compute, and nothing else: more streams never make a
sweep slower than one stream, and never bring it below the compute and
D2H the sweep itself charged.  Query preparation is charged before the
sweep's clock starts, so it is left out of that total.
"""

from __future__ import annotations

import pytest

from repro.gpusim import GPUDevice
from tests.conftest import make_descriptors, noisy_copy
from tests.test_sweep_clock import BACKENDS, M, N, engine_for


def queries_for(backend: str, precision: str) -> list[list]:
    genuine = noisy_copy(make_descriptors(M, seed=505)[:, :N], 6.0, seed=1)
    groups = [[genuine]]
    if engine_for(backend, precision, False, 1).kernel.supports_multiquery:
        groups.append([genuine, make_descriptors(N, seed=9999), genuine])
    return groups


def swept(monkeypatch, engine, queries) -> tuple[float, float]:
    """The sweep's ``elapsed_us`` and the compute + D2H µs submitted inside it."""
    charged: list[tuple[str, float]] = []
    submit, sweep = GPUDevice.submit, engine._execute_sweep

    def recording(device, name, duration_us, step=None):
        charged.append((name, duration_us))
        return submit(device, name, duration_us, step)

    def sweep_alone(*args, **kwargs):
        charged.clear()  # the group's query preparation is behind us
        return sweep(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(GPUDevice, "submit", recording)
        patch.setattr(engine, "_execute_sweep", sweep_alone)
        elapsed = engine.search_group(queries).elapsed_us
    return elapsed, sum(us for name, us in charged if name in ("compute", "d2h"))


@pytest.mark.parametrize("streams", [2, 4])
@pytest.mark.parametrize("backend,precision", BACKENDS)
def test_streams_hide_transfers_never_compute(monkeypatch, backend, precision, streams):
    for queries in queries_for(backend, precision):
        serial, _ = swept(monkeypatch, engine_for(backend, precision, True, 1), queries)
        streamed, device_us = swept(monkeypatch, engine_for(backend, precision, True, streams), queries)
        assert streamed <= serial
        assert streamed >= device_us * (1 - 1e-9)
