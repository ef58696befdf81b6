"""The simulated clock of every backend's sweep, pinned.

``tests/golden/sweep_clock.json`` holds what a scripted engine session left
behind on each backend and precision, recorded before every match kernel
pre-costed its batches (when the Algorithm-1 family still charged typed
device calls inside the sweep loop): matches as ``[reference_id,
good_matches]`` pairs, ``elapsed_us``, the profiler's
``(name, total_us, calls)`` rows, ``EngineStats``, the device clock and a
deadline's ``spent_us``, after every step.  Charges are the same floats
submitted in the same order, so the file must match to the last bit.
Re-record only on purpose, with ``PYTHONPATH=src python -m tests.test_sweep_clock``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import Answer, EngineConfig, TextureSearchEngine
from repro.gpusim import GPUDevice, TESLA_P100
from repro.obs import deadline_scope
from tests.conftest import make_descriptors, noisy_copy, pairs

GOLDEN = Path(__file__).parent / "golden" / "sweep_clock.json"
M, N, BATCH, IMAGES = 24, 16, 4, 11

#: every built-in backend with each precision its ``validate_config`` accepts
BACKENDS = [
    ("algorithm2", "fp16"), ("algorithm2", "fp32"), ("algorithm1", "fp16"), ("algorithm1", "fp32"),
    ("garcia", "fp16"), ("garcia", "fp32"), ("cascade", "fp16"), ("cascade", "fp32"),
    ("opencv", "fp32"), ("lsh", "fp32"),
]
#: session -> (host-resident batches, streams)
SESSIONS = {"L1": (False, 1), "L1+L2/streams=1": (True, 1), "L1+L2/streams=2": (True, 2)}


def engine_for(backend: str, precision: str, host: bool, streams: int) -> TextureSearchEngine:
    """Eleven references in batches of four (the last one partial), two of
    them deleted; ``host`` leaves room for one batch on the device."""
    cfg = EngineConfig(m=M, n=N, batch_size=BATCH, min_matches=2, scale_factor=0.25,
                       backend=backend, precision=precision, streams=streams)
    kwargs = {}
    if host:
        batch_bytes = BATCH * (cfg.feature_matrix_bytes() + 4 * M)
        kwargs = dict(gpu_cache_bytes=batch_bytes, host_cache_bytes=64 * batch_bytes)
    engine = TextureSearchEngine(cfg, device=GPUDevice(TESLA_P100.with_memory(10**8)), **kwargs)
    for image in range(IMAGES):
        engine.add_reference(f"ref{image}", make_descriptors(M, seed=500 + image))
    engine.flush()
    for image in (2, 7):
        engine.remove_reference(f"ref{image}")
    return engine


def left_behind(engine: TextureSearchEngine, outcome) -> dict:
    """Everything one step leaves behind, as plain JSON values."""
    answers = [outcome] if isinstance(outcome, Answer) else outcome.answers
    device = engine.device
    return {
        "sweep": [outcome.elapsed_us, outcome.images_searched, outcome.images_skipped,
                  outcome.images_pruned, outcome.cascade_pruned, outcome.partial],
        "matches": [[list(match) for match in pairs(answer)] for answer in answers],
        "profiler": [[r.name, r.total_us, r.calls] for r in device.profiler.records()],
        "stats": dataclasses.asdict(engine.stats),
        "clock_us": device.elapsed_us(),
    }


def session(backend: str, precision: str, host: bool, streams: int) -> dict:
    """One engine through a genuine search, an impostor, a candidate set, a
    deadline that cuts mid-sweep, a query group where the backend answers one,
    and a genuine and an impostor ``verify``."""
    engine = engine_for(backend, precision, host, streams)
    genuine = noisy_copy(make_descriptors(M, seed=505)[:, :N], 6.0, seed=1)
    impostor = make_descriptors(N, seed=9999)
    steps: dict = {}
    full = engine.search(genuine)
    steps["search/genuine"] = left_behind(engine, full)
    steps["search/impostor"] = left_behind(engine, engine.search(impostor))
    candidates = {"ref1", "ref5", "nobody"}
    steps["search/candidates"] = left_behind(engine, engine.search(genuine, candidate_ids=candidates))
    with deadline_scope(0.5 * full.elapsed_us) as deadline:
        cut = engine.search(genuine)
    steps["search/deadline"] = {**left_behind(engine, cut), "spent_us": deadline.spent_us}
    if engine.kernel.supports_multiquery:
        steps["group/3"] = left_behind(engine, engine.search_group([genuine, impostor, genuine]))
    reference = make_descriptors(M, seed=77)
    verdicts = [engine.verify(reference, noisy_copy(reference[:, :N], 6.0, seed=3)),
                engine.verify(reference, impostor)]
    steps["verify"] = {"verdicts": [list(v) for v in verdicts], "clock_us": engine.device.elapsed_us(),
                       "profiler": [[r.name, r.total_us, r.calls] for r in engine.device.profiler.records()]}
    return steps


def script(backend: str, precision: str) -> dict:
    return {name: session(backend, precision, host, streams)
            for name, (host, streams) in SESSIONS.items()}


def encoded(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


def recorded() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("backend,precision", BACKENDS)
def test_the_sweep_clock_is_the_golden_one(backend, precision):
    want = recorded()[f"{backend}/{precision}"]
    assert encoded(script(backend, precision)) == encoded(want)


def test_every_session_cuts_prunes_and_stages():
    """The golden file exercises what it claims: a deadline cut, a candidate
    prune, host-resident batches and the cascade's prefilter."""
    golden = recorded()
    assert sorted(golden) == sorted(f"{b}/{p}" for b, p in BACKENDS)
    for record in golden.values():
        for name, steps in record.items():
            assert steps["search/deadline"]["sweep"][2] > 0  # images skipped
            assert steps["search/candidates"]["sweep"][3] > 0  # images pruned
            h2d = any(row[0] == "H2D copy" for row in steps["search/genuine"]["profiler"])
            assert h2d == (name != "L1")
    assert all(steps["search/impostor"]["sweep"][4] > 0 for steps in golden["cascade/fp32"].values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(encoded({f"{b}/{p}": script(b, p) for b, p in BACKENDS}))
    print(f"wrote {GOLDEN}")
