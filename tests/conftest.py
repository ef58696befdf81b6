"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import algorithm2 as algorithm2_module
from repro.gpusim import GPUDevice, KernelCalibration, TESLA_P100, TESLA_V100


def make_descriptors(count: int, seed: int = 0, d: int = 128) -> np.ndarray:
    """SIFT-like descriptors: non-negative, entries capped, L2 norm 512."""
    rng = np.random.default_rng(seed)
    desc = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    desc = np.minimum(desc, 0.2)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    return (desc * 512.0).astype(np.float32)


def noisy_copy(desc: np.ndarray, sigma: float, seed: int = 1) -> np.ndarray:
    """A perturbed (still non-negative, renormalised) copy of ``desc``."""
    rng = np.random.default_rng(seed)
    out = np.maximum(desc + rng.normal(0, sigma, desc.shape).astype(np.float32), 0)
    norms = np.maximum(np.linalg.norm(out, axis=0, keepdims=True), 1e-9)
    return (out / norms * 512.0).astype(np.float32)


#: how a tombstoned slot's id began while batches carried id strings
DEAD_PREFIX = "\x00dead:"


def slot_ids(engine, batch) -> list[str]:
    """What ``batch.ids`` held before references became integer slots, for
    the frozen oracles: each slot's live id from the engine's id table, or
    a dead marker for a tombstone.  The verify oracle's transient one-image
    batch (batch id -1) is in no table and held a sentinel."""
    if batch.batch_id < 0:
        return ["\x00verify"]
    return [
        f"{DEAD_PREFIX}{slot}" if engine._names[slot] is None else engine._names[slot]
        for slot in batch.slots.tolist()
    ]


def tile_sizes(starts: range, images: int) -> list[int]:
    """The images of each tile of a plan (``algorithm2._tile_starts``), in order."""
    return [min(start + starts.step, images) - start for start in starts]


def planned_tiles(images: int, image_bytes: int) -> list[int]:
    """The images of each tile a kernel call over ``images`` images makes, in
    order, at this process's lane count and the module's tile budget (both
    as patched, if they are)."""
    lanes = algorithm2_module._usable_cpus()
    return tile_sizes(algorithm2_module._tile_starts(images, image_bytes, lanes), images)


@pytest.fixture
def p100() -> GPUDevice:
    return GPUDevice(TESLA_P100)


@pytest.fixture
def v100() -> GPUDevice:
    return GPUDevice(TESLA_V100)


@pytest.fixture
def p100_cal() -> KernelCalibration:
    return KernelCalibration.for_device(TESLA_P100)
