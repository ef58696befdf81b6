"""Section 8 — the distributed texture search system.

Paper: 14 Tesla P100 containers, each with 4 GB reserved of its 16 GB
card and 64 GB host memory (76 GB hybrid cache/container, 1,064 GB
total), caching 10.8 M reference matrices (m=384, FP16) and searching
872,984 images/s — million-scale search in ~1.15 s.

Two parts:

* **capacity/throughput arithmetic** at the paper's full scale: one
  container's capacity, and its speed read off the Table 7 cell of the
  production dimensions (:func:`.table7_asymmetric.cell_speed`, no
  functional compute needed);
* a **functional mini-cluster** (scaled-down descriptors) that actually
  enrols, shards, serialises and answers a search through the REST API,
  verifying the machinery end-to-end.
"""

from __future__ import annotations

import numpy as np

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...distributed.cluster import DistributedSearchSystem
from ...distributed.rest import Request, build_api
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.engine_model import GPUDevice
from ..tables import ExperimentResult
from .table7_asymmetric import cell_speed

__all__ = ["run"]

GIB = 1024**3


def run(
    spec: DeviceSpec = TESLA_P100,
    n_nodes: int = 14,
    m: int = 384,
    n: int = 768,
    d: int = 128,
    host_cache_bytes: int = 64 * 10**9,
    gpu_reserved_bytes: int = 4 * GIB,
    functional_nodes: int = 3,
    functional_bricks: int = 12,
    seed: int = 0,
) -> ExperimentResult:
    cal = KernelCalibration.for_device(spec)

    # --- full-scale arithmetic -------------------------------------------
    production = EngineConfig(m=m, n=n, d=d, precision="fp16")
    container = TextureSearchEngine(
        production, device=GPUDevice(spec, cal, reserved_bytes=gpu_reserved_bytes),
        host_cache_bytes=host_cache_bytes,
    )
    node_cache_bytes = container.cache.gpu_budget_bytes + container.cache.host_budget_bytes
    cluster_capacity = container.capacity_images() * n_nodes

    # Per-GPU speed: the Table 7 m / n cell (batch 256, GPU-resident), as
    # the paper quotes it (872,984 / 14 = 62,356, its m=384 / n=768 cell).
    per_gpu_speed = cell_speed(spec, m, n, d)
    cluster_speed = per_gpu_speed * n_nodes
    million_scale_s = 1_000_000 / cluster_speed

    result = ExperimentResult(
        name=f"Sec. 8: distributed system ({n_nodes} x {spec.name}, m={m} n={n} FP16)",
        headers=["quantity", "model", "paper"],
    )
    result.rows.append(["feature matrix bytes", production.feature_matrix_bytes(), 98304])
    result.rows.append(["hybrid cache per container (GB)", round(node_cache_bytes / 1e9, 1), 76])
    result.rows.append(["total cache (GB)", round(node_cache_bytes * n_nodes / 1e9, 0), 1064])
    result.rows.append(["cached matrices (M)", round(cluster_capacity / 1e6, 2), 10.8])
    result.rows.append(["per-GPU speed (img/s)", int(round(per_gpu_speed)), 62356])
    result.rows.append(["cluster speed (img/s)", int(round(cluster_speed)), 872984])
    result.rows.append(["million-image search (s)", round(million_scale_s, 2), 1.15])

    # --- functional mini-cluster -----------------------------------------
    rng = np.random.default_rng(seed)
    config = EngineConfig(m=48, n=64, batch_size=4, min_matches=5)
    system = DistributedSearchSystem(functional_nodes, config, spec)
    api = build_api(system)
    descs = {}
    for brick in range(functional_bricks):
        raw = rng.random((d, 48)).astype(np.float32)
        descs[brick] = raw / np.linalg.norm(raw, axis=0, keepdims=True) * 512
        response = api.handle(
            Request("POST", "/textures", {"id": f"brick-{brick}", "descriptors": descs[brick].tolist()})
        )
        assert response.status == 201, response.body
    target = functional_bricks // 2
    query = np.abs(descs[target] + rng.normal(0, 3, descs[target].shape)).astype(np.float32)
    response = api.handle(Request("POST", "/search", {"descriptors": query.tolist()}))
    top = response.body["results"][0]
    result.summary = {
        "functional_top1_id": top["id"],
        "functional_top1_correct": top["id"] == f"brick-{target}",
        "functional_images_searched": response.body["images_searched"],
        "cluster_capacity_images": cluster_capacity,
        "cluster_speed_images_per_s": cluster_speed,
    }
    result.notes.append(
        f"functional mini-cluster: {functional_nodes} nodes, "
        f"{functional_bricks} bricks sharded round-robin via the REST API"
    )
    return result
