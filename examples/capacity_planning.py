#!/usr/bin/env python
"""Capacity planning: how many reference textures fit on a node?

Builds an engine per configuration — precision, feature count m,
hybrid-cache size — and reads what its two-level cache can hold, which
shows where the headline "20x larger capacity" (Fig. 1) comes from.
"""

from repro import EngineConfig, TextureSearchEngine
from repro.bench.tables import format_table
from repro.gpusim import GPUDevice, TESLA_P100

GIB = 1024**3
HOST = 64 * 10**9


def main() -> None:
    rows = []
    configs = [
        ("FP32, m=768, GPU only (baseline)",
         EngineConfig(m=768, precision="fp32", backend="opencv"), 0, 0),
        ("FP16, m=768, GPU only (Sec. 6: ~85k)", EngineConfig(m=768), 0, 0),
        ("FP16, m=768, +64 GB host", EngineConfig(m=768), 0, HOST),
        ("FP16, m=384, +64 GB host", EngineConfig(m=384), 0, HOST),
        ("Sec. 8 container (4 GB reserved)", EngineConfig(m=384), 4 * GIB, HOST),
    ]
    baseline = None
    for label, config, reserved, host in configs:
        engine = TextureSearchEngine(config, device=GPUDevice(TESLA_P100, reserved_bytes=reserved),
                                     host_cache_bytes=host)
        per_image = config.feature_matrix_bytes()
        total = engine.capacity_images()
        if baseline is None:
            baseline = total
        rows.append([
            label,
            f"{per_image / 1024:.1f} KiB",
            f"{engine.cache.gpu_budget_bytes // per_image:,}",
            f"{engine.cache.host_budget_bytes // per_image:,}",
            f"{total:,}",
            f"{total / baseline:.1f}x",
        ])
    print(format_table(
        ["configuration", "bytes/image", "GPU images", "host images", "total", "vs baseline"],
        rows,
        title="Single-node capacity (Tesla P100 16 GB)",
    ))

    sec8 = total  # the last configuration is the Sec. 8 container
    print(f"\n14-container cluster: {sec8 * 14 / 1e6:.1f} M cached "
          f"reference matrices (paper: 10.8 M)")


if __name__ == "__main__":
    main()
