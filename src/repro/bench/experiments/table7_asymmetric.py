"""Table 7 — asymmetric feature counts (d = 128, batch 256, Tesla P100).

The paper sweeps (m, n) over {768,512,384,256} x 768 and 384 x
{1024,768,512,384}: accuracy barely moves while m >= 384 but collapses
when n shrinks; the optimum m=384/n=768 trades 0.28 % accuracy for
34.6 % more speed and half the cache footprint.

Speed is what the engine's Algorithm-2 kernel charges per batch at the
paper's dimensions; accuracy comes from the functional engine over the
synthetic feature dataset (RootSIFT + FP16, the production configuration).
"""

from __future__ import annotations

from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...data.dataset import build_feature_dataset
from ...data.synthetic_features import SyntheticFeatureModel
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.engine_model import GPUDevice
from ...metrics.accuracy import evaluate_top1
from ..tables import ExperimentResult, images_per_s, kernel_steps

__all__ = ["run", "cell_speed", "DEFAULT_GRID"]

DEFAULT_GRID = [
    (768, 768),
    (512, 768),
    (384, 768),
    (256, 768),
    (384, 1024),
    (384, 512),
    (384, 384),
]

_PAPER = {
    (768, 768): (0.9774, 46323),
    (512, 768): (0.9774, 57859),
    (384, 768): (0.9746, 62356),
    (256, 768): (0.9407, 68472),
    (384, 1024): (0.9802, 46204),
    (384, 512): (0.9576, 91367),
    (384, 384): (0.9181, 111818),
}


def cell_speed(spec: DeviceSpec, m: int, n: int, d: int = 128, batch: int = 256) -> float:
    """One speed cell: images per second of the FP16 Algorithm-2 kernel's
    chain over a ``batch``-image batch at ``(m, n)``.  Fig. 1's last stage
    and Sec. 8's per-GPU speed quote the m=384 / n=768 cell, as the paper
    does."""
    config = EngineConfig(m=m, n=n, d=d, precision="fp16")
    return images_per_s(kernel_steps(spec, config, batch), batch)


def run(
    spec: DeviceSpec = TESLA_P100,
    grid: list[tuple[int, int]] | None = None,
    batch: int = 256,
    d: int = 128,
    n_bricks: int = 40,
    queries_per_brick: int = 1,
    with_accuracy: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    grid = grid if grid is not None else list(DEFAULT_GRID)
    model = SyntheticFeatureModel(seed=seed)

    result = ExperimentResult(
        name=f"Table 7: asymmetric feature counts, d={d}, batch={batch}, {spec.name}",
        headers=["m (reference)", "n (query)", "Accuracy", "Speed (img/s)",
                 "paper acc", "paper speed"],
    )
    speeds = {}
    accuracies = {}
    for m, n in grid:
        speed = cell_speed(spec, m, n, d, batch)
        speeds[(m, n)] = speed
        if with_accuracy:
            dataset = build_feature_dataset(
                n_bricks, m, n, queries_per_brick=queries_per_brick,
                model=model, seed=seed,
            )
            engine = TextureSearchEngine(
                EngineConfig(m=m, n=n, precision="fp16", backend="algorithm2",
                             batch_size=min(batch, n_bricks), scale_factor=0.25),
                device=GPUDevice(spec),
            )
            acc = evaluate_top1(engine, dataset).top1_accuracy
        else:
            acc = float("nan")
        accuracies[(m, n)] = acc
        paper_acc, paper_speed = _PAPER.get((m, n), (float("nan"), float("nan")))
        result.rows.append(
            [m, n, f"{acc:.2%}" if acc == acc else "-", int(round(speed)),
             f"{paper_acc:.2%}" if paper_acc == paper_acc else "-", paper_speed]
        )

    if (768, 768) in speeds and (384, 768) in speeds:
        result.summary["speed_gain_384_768"] = speeds[(384, 768)] / speeds[(768, 768)] - 1.0
        if with_accuracy:
            result.summary["accuracy_loss_384_768"] = (
                accuracies[(768, 768)] - accuracies[(384, 768)]
            )
    result.notes.append(
        "paper: optimum m=384 n=768 — accuracy -0.28%, speed +34.6%, cache halved"
    )
    return result
