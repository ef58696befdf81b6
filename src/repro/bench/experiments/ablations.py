"""Ablations of the paper's design choices.

Studies the paper motivates but does not tabulate:

* **sort kind** — register top-2 scan vs. modified insertion sort
  across batch sizes (quantifies Sec. 4.1's choice beyond the single
  batch-1 cell of Table 1);
* **query batching** — the throughput/latency trade-off Sec. 5.3
  mentions and defers;
* **CBIR vs. identification** — a from-scratch Faiss-style IVF-PQ
  retrieval engine on the *same* dataset, measuring the accuracy gap
  that justifies the paper's one-by-one matching design (Secs. 2-3).
"""

from __future__ import annotations

import numpy as np

from ...baselines.cbir_ivf import IVFPQIndex
from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ...data.dataset import build_feature_dataset
from ...gpusim.calibration import KernelCalibration
from ...gpusim.device import TESLA_P100, DeviceSpec
from ...gpusim.kernels import insertion_sort_us, top2_scan_us
from ...gpusim.pcie import h2d_time_us
from ...metrics.accuracy import evaluate_top1
from ..tables import ExperimentResult, kernel_steps

__all__ = [
    "run_sort_ablation",
    "run_query_batch_ablation",
    "run_cbir_ablation",
    "run_verification_ablation",
    "run_lsh_ablation",
]


def run_sort_ablation(
    spec: DeviceSpec = TESLA_P100,
    batches: list[int] | None = None,
    m: int = 768,
    n: int = 768,
) -> ExperimentResult:
    """Scan vs. insertion sort across batch sizes and precisions."""
    batches = batches or [1, 16, 256, 1024]
    cal = KernelCalibration.for_device(spec)
    result = ExperimentResult(
        name=f"Ablation: top-2 selection kernel, m={m} n={n}, {spec.name}",
        headers=["batch", "scan fp32 (us/img)", "scan fp16 (us/img)",
                 "insertion fp32 (us/img)", "scan speedup"],
    )
    for batch in batches:
        cols = batch * n
        scan32 = top2_scan_us(spec, cal, m, cols, "fp32") / batch
        scan16 = top2_scan_us(spec, cal, m, cols, "fp16") / batch
        ins32 = insertion_sort_us(spec, cal, m, cols, "fp32") / batch
        result.rows.append(
            [batch, round(scan32, 2), round(scan16, 2), round(ins32, 2),
             f"{ins32 / scan32:.1f}x"]
        )
    first, last = result.rows[0], result.rows[-1]
    result.summary = {
        "batch1_scan_speedup": float(first[4].rstrip("x")),
        "fp16_scan_penalty_batch1": first[2] / first[1],
        "fp16_scan_gain_large_batch": last[1] / last[2],
    }
    result.notes.append(
        "the FP16 scan is slower at batch 1 (half intrinsics, Sec. 4.2) "
        "but wins at scale where the kernel is bandwidth bound"
    )
    return result


def run_query_batch_ablation(
    spec: DeviceSpec = TESLA_P100,
    query_batches: list[int] | None = None,
    reference_count: int = 100_000,
) -> ExperimentResult:
    """Throughput vs. latency as queries are batched (Sec. 5.3).

    One query group sweeps all ``reference_count`` references in batches
    of 256, each charged what the Algorithm-2 kernel charges for a group
    of that width; latency is the whole sweep, throughput counts
    (reference, query) pairs.  The references are host-resident (the
    hybrid-cache regime where query batching pays): each batch crosses
    PCIe once per sweep, whatever the group's width, ahead of the chain.
    """
    query_batches = query_batches or [1, 2, 4, 8, 16, 32]
    config = EngineConfig(m=384, n=768, precision="fp16", batch_size=256)
    if reference_count < config.batch_size:
        raise ValueError("reference_count must cover at least one batch")
    transfer = h2d_time_us(spec, config.batch_size * config.feature_matrix_bytes())
    result = ExperimentResult(
        name=f"Ablation: query batching over {reference_count:,} references ({spec.name})",
        headers=["query batch", "throughput (pairs/s)", "latency per query (ms)"],
    )
    curve = []
    for qb in query_batches:
        compute = sum(us for _, us, _ in kernel_steps(spec, config, config.batch_size, qb))
        sweep_us = (transfer + compute) * (reference_count // config.batch_size)
        curve.append((reference_count * qb / sweep_us * 1e6, sweep_us / 1e3))
        result.rows.append([qb, int(round(curve[-1][0])), round(curve[-1][1], 1)])
    result.summary = {
        "throughput_gain": curve[-1][0] / curve[0][0],
        "latency_cost": curve[-1][1] / curve[0][1],
    }
    result.notes.append(
        "paper: 'the query feature matrix can also be batched for higher "
        "performance. However, the search latency also increases'"
    )
    return result


def run_cbir_ablation(
    n_bricks: int = 40,
    m: int = 384,
    n: int = 768,
    nprobe: int = 4,
    min_score: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Identification accuracy: per-image 2-NN matching vs. IVF-PQ CBIR.

    Both systems see the same references and queries.  CBIR pools all
    features into one global index and votes; identification matches
    image-by-image with the ratio test.  Two criteria are reported:

    * **argmax** — best candidate is the true brick;
    * **decisive** — argmax is correct *and* the evidence clears a
      traceability-grade confidence bar (match count >= ``min_score``
      for identification; >= ``min_score`` votes *and* a 2x margin over
      the runner-up for CBIR).  Product traceability needs decisive
      answers — this is where the CBIR approach collapses, which is the
      paper's Sec. 3 argument for per-image matching.
    """
    dataset = build_feature_dataset(n_bricks, m, n, queries_per_brick=1, seed=seed)

    # --- per-image matching (the paper's approach) ---------------------
    engine = TextureSearchEngine(
        EngineConfig(m=m, n=n, precision="fp16", scale_factor=0.25,
                     batch_size=min(64, n_bricks), min_matches=min_score)
    )
    for ref in dataset.references:
        engine.add_reference(str(ref.brick_id), ref.descriptors)
    engine.flush()

    # --- CBIR: global IVF-PQ + voting -----------------------------------
    index = IVFPQIndex(d=128, n_lists=32, n_subspaces=8, n_centroids=16, seed=seed)
    sample = np.hstack([ref.descriptors for ref in dataset.references[: min(10, n_bricks)]])
    index.train(sample.T)
    for ref in dataset.references:
        index.add(str(ref.brick_id), ref.descriptors)

    ident_argmax = ident_decisive = cbir_argmax = cbir_decisive = 0
    for query in dataset.queries:
        truth = str(query.brick_id)
        best = engine.search(query.descriptors).best()
        if best is not None and best.reference_id == truth:
            ident_argmax += 1
            if best.score >= min_score:
                ident_decisive += 1
        votes = index.search(query.descriptors, nprobe=nprobe)
        top1 = votes[0].votes if votes else 0
        top2 = votes[1].votes if len(votes) > 1 else 0
        if votes and votes[0].image_id == truth:
            cbir_argmax += 1
            if top1 >= min_score and top1 >= 2 * top2:
                cbir_decisive += 1

    total = len(dataset.queries)
    result = ExperimentResult(
        name=f"Ablation: identification vs CBIR retrieval ({n_bricks} bricks, m={m} n={n})",
        headers=["approach", "argmax accuracy", "decisive accuracy"],
        rows=[
            ["per-image 2-NN + ratio test (paper)",
             f"{ident_argmax / total:.2%}", f"{ident_decisive / total:.2%}"],
            [f"IVF-PQ CBIR voting (nprobe={nprobe})",
             f"{cbir_argmax / total:.2%}", f"{cbir_decisive / total:.2%}"],
        ],
    )
    result.summary = {
        "identification_decisive": ident_decisive / total,
        "cbir_decisive": cbir_decisive / total,
        "decisive_gap": (ident_decisive - cbir_decisive) / total,
    }
    result.notes.append(
        "paper Sec. 3: CBIR approaches 'can be very efficient but suffer "
        "low accuracy' for fine-grained identification; the collapse "
        "shows under the decisive (traceability-grade) criterion"
    )
    return result


def run_verification_ablation(
    n_bricks: int = 24,
    m: int = 384,
    n: int = 768,
    impostors_per_brick: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """One-to-one verification operating points (FAR/FRR/EER).

    Characterises the good-match-count score the paper thresholds
    (Sec. 3.1) and shows where ``min_matches`` sits on the ROC.
    """
    from ...data.synthetic_features import SyntheticFeatureModel
    from ...metrics.verification import evaluate_verification

    engine = TextureSearchEngine(
        EngineConfig(m=m, n=n, precision="fp16", scale_factor=0.25, batch_size=32)
    )
    model = SyntheticFeatureModel(seed=seed)
    report = evaluate_verification(engine, model, n_bricks, impostors_per_brick)

    result = ExperimentResult(
        name=f"Ablation: verification ROC ({n_bricks} genuine / "
        f"{n_bricks * impostors_per_brick} impostor pairs, m={m} n={n})",
        headers=["threshold (matches)", "FAR", "FRR"],
    )
    for threshold in (1, 2, 4, 8, 16, 32):
        point = report.operating_point(threshold)
        result.rows.append([threshold, f"{point.far:.2%}", f"{point.frr:.2%}"])
    result.summary = {
        "eer": report.eer,
        "best_threshold": report.best_threshold(),
        "genuine_median": float(np.median(report.genuine_scores)),
        "impostor_median": float(np.median(report.impostor_scores)),
    }
    result.notes.append(
        "paper Sec. 3.1: two images are the same texture 'only when the "
        "number [of matches] is higher than a pre-defined threshold'"
    )
    return result


def run_lsh_ablation(
    n_bricks: int = 16,
    m: int = 256,
    n: int = 256,
    bit_widths: list[int] | None = None,
    n_candidates: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """LSH compression (related work [15]) vs. the FP16 engine.

    The Hamming candidate filter truncates each query feature's
    competitor set, which *inflates* match counts — genuine and
    impostor alike.  At small gallery sizes top-1 accuracy survives;
    what degrades as the signatures shrink is the **verification
    margin** (genuine score over best-impostor score), i.e. exactly the
    decisive evidence product traceability needs.  The FP16 engine
    keeps the exact ratio-test margin at a fixed 2x compression.
    """
    from ...baselines.adapters import LshKernel

    bit_widths = bit_widths or [64, 256, 1024]
    dataset = build_feature_dataset(n_bricks, m, n, queries_per_brick=1, seed=seed)
    sample = np.hstack([ref.descriptors for ref in dataset.references])
    fp32_bytes = m * 128 * 4

    result = ExperimentResult(
        name=f"Ablation: LSH compression vs FP16 ({n_bricks} bricks, m={m} n={n})",
        headers=["representation", "bytes/image", "compression",
                 "top-1 accuracy", "genuine med.", "impostor med.", "margin"],
    )

    def row(label: str, per_image: int, engine: TextureSearchEngine) -> tuple[float, float, float]:
        """Enrol every reference, search every query; append the row and
        return (accuracy, impostor median, margin)."""
        for ref in dataset.references:
            engine.add_reference(str(ref.brick_id), ref.descriptors)
        engine.flush()
        scores = []
        correct = 0
        for query in dataset.queries:
            search = engine.search(query.descriptors)
            by_id = {match.reference_id: match.good_matches for match in search.matches}
            truth = str(query.brick_id)
            imp_score = max((s for rid, s in by_id.items() if rid != truth), default=0)
            scores.append((by_id.get(truth, 0), imp_score))
            best = search.best()
            if best is not None and best.reference_id == truth and best.score >= 8:
                correct += 1
        med_g = float(np.median([s[0] for s in scores]))
        med_i = float(np.median([s[1] for s in scores]))
        margin = med_g / max(med_i, 1.0)
        accuracy = correct / len(dataset.queries)
        result.rows.append([label, per_image, f"{fp32_bytes / per_image:.0f}x",
                            f"{accuracy:.2%}", med_g, med_i, round(margin, 1)])
        return accuracy, med_i, margin

    batch_size = min(32, n_bricks)
    fp16 = TextureSearchEngine(
        EngineConfig(m=m, n=n, precision="fp16", scale_factor=0.25, batch_size=batch_size)
    )
    accuracy, _, margin = row("FP16 engine (paper)", m * 128 * 2, fp16)
    result.summary["fp16_margin"] = margin
    result.summary["fp16_accuracy"] = accuracy

    config = EngineConfig(m=m, n=n, precision="fp32", backend="lsh", batch_size=batch_size)
    for bits in bit_widths:
        kernel = LshKernel(config, n_bits=bits, n_candidates=n_candidates, seed=seed)
        kernel.codec.train(sample)
        _, med_i, margin = row(f"LSH {bits}-bit signatures", kernel.codec.bytes_per_descriptor * m,
                               TextureSearchEngine(config, kernel=kernel))
        result.summary[f"lsh{bits}_margin"] = margin
        result.summary[f"lsh{bits}_impostor_median"] = med_i
    result.notes.append(
        "tighter LSH signatures inflate impostor scores (candidate-set "
        "truncation biases the ratio test), eroding the verification "
        "margin; the FP16 engine keeps the exact margin at 2x compression"
    )
    return result

