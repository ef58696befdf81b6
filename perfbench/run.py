#!/usr/bin/env python3
"""Host wall-clock scoreboard: four workloads, two clocks, per-layer self time.

    python perfbench/run.py                       # all workloads, full size
    python perfbench/run.py --workload rest_fanout --seconds 12 --trace 1

Each (workload, pass) runs in a fresh child process with the pinned
environment below.  End-to-end metrics always come from the untraced
pass; ``--trace 1`` adds a traced pass for the per-layer metrics and
writes ``perfbench/out/trace-<workload>.json``.  Every metric is printed
as ``workload metric value unit``; when one workload is run the last
line of stdout is the JSON result the root BENCHMARK.json describes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: recorded with every result.  NUMPY_MADVISE_HUGEPAGE=0 stops
#: transparent-hugepage compaction from making the same engine_paper
#: query alternate between 1.5 s and 3.1 s; single-threaded BLAS keeps a
#: 2-core box from oversubscribing.  No MALLOC_* tunables: they would
#: hide the page-fault cost of the temporaries ROADMAP 1b wants removed.
PINNED_ENV = {
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_main(args: argparse.Namespace) -> int:
    from harness import run_pass

    result = run_pass(args.workload[0], args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(traced))]
    done = subprocess.run(command, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child pass exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from metrics import PER_LAYER

    plain = run_child(workload, seed, seconds, traced=False)
    result = {key: plain[key] for key in
              ("workload", "seed", "seconds", "op_scale", "attempted", "failed",
               "end_to_end", "timings", "setup_samples_s", "window_s", "digests")}
    result["env"] = PINNED_ENV
    result["problems"] = list(plain["problems"])
    if trace:
        traced = run_child(workload, seed, seconds, traced=True)
        layers = {name: 0.0 for name, _, _ in PER_LAYER}
        layers.update(traced["per_layer"])
        layers["trace.overhead_share"] = traced["window_s"] / plain["window_s"] - 1.0
        result["per_layer"] = layers
        result["self_time_explained"] = traced["self_time_explained"]
        result["problems"] += traced["problems"]
        for digest in ("verdict_digest", "sim_digest"):
            if traced["digests"][digest] != plain["digests"][digest]:
                result["problems"].append(f"{digest} differs between the plain and traced pass")
    result["correct"] = not result["problems"]
    return result


def print_rows(result: dict) -> None:
    from metrics import UNITS

    name = result["workload"]
    for block in ("end_to_end", "per_layer"):
        for metric, value in result.get(block, {}).items():
            print(f"{name} {metric} {value!r} {UNITS[metric]}")
    for kind, summary in result["timings"].items():
        fields = " ".join(f"{key}={value!r}" for key, value in summary.items())
        print(f"{name} timing.{kind} {fields}")
    for digest in ("verdict_digest", "sim_digest"):
        print(f"{name} {digest} {result['digests'][digest]}")
    for problem in result["problems"]:
        print(f"{name} PROBLEM {problem}")


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result object: with ``--trace 0`` every end_to_end
    metric of BENCHMARK.json, with ``--trace 1`` every per_layer one."""
    from metrics import contract_end_to_end, contract_per_layer

    block = "per_layer" if trace else "end_to_end"
    declared = contract_per_layer() if trace else contract_end_to_end()
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": result[block][entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload on the seed tree; scales every "
                             "op count by seconds/40 (default: 40, the full-size workloads)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import NOMINAL_SECONDS, WORKLOADS

    if args.seconds is None:
        args.seconds = NOMINAL_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if args.child:
        return child_main(args)

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_rows(results[name])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    if len(names) == 1:
        print(contract_line(results[names[0]], bool(args.trace)))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
