#!/usr/bin/env python3
"""Compare two scoreboard results, or measure the benchmark's own noise.

    python perfbench/compare.py A.json B.json
    python perfbench/compare.py --noise 10 --out perfbench/out/A.json

A file is what ``run.py --out`` writes (one run) or what ``--noise``
writes (a set of runs, one per seed).  Comparing prints one row per
(workload, metric): both medians, the ratio B/A with its base, the
bound, and ``ok`` / ``regressed`` / ``unresolved`` (run-to-run spread
wider than the bound, so neither "same" nor "worse" can be claimed).
An ``exact`` metric or a digest that differs between runs of the same
seed is a failure: simulated time and verdicts must repeat bit for bit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, EXACT

HERE = Path(__file__).resolve().parent


def load_runs(path: Path) -> list[dict]:
    document = json.loads(path.read_text())
    return document["runs"] if "runs" in document else [document]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def samples(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["end_to_end"][metric]
            for run in runs if workload in run["workloads"]]


def workloads_of(runs: list[dict]) -> list[str]:
    return list(dict.fromkeys(name for run in runs for name in run["workloads"]))


def noise(args: argparse.Namespace) -> int:
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for index in range(args.noise):
        out = HERE / "out" / "noise-run.json"
        command = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed + index),
                   "--seconds", repr(float(seconds)), "--out", str(out)]
        for name in args.workload or []:
            command += ["--workload", name]
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"run {index} (seed {args.seed + index}) exited with {done.returncode}")
            return 1
        runs.append(json.loads(out.read_text()))
        out.unlink()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")

    status = 0
    print(f"{'workload':14} {'metric':20} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for workload in workloads_of(runs):
        for m in END_TO_END:
            if m.bound == EXACT or workload not in m.where:
                continue
            values = samples(runs, workload, m.name)
            share = spread(values)
            # steady enough when the spread is under a third of the bound
            verdict = "ok" if share <= m.bound / 3 else "loose" if share <= m.bound else "noisy"
            if verdict == "noisy" and m.name != "setup_s":
                status = 1
            print(f"{workload:14} {m.name:20} {statistics.median(values):14.4f} "
                  f"{share:8.4f} {m.bound:6.2f}  {verdict}  [{m.unit}, n={len(values)}]")
    return status


def paired(runs_a: list[dict], runs_b: list[dict], workload: str) -> list[tuple[dict, dict]]:
    """This workload's results from both sides, matched by seed."""
    theirs = {run["workloads"][workload]["seed"]: run["workloads"][workload]
              for run in runs_b if workload in run["workloads"]}
    ours = [run["workloads"][workload] for run in runs_a if workload in run["workloads"]]
    return [(result, theirs[result["seed"]]) for result in ours if result["seed"] in theirs]


def compare(path_a: Path, path_b: Path) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    bad = 0
    print(f"{'workload':14} {'metric':20} {'A':>14} {'B':>14} {'B/A':>8} {'bound':>6}  verdict")
    for workload in workloads_of(runs_a):
        pairs = paired(runs_a, runs_b, workload)
        for metric, unit, better, bound, where, _ in END_TO_END:
            if workload not in where:
                continue
            a, b = samples(runs_a, workload, metric), samples(runs_b, workload, metric)
            if not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            if bound == EXACT:
                same = all(ours["end_to_end"][metric] == theirs["end_to_end"][metric]
                           for ours, theirs in pairs)
                verdict = "ok" if same else "FAILED (exact metric moved)"
                shown = EXACT
            else:
                worse = (other - base) / base if better == "lower" else (base - other) / base
                clean_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
                if max(spread(a), spread(b)) > bound and not clean_win:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
                shown = format(bound, ".2f")
            bad += verdict != "ok"
            ratio = other / base if base else float("nan")
            print(f"{workload:14} {metric:20} {base:14.4f} {other:14.4f} {ratio:8.4f} "
                  f"{shown:>6}  {verdict}  [{unit}, base A={base:.4f}, n={len(a)}/{len(b)}]")
        for ours, theirs in pairs:
            if any(ours["digests"][key] != theirs["digests"][key] for key in ("numpy", "blas")):
                print(f"{workload:14} seed {ours['seed']}: numeric stacks differ, "
                      "digests not comparable")
                continue
            for digest in ("verdict_digest", "sim_digest"):
                if ours["digests"][digest] != theirs["digests"][digest]:
                    bad += 1
                    print(f"{workload:14} {digest} (seed {ours['seed']}): FAILED (mismatch)")
    print("no regressed, unresolved or failed row" if not bad else f"{bad} row(s) need attention")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="A.json B.json")
    parser.add_argument("--noise", type=int, metavar="N",
                        help="run the benchmark N times, one seed each, and print each "
                             "metric's spread against its bound")
    parser.add_argument("--seed", type=int, default=0, help="first seed of a --noise set")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of the root BENCHMARK.json")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "noise.json")
    args = parser.parse_args(argv)
    if args.noise:
        return noise(args)
    if len(args.files) != 2:
        parser.error("give two result files, or --noise N")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
