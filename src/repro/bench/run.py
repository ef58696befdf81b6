"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro.bench.run table1            # one experiment
    python -m repro.bench.run fig4 table6       # several
    python -m repro.bench.run all               # everything
    python -m repro.bench.run all --quick       # skip accuracy sweeps
    python -m repro.bench.run table7 --bricks 80 --queries 2

A run at an experiment's defaults is the evidence and is written down:
its table to ``benchmarks/results/<slug>.txt`` and, for a system bench,
its JSON body to ``BENCH_<experiment>.json``, both under the working
directory.  A run with ``--quick``, ``--bricks``, ``--queries`` or
``--backend`` only prints, so no smaller run can replace the evidence.

Exit code is non-zero if any requested experiment raises.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from .experiments import ALL_EXPERIMENTS
from .tables import ExperimentResult

__all__ = ["main", "build_parser", "run_experiment"]

#: where a run at the defaults writes each experiment's table.
_RESULTS_DIR = Path("benchmarks") / "results"

#: experiments whose runtime is dominated by functional accuracy sweeps.
_ACCURACY_EXPERIMENTS = {"table2", "table7"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.run",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(ALL_EXPERIMENTS))}, or 'all' "
        "(defaults to 'backends' when --backend is given)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        metavar="NAME",
        default=None,
        help="restrict the 'backends' experiment to these match-kernel "
        "backends (repeatable; e.g. --backend opencv --backend garcia)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the functional accuracy sweeps (Tables 2 and 7 accuracy columns)",
    )
    parser.add_argument(
        "--bricks",
        type=int,
        default=None,
        help="dataset size for the accuracy sweeps (default: experiment default)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per brick for Table 7 (default: experiment default)",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record request-scoped spans across the run and export them "
        "as Perfetto/Chrome JSON to this path (open in ui.perfetto.dev)",
    )
    return parser


def _kwargs_for(name: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {}
    if name in _ACCURACY_EXPERIMENTS:
        if args.quick:
            kwargs["with_accuracy"] = False
        if args.bricks is not None:
            kwargs["n_bricks"] = args.bricks
        if name == "table7" and args.queries is not None:
            kwargs["queries_per_brick"] = args.queries
    if name == "backends" and args.backend:
        kwargs["backends"] = args.backend
    if args.quick and "quick" in inspect.signature(ALL_EXPERIMENTS[name].run).parameters:
        kwargs["quick"] = True
    return kwargs


def _slug(title: str) -> str:
    """The results file name of a table, from its title's head."""
    head = title.split(":", 1)[0].strip()
    if head.lower() == "ablation":
        # keep the ablation subject so files don't collide
        head = "ablation " + title.split(":", 1)[1].split("(")[0].split(",")[0].strip()
    slug = "".join(c if c.isalnum() or c == " " else "" for c in head.lower())
    return "_".join(slug.split())[:60]


def run_experiment(name: str, args: argparse.Namespace) -> ExperimentResult:
    """Run one experiment; at its defaults, write its JSON body (if it has
    one) and its table."""
    kwargs = _kwargs_for(name, args)
    result = ALL_EXPERIMENTS[name].run(**kwargs)
    if args.quick or kwargs:
        return result
    if result.payload is not None:
        path = Path(f"BENCH_{name}.json")
        path.write_text(json.dumps(result.payload, indent=2, sort_keys=True) + "\n")
        result.notes.append(f"full results written to {path}")
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (_RESULTS_DIR / f"{_slug(result.name)}.txt").write_text(result.to_text() + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.experiments:
        if args.backend:
            args.experiments = ["backends"]
        else:
            parser.error("at least one EXPERIMENT (or --backend) is required")
    names = list(dict.fromkeys(args.experiments))  # de-dup, keep order
    if "all" in names:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(ALL_EXPERIMENTS))})",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if args.trace:
        from ..obs import default_tracer

        tracer = default_tracer()
        tracer.reset()
        tracer.enable()

    failures = 0
    for name in names:
        started = time.perf_counter()
        try:
            result = run_experiment(name, args)
        except Exception as exc:  # surface, keep going
            failures += 1
            print(f"[{name}] FAILED: {exc}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        print(result.to_text())
        print(f"[{name}] completed in {elapsed:.1f}s\n")

    if tracer is not None:
        tracer.disable()
        tracer.export(args.trace)
        print(f"trace: {len(tracer.spans)} spans exported to {args.trace}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
