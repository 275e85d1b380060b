"""Learned Pareto points per method (paper Fig. 8).

For GEMM and SPMV_ELLPACK, run every method once and report where its
learned Pareto configurations actually land (true implementation-
fidelity values), next to the real Pareto front — the data behind the
paper's (LUT, Delay) and (Power, Delay) scatter plots.  The key summary
statistic is each method's ADRS; the paper's qualitative claim is that
"our learned Pareto points are much more closer to the reference
points".

Usage: ``python -m repro.experiments.fig8 [--scale smoke|small|paper]
[--benchmarks A,B] [--seed N] [RUN OPTIONS]``, where the run options
are the shared driver flags of :mod:`repro.experiments.options`.

``--journal-dir``/``--resume`` checkpoint the BO cells, snapshot every
finished cell and resume both (bitwise identical to an uninterrupted
run); the retry flags tune the
resilience policy (:mod:`repro.core.resilience`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from repro.experiments.harness import (
    SMALL_SCALE,
    SMOKE_SCALE,
    PAPER_SCALE,
    TABLE1_METHODS,
    BenchmarkContext,
)
from repro.experiments.options import (
    RunOptions,
    add_run_options,
    parse_run_options,
)
from repro.experiments.parallel import method_jobs, raise_failures, run_jobs

SCALES = {"smoke": SMOKE_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE}
DEFAULT_BENCHMARKS = ("gemm", "spmv_ellpack")

#: The two 2-D projections of Fig. 8, as (x-axis, y-axis) objective
#: indices into [power, delay, lut].
PROJECTIONS = {"(LUT, Delay)": (2, 1), "(Power, Delay)": (0, 1)}


def run(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale_name: str = "small",
    base_seed: int = 2021,
    verbose: bool = True,
    options: RunOptions = RunOptions(),
) -> dict[str, dict]:
    method_runs = _collect_method_runs(
        benchmarks, options.apply(SCALES[scale_name]), base_seed, options
    )
    results: dict[str, dict] = {}
    for name in benchmarks:
        ctx = BenchmarkContext.get(name, cache_dir=options.cache_dir)
        entry: dict = {
            "true_front": ctx.true_front,
            "all_values": ctx.Y_true[ctx.valid],
            "methods": {},
        }
        for method in TABLE1_METHODS:
            run_result = method_runs[(name, method)]
            learned_idx = run_result.result.pareto_indices()
            entry["methods"][method] = {
                "learned_indices": learned_idx,
                "learned_true_values": ctx.Y_true[learned_idx],
                "adrs": run_result.adrs,
            }
            if verbose:
                print(
                    f"{name:<14}{method:<8} learned={len(learned_idx):>3} "
                    f"ADRS={run_result.adrs:.4f}",
                    flush=True,
                )
        results[name] = entry
        if verbose:
            print()
    return results


def _collect_method_runs(
    benchmarks: tuple[str, ...],
    scale,
    base_seed: int,
    options: RunOptions,
) -> dict:
    """One MethodRun per (benchmark, method) cell (repeat 0 of each)."""
    jobs = method_jobs(
        benchmarks, TABLE1_METHODS, replace(scale, n_repeats=1), base_seed,
        trace_dir=options.trace_dir, cache_dir=options.cache_dir,
        journal_dir=options.journal_dir, resume=options.resume,
    )
    outcomes = run_jobs(
        jobs, workers=options.workers, cache_dir=options.cache_dir,
        snapshot_dir=options.journal_dir, resume=options.resume,
    )
    raise_failures(outcomes)
    return {(o.job.benchmark, o.job.method): o.value for o in outcomes}


def scatter_series(entry: dict, projection: str) -> dict[str, np.ndarray]:
    """2-D series for one Fig. 8 panel: data cloud, real front, methods."""
    ix, iy = PROJECTIONS[projection]
    series = {
        "data": entry["all_values"][:, (ix, iy)],
        "real_pareto": entry["true_front"][:, (ix, iy)],
    }
    for method, info in entry["methods"].items():
        series[method] = info["learned_true_values"][:, (ix, iy)]
    return series


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS)
    )
    parser.add_argument("--seed", type=int, default=2021)
    add_run_options(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, options = parse_run_options(build_parser(), argv)
    run(
        tuple(b for b in args.benchmarks.split(",") if b),
        scale_name=args.scale,
        base_seed=args.seed,
        options=options,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
