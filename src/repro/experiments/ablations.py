"""Ablation study: which of the paper's ingredients buys what.

Runs Algorithm 2 with each modeling ingredient disabled in turn —
objective correlation (Sec. IV-B), non-linear fidelity chaining
(Sec. IV-A), the PEIPV cost penalty (Eq. (10)) and the final
verification pass — and reports mean ADRS and simulated tool time.

Usage: ``python -m repro.experiments.ablations [--benchmark NAME]
[--repeats N] [--iters N] [--seed N] [RUN OPTIONS]``, where the run
options are the shared driver flags of :mod:`repro.experiments.options`.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.experiments.harness import BenchmarkContext, method_seed
from repro.experiments.options import (
    RunOptions,
    add_run_options,
    parse_run_options,
)
from repro.experiments.parallel import Job, job_trace_path, raise_failures, run_jobs
from repro.obs.trace import JsonlTraceWriter

ABLATIONS: dict[str, dict] = {
    "full": {},
    "independent-objectives": {"correlated": False},
    "linear-fidelity (=FPL18)": {"correlated": False, "nonlinear": False},
    "no-cost-penalty": {"cost_aware": False},
    "no-final-verification": {"final_verification": False},
}


def _label_slug(label: str) -> str:
    """Filesystem-safe ablation label for journal file names."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-")


def ablation_job(
    benchmark: str,
    label: str,
    n_iter: int,
    candidate_pool: int,
    n_mc_samples: int,
    seed: int,
    options: RunOptions = RunOptions(),
) -> tuple[float, float]:
    """One (ablation, repeat) cell: ``(adrs, runtime_s)``.

    Module-level (picklable); the overrides are resolved from the label
    so the job payload stays plain data.
    """
    ctx = BenchmarkContext.get(benchmark, cache_dir=options.cache_dir)
    stem = f"{benchmark}.{_label_slug(label)}.seed{seed}"
    journal_path = None
    if options.journal_dir is not None:
        Path(options.journal_dir).mkdir(parents=True, exist_ok=True)
        journal_path = str(
            Path(options.journal_dir) / f"{stem}.journal.jsonl"
        )
    settings = MFBOSettings(
        n_iter=n_iter,
        candidate_pool=candidate_pool,
        n_mc_samples=n_mc_samples,
        journal_path=journal_path,
        resume_from=journal_path if options.resume else None,
        seed=seed,
        **options.knobs(),
        **ABLATIONS[label],
    )
    tracer = None
    if options.trace_dir is not None:
        Path(options.trace_dir).mkdir(parents=True, exist_ok=True)
        tracer = JsonlTraceWriter(Path(options.trace_dir) / f"{stem}.jsonl")
    try:
        result = CorrelatedMFBO(
            ctx.space, ctx.flow, settings, method_name=label, tracer=tracer
        ).run()
    finally:
        if tracer is not None:
            tracer.close()
    return ctx.score(result), result.total_runtime_s


def run(
    benchmark: str = "spmv_ellpack",
    repeats: int = 3,
    n_iter: int = 30,
    candidate_pool: int = 192,
    n_mc_samples: int = 64,
    base_seed: int = 77,
    verbose: bool = True,
    options: RunOptions = RunOptions(),
) -> dict[str, dict]:
    jobs = [
        Job(benchmark=benchmark, method=label, repeat=repeat,
            fn=ablation_job,
            kwargs=dict(benchmark=benchmark, label=label, n_iter=n_iter,
                        candidate_pool=candidate_pool,
                        n_mc_samples=n_mc_samples,
                        seed=method_seed(base_seed, label, repeat),
                        options=options))
        for label in ABLATIONS
        for repeat in range(repeats)
    ]
    outcomes = run_jobs(
        jobs, workers=options.workers,
        trace_path=job_trace_path(options.trace_dir, "ablations"),
        cache_dir=options.cache_dir,
        snapshot_dir=options.journal_dir, resume=options.resume,
    )
    raise_failures(outcomes)
    cells = {(o.job.method, o.job.repeat): o.value for o in outcomes}
    results: dict[str, dict] = {}
    for label in ABLATIONS:
        scores = [cells[(label, r)][0] for r in range(repeats)]
        times = [cells[(label, r)][1] for r in range(repeats)]
        results[label] = {
            "adrs_mean": float(np.mean(scores)),
            "adrs_std": float(np.std(scores)),
            "time_h": float(np.mean(times) / 3600.0),
        }
        if verbose:
            entry = results[label]
            print(
                f"{label:<28} ADRS={entry['adrs_mean']:.4f}"
                f"±{entry['adrs_std']:.4f}  time={entry['time_h']:.1f}h",
                flush=True,
            )
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="spmv_ellpack")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--seed", type=int, default=77)
    add_run_options(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, options = parse_run_options(build_parser(), argv)
    run(
        benchmark=args.benchmark,
        repeats=args.repeats,
        n_iter=args.iters,
        base_seed=args.seed,
        options=options,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
