"""Normalized per-fidelity delay sweeps (paper Fig. 5).

For GEMM and SPMV_ELLPACK, sweep the whole pruned design space at all
three fidelities and report how strongly the normalized delay values
diverge: GEMM's fidelities nearly overlap, SPMV_ELLPACK's diverge —
the motivation for the *non-linear* multi-fidelity model (Sec. IV-A).

Usage: ``python -m repro.experiments.fig5 [--benchmarks gemm,...]
[--workers N] [--eval-workers N] [--cache-dir DIR]
[--journal-dir DIR] [--resume] [--trace-dir DIR] [--trace-spans]``
(the shared driver flags of :mod:`repro.experiments.options` less the
BO knobs).

Each benchmark's sweep is one cell of
:func:`repro.experiments.parallel.run_jobs`: ``--workers`` pools whole
benchmarks across processes (one worker runs them inline);
``--eval-workers`` additionally splits each benchmark's whole-space
sweep over flow-worker threads (order-preserving, ``==`` the
sequential sweep — reports are deterministic per configuration).
``--journal-dir``/``--resume`` snapshot each benchmark's finished
sweep so an interrupted run restores completed benchmarks instead of
recomputing them (sweeps are deterministic, so the figures are
identical either way).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.experiments.harness import BenchmarkContext
from repro.experiments.options import (
    RunOptions,
    add_run_options,
    parse_run_options,
)
from repro.experiments.parallel import Job, raise_failures, run_jobs
from repro.hlsim.flow import fidelity_sweep
from repro.hlsim.reports import ALL_FIDELITIES
from repro.obs.spans import SpanRecorder
from repro.obs.trace import JsonlTraceWriter

DEFAULT_BENCHMARKS = ("gemm", "spmv_ellpack")


def normalized_delays(
    name: str,
    normalize: bool = False,
    cache_dir: str | None = None,
    eval_workers: int = 1,
) -> dict[str, np.ndarray]:
    """Delay per fidelity; optionally min-max normalized for plotting
    (the paper's Fig. 5 axes are normalized)."""
    ctx = BenchmarkContext.get(name, cache_dir=cache_dir)
    if eval_workers > 1:
        from repro.core.batch.engine import parallel_fidelity_sweep

        sweeps = parallel_fidelity_sweep(
            ctx.space, ctx.flow, workers=eval_workers
        )
    else:
        sweeps = fidelity_sweep(ctx.space, ctx.flow)
    delays = {f.short_name: sweeps[f][:, 1] for f in ALL_FIDELITIES}
    if not normalize:
        return delays
    stacked = np.concatenate(list(delays.values()))
    lo, hi = stacked.min(), stacked.max()
    span = hi - lo if hi > lo else 1.0
    return {k: (v - lo) / span for k, v in delays.items()}


def divergence_score(delays: dict[str, np.ndarray]) -> float:
    """Mean relative delay gap between the HLS and IMPL fidelities.

    Small => the fidelity curves overlap (GEMM in Fig. 5(a)); large =>
    they diverge (SPMV_ELLPACK in Fig. 5(b)).  Computed on the raw
    normalized series per configuration, relative to the IMPL value.
    """
    impl = delays["impl"]
    scale = np.maximum(np.abs(impl), np.abs(impl).mean() * 1e-3)
    return float(np.mean(np.abs(delays["hls"] - impl) / scale))


def sweep_job(
    name: str,
    cache_dir: str | None = None,
    eval_workers: int = 1,
    trace_dir: str | None = None,
    trace_spans: bool = False,
) -> dict:
    """One benchmark's Fig. 5 entry (module-level: picklable worker body)."""
    tracer = None
    if trace_dir is not None and trace_spans:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        tracer = JsonlTraceWriter(Path(trace_dir) / f"{name}.sweep.jsonl")
    spans = SpanRecorder(tracer)
    try:
        with spans.span("sweep", cat="eval", kernel=name,
                        eval_workers=eval_workers):
            delays = normalized_delays(
                name, cache_dir=cache_dir, eval_workers=eval_workers
            )
    finally:
        if tracer is not None:
            tracer.close()
    rank_corr = float(
        np.corrcoef(
            np.argsort(np.argsort(delays["hls"])),
            np.argsort(np.argsort(delays["impl"])),
        )[0, 1]
    )
    return {
        "delays": delays,
        "divergence": divergence_score(delays),
        "rank_correlation": rank_corr,
        "n_configs": len(delays["hls"]),
    }


def run(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    verbose: bool = True,
    options: RunOptions = RunOptions(),
) -> dict[str, dict]:
    sweep = dict(
        cache_dir=options.cache_dir, eval_workers=options.eval_workers,
        trace_dir=options.trace_dir, trace_spans=options.trace_spans,
    )
    jobs = [
        Job(benchmark=name, method="fig5-sweep", repeat=0,
            fn=sweep_job, kwargs=dict(name=name, **sweep))
        for name in benchmarks
    ]
    trace_path = (
        Path(options.trace_dir) / "fig5.jobs.jsonl"
        if options.trace_dir else None
    )
    outcomes = run_jobs(
        jobs, workers=options.workers, trace_path=trace_path,
        cache_dir=options.cache_dir, snapshot_dir=options.journal_dir,
        resume=options.resume,
    )
    raise_failures(outcomes)
    results = {o.job.benchmark: o.value for o in outcomes}
    for name in benchmarks:
        if verbose:
            print(
                f"{name:<14} configs={results[name]['n_configs']:>6} "
                f"|hls-impl| divergence={results[name]['divergence']:.4f} "
                f"rank corr={results[name]['rank_correlation']:.3f}"
            )
    if verbose and {"gemm", "spmv_ellpack"} <= set(results):
        gemm = results["gemm"]["divergence"]
        spmv = results["spmv_ellpack"]["divergence"]
        print(
            f"\nSPMV_ELLPACK diverges {spmv / gemm:.1f}x more than GEMM "
            "(paper Fig. 5: overlapping vs divergent fidelities)"
        )
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark names",
    )
    add_run_options(parser, bo=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, options = parse_run_options(build_parser(), argv)
    run(tuple(b for b in args.benchmarks.split(",") if b), options=options)
    return 0


if __name__ == "__main__":
    sys.exit(main())
