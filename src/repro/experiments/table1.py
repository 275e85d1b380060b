"""Reproduce Table I: normalized ADRS / std / runtime per benchmark.

Usage::

    python -m repro.experiments.table1 [--scale smoke|small|paper]
                                       [--benchmarks gemm,sort_radix,...]
                                       [--seed N] [--json out.json]
                                       [--workers N] [--cache-dir DIR]
                                       [--batch-size Q] [--eval-workers N]
                                       [--journal-dir DIR] [--resume]
                                       [--retry-max-attempts N]
                                       [--retry-backoff-s S] [--no-degrade]
                                       [--trace-dir DIR] [--trace-spans]

``--workers N`` fans the (benchmark, method, repeat) cells out over a
process pool (results are bitwise identical to the sequential run);
``--batch-size``/``--eval-workers`` run the BO methods' loop as a
qPEIPV round barrier on concurrent flow workers (composable with
``--workers``); ``--cache-dir`` persists exhaustive ground-truth sweeps
across invocations (see :mod:`repro.hlsim.gtcache` for the
invalidation rule).

``--journal-dir DIR`` checkpoints every BO evaluation to a per-cell
run journal (and, with ``--workers``, snapshots completed cells);
``--resume`` replays those journals/snapshots after a crash or kill —
the finished table is bitwise identical to an uninterrupted run.  The
retry flags tune the fault-handling policy of the flow-evaluation
layer (:mod:`repro.core.resilience`).

``--trace-dir DIR`` writes per-cell JSONL traces; adding
``--trace-spans`` records nested spans (fit/predict/acquire/flow_eval)
into those traces without changing any selection.  Merge and view a
sweep's traces with ``python -m repro.obs.spans DIR -o run.trace.json``
(opens in Perfetto), tail a running sweep with
``python -m repro.obs.monitor DIR``, and summarize a finished one with
``python -m repro.obs.report DIR``.

All three metrics are normalized to the ANN baseline, exactly as the
paper reports them ("expressed as ratios to the results of ANN").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from repro.experiments.harness import (
    PAPER_SCALE,
    SMALL_SCALE,
    SMOKE_SCALE,
    TABLE1_METHODS,
    ExperimentScale,
    Table1Row,
    run_benchmark,
    summarize_benchmark,
)
from repro.benchsuite.registry import benchmark_names
from repro.metrics.runtime import normalize_to

SCALES: dict[str, ExperimentScale] = {
    "smoke": SMOKE_SCALE,
    "small": SMALL_SCALE,
    "paper": PAPER_SCALE,
}


def normalized_rows(
    rows: list[Table1Row], anchor: str = "ann"
) -> list[dict[str, dict[str, float]]]:
    """Normalize each metric column to the anchor method, per benchmark."""
    output = []
    for row in rows:
        output.append(
            {
                "benchmark": row.benchmark,
                "adrs": normalize_to(row.adrs_mean, anchor),
                "adrs_std": normalize_to(
                    row.adrs_std,
                    anchor,
                )
                if row.adrs_std.get(anchor, 0.0) > 0
                else {k: float("nan") for k in row.adrs_std},
                "runtime": normalize_to(row.runtime_mean, anchor),
                "raw_adrs": dict(row.adrs_mean),
                "raw_runtime_h": {
                    k: v / 3600.0 for k, v in row.runtime_mean.items()
                },
            }
        )
    return output


def format_table(
    normalized: list[dict], methods: tuple[str, ...]
) -> str:
    """Render the three normalized blocks the way Table I lays them out."""
    lines = []
    headers = {"adrs": "Normalized ADRS",
               "adrs_std": "Normalized Std-Dev of ADRS",
               "runtime": "Normalized Overall Running Time"}
    for metric, title in headers.items():
        lines.append(title)
        lines.append(
            "  " + f"{'Benchmark':<15}" + "".join(f"{m:>9}" for m in methods)
        )
        averages = {m: [] for m in methods}
        for entry in normalized:
            cells = []
            for m in methods:
                value = entry[metric].get(m, float("nan"))
                averages[m].append(value)
                cells.append(f"{value:>9.2f}")
            lines.append("  " + f"{entry['benchmark']:<15}" + "".join(cells))
        lines.append(
            "  " + f"{'Average':<15}"
            + "".join(f"{np.nanmean(averages[m]):>9.2f}" for m in methods)
        )
        lines.append("")
    return "\n".join(lines)


def apply_overrides(
    scale: ExperimentScale,
    batch_size: int = 1,
    eval_workers: int = 1,
    async_engine: bool = False,
    inflight_target: int | None = None,
    retry_max_attempts: int = 3,
    retry_backoff_s: float = 0.0,
    degrade_on_failure: bool = True,
    trace_spans: bool = False,
) -> ExperimentScale:
    """Fold non-default batch/resilience/telemetry CLI knobs into a scale."""
    overrides = {}
    if batch_size != 1:
        overrides["batch_size"] = batch_size
    if eval_workers != 1:
        overrides["eval_workers"] = eval_workers
    if async_engine:
        overrides["async_engine"] = True
    if inflight_target is not None:
        overrides["inflight_target"] = inflight_target
    if retry_max_attempts != 3:
        overrides["retry_max_attempts"] = retry_max_attempts
    if retry_backoff_s != 0.0:
        overrides["retry_backoff_s"] = retry_backoff_s
    if not degrade_on_failure:
        overrides["degrade_on_failure"] = False
    if trace_spans:
        overrides["trace_spans"] = True
    return replace(scale, **overrides) if overrides else scale


def run(
    scale_name: str = "small",
    benchmarks: tuple[str, ...] | None = None,
    methods: tuple[str, ...] = TABLE1_METHODS,
    base_seed: int = 2021,
    verbose: bool = True,
    workers: int = 1,
    cache_dir: str | None = None,
    batch_size: int = 1,
    eval_workers: int = 1,
    async_engine: bool = False,
    inflight_target: int | None = None,
    journal_dir: str | None = None,
    resume: bool = False,
    retry_max_attempts: int = 3,
    retry_backoff_s: float = 0.0,
    degrade_on_failure: bool = True,
    trace_dir: str | None = None,
    trace_spans: bool = False,
) -> tuple[list[Table1Row], list[dict]]:
    """Run the full Table I experiment and return raw + normalized rows."""
    scale = apply_overrides(
        SCALES[scale_name], batch_size=batch_size, eval_workers=eval_workers,
        async_engine=async_engine, inflight_target=inflight_target,
        retry_max_attempts=retry_max_attempts,
        retry_backoff_s=retry_backoff_s,
        degrade_on_failure=degrade_on_failure,
        trace_spans=trace_spans,
    )
    names = tuple(benchmarks) if benchmarks else tuple(benchmark_names())
    if workers > 1:
        from repro.experiments.parallel import run_table1_parallel

        rows = run_table1_parallel(
            benchmarks=names, methods=methods, scale=scale,
            base_seed=base_seed, workers=workers, verbose=verbose,
            trace_dir=trace_dir, cache_dir=cache_dir,
            journal_dir=journal_dir, snapshot_dir=journal_dir, resume=resume,
        )
        return rows, normalized_rows(rows)
    rows: list[Table1Row] = []
    for name in names:
        if verbose:
            print(f"benchmark {name}:", flush=True)
        runs = run_benchmark(
            name, methods=methods, scale=scale, base_seed=base_seed,
            verbose=verbose, trace_dir=trace_dir, cache_dir=cache_dir,
            journal_dir=journal_dir, resume=resume,
        )
        rows.append(summarize_benchmark(name, runs))
    return rows, normalized_rows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset (default: all six)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--json", default="", help="write results as JSON")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = sequential)")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="BO candidates proposed per round (qPEIPV)")
    parser.add_argument("--eval-workers", type=int, default=1,
                        help="in-run flow-evaluation workers per BO loop")
    parser.add_argument("--async", dest="async_engine", action="store_true",
                        help="commit-as-completed async BO pipeline with "
                             "an adaptive in-flight target (bounded by "
                             "--eval-workers)")
    parser.add_argument("--inflight-target", type=int, default=None,
                        help="pin the async pipeline's in-flight target "
                             "(implies --async; 1 = bitwise-sequential)")
    parser.add_argument("--cache-dir", default="",
                        help="persistent ground-truth cache directory")
    parser.add_argument("--journal-dir", default="",
                        help="checkpoint BO runs (and snapshot cells) here")
    parser.add_argument("--resume", action="store_true",
                        help="resume from journals/snapshots in --journal-dir")
    parser.add_argument("--retry-max-attempts", type=int, default=3,
                        help="flow-crash retry budget per fidelity")
    parser.add_argument("--retry-backoff-s", type=float, default=0.0,
                        help="base backoff between retry attempts (seconds)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="fail instead of degrading fidelity on "
                             "retry exhaustion")
    parser.add_argument("--trace-dir", default="",
                        help="write per-cell JSONL traces here")
    parser.add_argument("--trace-spans", action="store_true",
                        help="record nested spans into the traces "
                             "(requires --trace-dir; view with "
                             "python -m repro.obs.spans)")
    args = parser.parse_args(argv)

    if args.resume and not args.journal_dir:
        parser.error("--resume requires --journal-dir")
    if args.trace_spans and not args.trace_dir:
        parser.error("--trace-spans requires --trace-dir")
    benchmarks = (
        tuple(b for b in args.benchmarks.split(",") if b)
        if args.benchmarks
        else None
    )
    rows, normalized = run(
        scale_name=args.scale,
        benchmarks=benchmarks,
        base_seed=args.seed,
        verbose=not args.quiet,
        workers=args.workers,
        cache_dir=args.cache_dir or None,
        batch_size=args.batch_size,
        eval_workers=args.eval_workers,
        async_engine=args.async_engine,
        inflight_target=args.inflight_target,
        journal_dir=args.journal_dir or None,
        resume=args.resume,
        retry_max_attempts=args.retry_max_attempts,
        retry_backoff_s=args.retry_backoff_s,
        degrade_on_failure=not args.no_degrade,
        trace_dir=args.trace_dir or None,
        trace_spans=args.trace_spans,
    )
    print(format_table(normalized, TABLE1_METHODS))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(normalized, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
