"""Reproduce Table I: normalized ADRS / std / runtime per benchmark.

Usage::

    python -m repro.experiments.table1 [--scale smoke|small|paper]
                                       [--benchmarks gemm,sort_radix,...]
                                       [--seed N] [--json out.json]
                                       [--quiet] [RUN OPTIONS]

The run options are the flag group every driver shares
(:mod:`repro.experiments.options`): ``[--workers N] [--batch-size Q]
[--async] [--inflight-target N] [--eval-workers N] [--cache-dir DIR]
[--journal-dir DIR] [--resume] [--retry-max-attempts N]
[--retry-backoff-s S] [--no-degrade] [--trace-dir DIR]
[--trace-spans]``.  A column with no finite value (the std-dev block
at one repeat) averages to ``nan``.

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

import numpy as np

from repro.experiments.harness import (
    PAPER_SCALE,
    SMALL_SCALE,
    SMOKE_SCALE,
    TABLE1_METHODS,
    ExperimentScale,
    Table1Row,
    run_table1,
)
from repro.experiments.options import (
    RunOptions,
    add_run_options,
    parse_run_options,
)
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


def _average(values: list[float]) -> float:
    """Mean of the non-NaN values; NaN when there are none (a std-dev
    column at one repeat), without ``np.nanmean``'s empty-slice warning."""
    column = np.asarray(values, dtype=float)
    column = column[~np.isnan(column)]
    return float(column.mean()) if column.size else float("nan")


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
            + "".join(f"{_average(averages[m]):>9.2f}" for m in methods)
        )
        lines.append("")
    return "\n".join(lines)


def run(
    scale_name: str = "small",
    benchmarks: tuple[str, ...] | None = None,
    methods: tuple[str, ...] = TABLE1_METHODS,
    base_seed: int = 2021,
    verbose: bool = True,
    options: RunOptions = RunOptions(),
) -> tuple[list[Table1Row], list[dict]]:
    """Run the full Table I experiment and return raw + normalized rows."""
    rows = run_table1(
        benchmarks, methods=methods, scale=options.apply(SCALES[scale_name]),
        base_seed=base_seed, verbose=verbose, trace_dir=options.trace_dir,
        workers=options.workers, cache_dir=options.cache_dir,
        journal_dir=options.journal_dir, resume=options.resume,
    )
    return rows, normalized_rows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset (default: all six)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--json", default="", help="write results as JSON")
    parser.add_argument("--quiet", action="store_true")
    add_run_options(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, options = parse_run_options(build_parser(), argv)
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
        options=options,
    )
    print(format_table(normalized, TABLE1_METHODS))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(normalized, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
