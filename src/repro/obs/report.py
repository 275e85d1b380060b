"""Run reports and regression gating over traces and benchmark JSON.

Three modes, one CLI::

    python -m repro.obs.report RUN_DIR_OR_TRACES...     # summarize a run
    python -m repro.obs.report --compare A B            # regression gate
    python -m repro.obs.report --log table1_run.log     # console-log rollup

*Summarize* reads the JSONL trace files of one run (any mix of BO-loop
``proposal``/``commit`` — or pre-v8 ``step`` — lines, pool ``job``,
resilience and ``span`` events — mixed schema versions are upgraded on
read) and prints wall-time attribution by phase, fidelity and worker,
evaluation counts, and fault/degrade/resume totals.

*Compare* takes either two run directories (compared on their phase
attribution) or two ``BENCH_*.json`` files (compared on every shared
``*_s`` timing, ``*_flops`` work-proxy and ``*_units`` modeled-latency
key) and
prints a per-metric slowdown table with a gated verdict: any ratio at
or above ``--threshold`` (default 1.5x) makes the verdict
``REGRESSION`` and the exit status 1 — wire it straight into CI.
Artifacts whose perf gates never armed (``speedup_asserted`` false or
missing) are flagged ``UNARMED``; with ``--strict`` that also fails
the comparison, so a decorative-gate artifact can never pass a CI
compare silently.  ``--assert-armed FILE...`` checks artifacts'
``speedup_asserted`` flags directly (exit 1 on any unarmed file).

*Log rollup* is the former ``tools/summarize_table1_log.py``:
aggregate the ``bench/method repeat N: ADRS=... time=...h`` lines of a
(possibly partial or interrupted) table1 console log into per-benchmark
mean ADRS / std / time blocks, normalized to ANN where available.

Everything here is stdlib-only — importable on machines (or in
processes) that never load the optimizer stack.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

from repro.obs.spans import collect_trace_files
from repro.obs.trace import iter_trace, upgrade_record

__all__ = [
    "summarize_run",
    "format_run_summary",
    "bench_gates_armed",
    "assert_armed",
    "compare_bench_files",
    "compare_runs",
    "parse_table1_log",
    "format_table1_log_summary",
    "TABLE1_LOG_METHODS",
    "main",
]


# ----------------------------------------------------------------------
# one-run summary
# ----------------------------------------------------------------------


def summarize_run(paths: list[str | Path]) -> dict:
    """Aggregate one run's trace files into a flat summary dict.

    Tolerant by construction: unparseable lines are skipped (a live or
    interrupted run has a torn final line), records from older schema
    versions are upgraded on read, and absent event kinds simply leave
    their buckets empty.
    """
    files = collect_trace_files(paths)
    labels: list[str] = []
    phase_s: defaultdict[str, float] = defaultdict(float)
    fidelity_eval_s: defaultdict[str, float] = defaultdict(float)
    worker_busy_s: defaultdict[str, float] = defaultdict(float)
    eval_counts: defaultdict[str, int] = defaultdict(int)
    counters = {"faults": 0, "degrades": 0, "resumes": 0, "failed": 0}
    flow_runtime_s = 0.0
    t_min = math.inf
    t_max = -math.inf
    covered_s = 0.0  # top-level span time (no parent): wall coverage
    n_spans = 0
    # Fleet lifecycle marks per task id, harvested from the merged
    # cross-process trace: the scheduler's ``submit`` span, the
    # broker's ``broker.lease``/``broker.complete`` markers and the
    # worker's ``execute`` span all carry ``args.task`` and an
    # epoch-anchored ``t0``, so one pass yields the full
    # queued → leased → evaluating → network attribution per cell.
    fleet_marks: defaultdict[str, dict] = defaultdict(dict)
    for path in files:
        for record in iter_trace(path, tolerant=True):
            record = upgrade_record(record)
            event = record.get("event")
            if event == "run_start":
                label = (
                    f"{record.get('kernel', path.stem)}."
                    f"{record.get('method', '?')}"
                )
                if label not in labels:
                    labels.append(label)
            elif event == "span":
                n_spans += 1
                dur = float(record.get("dur_s") or 0.0)
                t0 = record.get("t0")
                if t0 is not None:
                    t_min = min(t_min, float(t0))
                    t_max = max(t_max, float(t0) + dur)
                phase_s[record.get("cat", "?")] += dur
                if record.get("parent") is None:
                    covered_s += dur
                fidelity = record.get("fidelity")
                if record.get("name") == "flow_eval":
                    if fidelity:
                        fidelity_eval_s[fidelity] += dur
                    worker = (
                        f"pid {record.get('pid', '?')}/"
                        f"{record.get('tname', '?')}"
                    )
                    worker_busy_s[worker] += dur
                name = record.get("name")
                span_args = record.get("args") or {}
                task = span_args.get("task")
                if task and t0 is not None and name in (
                    "submit", "broker.lease", "execute", "broker.complete"
                ):
                    mark = fleet_marks[str(task)]
                    mark[name] = float(t0)
                    if name == "execute":
                        mark["exec_s"] = dur
                    if span_args.get("queue"):
                        mark.setdefault("queue", span_args["queue"])
            elif event in ("step", "commit"):
                eval_counts[record.get("fidelity", "?")] += 1
                flow_runtime_s += float(record.get("flow_runtime_s") or 0.0)
                if record.get("failed"):
                    counters["failed"] += 1
            elif event == "fault":
                counters["faults"] += 1
            elif event == "degrade":
                counters["degrades"] += 1
            elif event == "resume":
                counters["resumes"] += 1
            elif event == "job":
                exec_s = float(record.get("exec_s") or 0.0)
                worker_busy_s[f"pid {record.get('worker', '?')}"] += exec_s
                t_start = record.get("t_start")
                if t_start is not None:
                    t_min = min(t_min, float(t_start))
                    t_max = max(t_max, float(t_start) + exec_s)
    wall_s = (t_max - t_min) if t_max > t_min else 0.0
    return {
        "files": [str(p) for p in files],
        "labels": labels,
        "n_spans": n_spans,
        "wall_s": wall_s,
        "covered_s": covered_s,
        "phase_s": dict(phase_s),
        "fidelity_eval_s": dict(fidelity_eval_s),
        "worker_busy_s": dict(worker_busy_s),
        "eval_counts": dict(eval_counts),
        "flow_runtime_s": flow_runtime_s,
        "fleet_cells": _fleet_attribution(fleet_marks),
        **counters,
    }


def _fleet_attribution(marks: dict[str, dict]) -> list[dict]:
    """Per-cell queued/leased/evaluating/network seconds from marks.

    Only tasks with at least the ``submit`` → ``broker.lease`` pair
    attribute (a local run has none — the list is simply empty).  All
    stamps are epoch-anchored wall times from their own host, so on a
    multi-host fleet the splits carry that clock skew; see DESIGN.md
    Sec. 15 on clock domains.
    """
    cells: list[dict] = []
    for task, mark in sorted(marks.items()):
        submitted = mark.get("submit")
        leased = mark.get("broker.lease")
        if submitted is None or leased is None:
            continue
        completed = mark.get("broker.complete")
        exec_s = float(mark.get("exec_s") or 0.0)
        leased_s = (
            max(0.0, completed - leased) if completed is not None else None
        )
        cells.append(
            {
                "task": task,
                "queue": mark.get("queue", "?"),
                "queued_s": max(0.0, leased - submitted),
                "leased_s": leased_s,
                "evaluating_s": exec_s,
                "network_s": (
                    max(0.0, leased_s - exec_s)
                    if leased_s is not None
                    else None
                ),
            }
        )
    return cells


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    -%"


def format_run_summary(summary: dict) -> str:
    lines = [f"run summary: {len(summary['files'])} trace file(s)"]
    if summary["labels"]:
        lines.append("  runs: " + ", ".join(summary["labels"]))
    n_evals = sum(summary["eval_counts"].values())
    by_fid = ", ".join(
        f"{fid} {n}" for fid, n in sorted(summary["eval_counts"].items())
    )
    lines.append(
        f"  evals: {n_evals}" + (f" ({by_fid})" if by_fid else "")
        + f"   simulated flow time: {summary['flow_runtime_s'] / 3600:.2f}h"
    )
    lines.append(
        f"  faults: {summary['faults']}  degrades: {summary['degrades']}  "
        f"failed evals: {summary['failed']}  resumes: {summary['resumes']}"
    )
    wall = summary["wall_s"]
    if summary["n_spans"]:
        lines.append(
            f"  wall (trace extent): {wall:.3f}s   "
            f"top-level span coverage: "
            f"{_pct(summary['covered_s'], wall).strip()}"
        )
        lines.append("  time by phase:")
        for cat, dur in sorted(
            summary["phase_s"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {cat:<10} {dur:>9.3f}s  {_pct(dur, wall)}")
        if summary["fidelity_eval_s"]:
            lines.append("  flow_eval by fidelity:")
            for fid, dur in sorted(
                summary["fidelity_eval_s"].items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"    {fid:<10} {dur:>9.3f}s  {_pct(dur, wall)}")
    if summary["worker_busy_s"]:
        lines.append("  worker utilization (busy / trace extent):")
        for worker, busy in sorted(
            summary["worker_busy_s"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {worker:<24} {busy:>9.3f}s  {_pct(busy, wall)}")
    cells = summary.get("fleet_cells") or []
    if cells:
        lines.append(
            "  fleet attribution (queued | evaluating | network, per cell):"
        )
        totals = {"queued_s": 0.0, "evaluating_s": 0.0, "network_s": 0.0}
        for cell in cells:
            net = cell["network_s"]
            lines.append(
                f"    {cell['task'][:16]:<16} {cell['queue']:<22} "
                f"queued {cell['queued_s']:>8.3f}s | "
                f"eval {cell['evaluating_s']:>8.3f}s | "
                f"network "
                + (f"{net:>7.3f}s" if net is not None else "   (open)")
            )
            totals["queued_s"] += cell["queued_s"]
            totals["evaluating_s"] += cell["evaluating_s"]
            totals["network_s"] += net or 0.0
        lines.append(
            f"    {'total':<16} {'':<22} "
            f"queued {totals['queued_s']:>8.3f}s | "
            f"eval {totals['evaluating_s']:>8.3f}s | "
            f"network {totals['network_s']:>7.3f}s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# comparison / regression gate
# ----------------------------------------------------------------------


def _fmt_value(value: float) -> str:
    """Format a metric cell: seconds in fixed-point, big flop counts
    compactly."""
    return f"{value:.4g}" if abs(value) >= 1e6 else f"{value:.3f}"


def _compare_table(
    metrics: list[tuple[str, float, float]], threshold: float
) -> tuple[str, bool]:
    """Render a per-metric slowdown table; flag ratios >= threshold.

    A metric with a ~zero baseline is shown but never gated (its ratio
    is meaningless noise).
    """
    lines = [f"{'metric':<24}{'A':>12}{'B':>12}{'B/A':>8}  verdict"]
    regressed = False
    for name, a, b in metrics:
        cell_a, cell_b = _fmt_value(a), _fmt_value(b)
        if a > 1e-9:
            ratio = b / a
            flag = ratio >= threshold
            verdict = "REGRESS" if flag else "ok"
            regressed |= flag
            lines.append(
                f"{name:<24}{cell_a:>12}{cell_b:>12}{ratio:>8.2f}  {verdict}"
            )
        else:
            lines.append(f"{name:<24}{cell_a:>12}{cell_b:>12}{'-':>8}  ok")
    lines.append(
        f"verdict: {'REGRESSION' if regressed else 'OK'} "
        f"(gate: B/A >= {threshold:.2f} on any timing or work-proxy metric)"
    )
    return "\n".join(lines), regressed


def bench_gates_armed(data: dict) -> bool:
    """Whether a BENCH artifact's perf gates actually armed.

    ``speedup_asserted`` must be literal ``true`` — a missing key (old
    artifact) or any other value counts as unarmed, so the compare gate
    fails closed rather than open.
    """
    return data.get("speedup_asserted") is True


def compare_bench_files(
    path_a: str | Path,
    path_b: str | Path,
    threshold: float = 1.5,
    strict: bool = False,
) -> tuple[str, bool]:
    """Compare two ``BENCH_*.json`` files on their shared ``*_s`` timing,
    ``*_flops`` work-proxy, and ``*_units`` modeled-latency keys.

    Returns the rendered table and whether the comparison failed: any
    metric regressed by the threshold factor (B worse than A), or —
    under ``strict`` — either artifact's own perf gates never armed.
    Unarmed artifacts are always flagged UNARMED in the text.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    keys = [
        k
        for k in a
        if k in b
        and (
            k.endswith("_s")
            or k.endswith("_flops")
            or k.endswith("_units")
        )
        and isinstance(a[k], (int, float))
        and isinstance(b[k], (int, float))
    ]
    if not keys:
        raise ValueError(
            f"no shared timing (*_s), work-proxy (*_flops) or "
            f"modeled-latency (*_units) keys between {path_a} and {path_b}"
        )
    header = f"compare {path_a} -> {path_b}\n"
    table, failed = _compare_table(
        [(k, float(a[k]), float(b[k])) for k in sorted(keys)], threshold
    )
    unarmed = [
        label
        for label, data in (("A", a), ("B", b))
        if not bench_gates_armed(data)
    ]
    if unarmed:
        table += (
            "\ngates: "
            + ", ".join(f"{label} UNARMED" for label in unarmed)
            + " — artifact's own perf gates never armed"
            + (" (fails under --strict)" if strict else "")
        )
        if strict:
            failed = True
    return header + table, failed


def assert_armed(paths: list[str | Path]) -> tuple[str, bool]:
    """Check that every BENCH artifact's perf gates armed.

    One line per file (ARMED with the recorded arming reason, or
    UNARMED), then an overall verdict.  Returns the text and whether
    all files are armed — the CI step that uploads bench artifacts
    fails when any gate stayed decorative.
    """
    lines: list[str] = []
    all_armed = True
    for path in paths:
        data = json.loads(Path(path).read_text())
        if bench_gates_armed(data):
            reason = data.get("speedup_asserted_reason", "")
            lines.append(
                f"{path}: ARMED" + (f" ({reason})" if reason else "")
            )
        else:
            all_armed = False
            lines.append(f"{path}: UNARMED — gate assertions did not run")
    lines.append(f"verdict: {'ARMED' if all_armed else 'UNARMED'}")
    return "\n".join(lines), all_armed


def compare_runs(
    paths_a: list[str | Path],
    paths_b: list[str | Path],
    threshold: float = 1.5,
) -> tuple[str, bool]:
    """Compare two runs' trace dirs on wall time and phase attribution."""
    sa = summarize_run(paths_a)
    sb = summarize_run(paths_b)
    metrics = [("wall_s", sa["wall_s"], sb["wall_s"])]
    for cat in sorted(set(sa["phase_s"]) | set(sb["phase_s"])):
        metrics.append(
            (
                f"phase:{cat}",
                sa["phase_s"].get(cat, 0.0),
                sb["phase_s"].get(cat, 0.0),
            )
        )
    header = (
        f"compare runs A={len(sa['files'])} file(s) "
        f"B={len(sb['files'])} file(s)\n"
    )
    table, regressed = _compare_table(metrics, threshold)
    return header + table, regressed


# ----------------------------------------------------------------------
# table1 console-log rollup (ported from tools/summarize_table1_log.py)
# ----------------------------------------------------------------------

TABLE1_LOG_LINE = re.compile(
    r"^\s*(\w+)/(\w+) repeat (\d+): ADRS=([0-9.]+) time=([0-9.]+)h"
)
TABLE1_LOG_METHODS: tuple[str, ...] = ("ours", "fpl18", "ann", "bt", "dac19")


def parse_table1_log(
    path: str | Path,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """``{benchmark: {method: [(adrs, time_h), ...]}}`` from a run log.

    Lines that do not match the per-repeat result format — progress
    noise, tracebacks, a torn final line of an interrupted run — are
    ignored, so a partial log aggregates to a partial (but correct)
    table.
    """
    data: dict[str, dict[str, list[tuple[float, float]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    with open(path, errors="replace") as handle:
        for line in handle:
            match = TABLE1_LOG_LINE.match(line)
            if match:
                bench, method, _rep, adrs, time_h = match.groups()
                data[bench][method].append((float(adrs), float(time_h)))
    return {b: dict(per) for b, per in data.items()}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _std(values: list[float]) -> float:
    mu = _mean(values)
    return math.sqrt(_mean([(v - mu) ** 2 for v in values]))


def format_table1_log_summary(
    data: dict[str, dict[str, list[tuple[float, float]]]],
    methods: tuple[str, ...] = TABLE1_LOG_METHODS,
) -> str:
    """The three Table-I metric blocks plus the ANN-normalized block."""
    lines: list[str] = []
    header = f"{'benchmark':<14}" + "".join(f"{m:>9}" for m in methods)
    for metric, pick in (
        ("ADRS (mean)", lambda rows: _mean([a for a, _ in rows])),
        ("ADRS (std)", lambda rows: _std([a for a, _ in rows])),
        ("time (h)", lambda rows: _mean([t for _, t in rows])),
    ):
        lines.append(metric)
        lines.append("  " + header)
        for bench, per_method in data.items():
            cells = []
            for m in methods:
                rows = per_method.get(m)
                cells.append(f"{pick(rows):>9.3f}" if rows else f"{'-':>9}")
            lines.append("  " + f"{bench:<14}" + "".join(cells))
        lines.append("")

    lines.append("normalized to ANN (where available)")
    lines.append("  " + header)
    for bench, per_method in data.items():
        if "ann" not in per_method:
            continue
        anchor = _mean([a for a, _ in per_method["ann"]])
        cells = []
        for m in methods:
            rows = per_method.get(m)
            if rows and anchor > 0:
                cells.append(f"{_mean([a for a, _ in rows]) / anchor:>9.2f}")
            else:
                cells.append(f"{'-':>9}")
        lines.append("  " + f"{bench:<14}" + "".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _is_bench_json(path: str | Path) -> bool:
    return Path(path).suffix == ".json" and Path(path).is_file()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*",
        help="trace files/directories of one run (summary mode)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="two BENCH_*.json files or two run/trace directories",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="slowdown ratio that fails the comparison (default 1.5)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="--compare also fails when a BENCH artifact's own perf "
             "gates never armed (speedup_asserted not true)",
    )
    parser.add_argument(
        "--assert-armed", nargs="+", metavar="FILE", default=None,
        help="fail unless every BENCH_*.json has speedup_asserted: true",
    )
    parser.add_argument(
        "--log", default="",
        help="aggregate a table1 console log instead of traces",
    )
    args = parser.parse_args(argv)

    if args.assert_armed:
        text, all_armed = assert_armed(args.assert_armed)
        print(text)
        return 0 if all_armed else 1

    if args.compare:
        a, b = args.compare
        if _is_bench_json(a) and _is_bench_json(b):
            text, failed = compare_bench_files(
                a, b, args.threshold, strict=args.strict
            )
        else:
            text, failed = compare_runs([a], [b], args.threshold)
        print(text)
        return 1 if failed else 0

    if args.log:
        data = parse_table1_log(args.log)
        if not data:
            print(f"no result lines found in {args.log}")
            return 1
        print(format_table1_log_summary(data))
        return 0

    if not args.paths:
        parser.error("give trace paths, --compare A B, or --log FILE")
    summary = summarize_run(args.paths)
    if not summary["files"]:
        print("no trace files found")
        return 1
    print(format_run_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
