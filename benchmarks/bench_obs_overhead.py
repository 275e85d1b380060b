"""Span-telemetry overhead gate (ISSUE 5 tentpole).

Runs the fixed-seed 40-iteration GEMM optimization in
``OVERHEAD_PAIRS`` spans-off/spans-on pairs with a step tracer
attached, alternating which run of a pair goes first, and gates:

- **neutrality**: every run reproduces the first spans-off run's
  ``StepRecord`` trace *bit-for-bit* (same selected configurations,
  fidelities, acquisition values and observations) — span recording
  reads clocks, never RNG;
- **overhead**: the median over the pairs of the on/off wall-time
  ratio is at most 5% over 1.

Each ratio compares two adjacent runs, so a slow spell of the machine
mostly slows both sides of a pair; the median ignores one pair a spell
splits, and alternating the order cancels a drift that favours
whichever run goes first.  The report lists every run's wall time and
keeps ``off_s``/``on_s``, the median off and on wall times, for the
comparison against the pinned baseline.

Run directly for a report (writes ``BENCH_obs_overhead.json`` plus the
CI artifacts: a sample Perfetto export ``obs_sample.trace.json`` and
the run-report text ``obs_report.txt``)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

Compare two report files with the regression gate::

    python -m repro.obs.report --compare BENCH_a.json BENCH_b.json
"""

import json
import math
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from repro.benchsuite.registry import get_space
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.obs import JsonlTraceWriter, export_chrome_trace, read_trace
from repro.obs.report import format_run_summary, summarize_run

SEED = 2021
N_ITER = 40

#: Maximum allowed wall-clock overhead of span recording, in percent.
MAX_OVERHEAD_PCT = 5.0

#: Interleaved spans-off/spans-on pairs; the gate reads their median
#: on/off ratio.
OVERHEAD_PAIRS = 3


def _selection_trace(result):
    """The per-step selection sequence, exact-equality comparable."""
    return [
        (
            r.step,
            r.config_index,
            int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives),
        )
        for r in result.history
    ]


def _timed_run(space, trace_path, trace_spans):
    from repro.hlsim.flow import HlsFlow

    flow = HlsFlow.for_space(space)
    settings = MFBOSettings(
        n_iter=N_ITER, seed=SEED, trace_spans=trace_spans
    )
    with JsonlTraceWriter(trace_path) as tracer:
        optimizer = CorrelatedMFBO(
            space, flow, settings=settings, tracer=tracer
        )
        start = time.perf_counter()
        result = optimizer.run()
        wall = time.perf_counter() - start
    return wall, result


def run_bench(report_path=None, artifact_dir=None):
    space = get_space("gemm")
    offs, ons = [], []  # (wall_s, result) per run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i in range(OVERHEAD_PAIRS):
            for spans in (False, True) if i % 2 == 0 else (True, False):
                path = tmp / f"{'on' if spans else 'off'}{i}.jsonl"
                (ons if spans else offs).append(
                    _timed_run(space, path, trace_spans=spans)
                )
        sample = tmp / "on0.jsonl"
        n_spans = len(read_trace(sample, "span"))
        if artifact_dir is not None:
            artifact_dir = Path(artifact_dir)
            export_chrome_trace(
                [sample], artifact_dir / "obs_sample.trace.json"
            )
            summary = summarize_run([sample])
            (artifact_dir / "obs_report.txt").write_text(
                format_run_summary(summary) + "\n"
            )
    reference = _selection_trace(offs[0][1])
    ratios = [on[0] / off[0] for off, on in zip(offs, ons)]
    report = {
        "benchmark": "gemm",
        "seed": SEED,
        "n_iter": N_ITER,
        "off_s": statistics.median(wall for wall, _ in offs),
        "on_s": statistics.median(wall for wall, _ in ons),
        "off_runs_s": [wall for wall, _ in offs],
        "on_runs_s": [wall for wall, _ in ons],
        "on_off_ratios": ratios,
        "overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "n_span_events": n_spans,
        "bitwise_identical": all(
            _selection_trace(result) == reference
            for _, result in offs[1:] + ons
        ),
        "history_records_compared": len(offs[0][1].history),
        "speedup_asserted": True,
        "speedup_asserted_reason": (
            "gates arm on the bitwise neutrality comparison (always "
            "deterministic) and the median on/off ratio of interleaved "
            "single-threaded run pairs on the same machine — both "
            "meaningful at any core count"
        ),
    }
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


@pytest.mark.slow
def test_span_overhead_and_neutrality():
    report = run_bench()
    assert report["bitwise_identical"], (
        "enabling span tracing changed the optimizer's selections"
    )
    assert report["n_span_events"] > 0
    assert report["overhead_pct"] <= MAX_OVERHEAD_PCT, (
        f"span telemetry costs {report['overhead_pct']:.1f}% wall "
        f"(median on/off ratio of {report['on_off_ratios']}; "
        f"on={report['on_runs_s']}s off={report['off_runs_s']}s); "
        f"budget is {MAX_OVERHEAD_PCT}%"
    )


def main() -> None:
    report = run_bench(
        report_path="results/BENCH_obs_overhead.json", artifact_dir="results"
    )
    print(json.dumps(report, indent=2))
    print("wrote results/BENCH_obs_overhead.json, "
          "results/obs_sample.trace.json, results/obs_report.txt")
    assert report["bitwise_identical"]
    assert report["overhead_pct"] <= MAX_OVERHEAD_PCT, (
        f"span overhead {report['overhead_pct']:.1f}% exceeds "
        f"{MAX_OVERHEAD_PCT}%"
    )


if __name__ == "__main__":
    main()
