"""Acceptance benchmark for the distributed tuning fleet (ISSUE 8).

Boots a real loopback fleet — one broker subprocess, two worker agent
subprocesses — multiplexes **two concurrent tuning sessions** through
``repro.fleet.schedule.run_schedule`` over a shared sharded ground-truth
cache, then reruns both sessions single-process and asserts the
acceptance criterion:

- **exactness**: every per-run ADRS / simulated-runtime value, every
  per-step history record and every learned Pareto front is ``==``
  (bitwise) between the fleet and single-process runs, for both
  sessions;
- **cleanliness**: the broker finished with zero lease expiries and
  zero duplicate completions — nobody timed out, nothing committed
  twice;
- **no polling**: the scheduler sent at most 1.5 ``/result`` requests
  per cell (``result_requests_per_cell``, read from the broker's
  ``fleet_request_latency_seconds_count{endpoint="/result"}``).  Each
  request is held at the broker until its cell lands (``poll_s`` is
  the longest hold, :data:`repro.fleet.wire.MAX_WAIT_S`, far above a
  smoke cell), so the count is one per cell plus any wait that ran
  out.  It counts requests, not time, so it holds on any runner; a
  polling scheduler needs at least two per cell (its first round
  always comes before the first cell lands).

These gates are deterministic regardless of core count, so
``speedup_asserted`` is true in every ``BENCH_fleet.json`` (the fleet
exists for horizontal scale-out across machines; a loopback fleet on a
CI box proves correctness, not speed).  The broker's event log is also
folded through the monitor's fleet dashboard and written to
``fleet_monitor.txt`` for the CI artifact.

Run directly for a report (writes ``BENCH_fleet.json``)::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments.harness import SMOKE_SCALE, run_benchmark
from repro.experiments.parallel import prewarm_contexts
from repro.fleet.client import BrokerClient
from repro.fleet.schedule import SessionSpec, run_schedule
from repro.fleet.wire import MAX_WAIT_S
from repro.obs.prom import metric_value, parse_metrics

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")
WORKERS = 2
#: The no-polling gate: ``/result`` requests per cell, at most.
MAX_RESULT_REQUESTS_PER_CELL = 1.5
SESSIONS = (
    SessionSpec(
        name="s1", benchmark="spmv_ellpack",
        methods=("fpl18", "dac19"), repeats=1, base_seed=2021,
    ),
    SessionSpec(
        name="s2", benchmark="gemm",
        methods=("dac19",), repeats=1, base_seed=7,
    ),
)

SPEEDUP_ASSERTED_REASON = (
    "parity gate: the fleet run (broker + 2 leased worker agents + 2 "
    "concurrent sessions over the sharded gtcache) must reproduce the "
    "single-process ADRS/runtime values, per-step histories and Pareto "
    "fronts bitwise, with zero lease expiries and zero duplicate "
    "completions, and at most 1.5 /result requests per cell (no "
    "polling) — deterministic and asserted on every run regardless "
    "of core count (a loopback fleet proves correctness, not speed)"
)


def _fleet_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _start_broker(tmp: Path, log_dir: Path):
    port_file = tmp / "broker.port"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet.broker",
            "--host", "127.0.0.1", "--port", "0",
            "--log-dir", str(log_dir), "--port-file", str(port_file),
        ],
        env=_fleet_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read().decode() if proc.stdout else ""
            raise RuntimeError(f"fleet broker did not start: {out}")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}"


def _start_workers(url: str, cache_dir: Path) -> list:
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.fleet.worker",
                "--broker", url, "--worker-id", f"w{i}",
                "--cache-dir", str(cache_dir), "--poll", "0.05",
            ],
            env=_fleet_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for i in range(WORKERS)
    ]


def _stop(procs) -> None:
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.terminate()
    for proc in procs:
        if proc is None:
            continue
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)


def _hist(result):
    return [
        (
            r.step, r.config_index, int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives),
            r.valid, r.runtime_s,
        )
        for r in result.history
    ]


def _assert_sessions_identical(fleet, cache_dir) -> int:
    """Bitwise fleet==local comparison per session; runs compared."""
    import numpy as np

    compared = 0
    for spec in SESSIONS:
        local = run_benchmark(
            spec.benchmark, methods=spec.methods, scale=SMOKE_SCALE,
            base_seed=spec.base_seed, cache_dir=cache_dir,
        )
        remote = fleet[spec.name]
        assert set(remote) == set(spec.methods), spec.name
        for method in spec.methods:
            for a, b in zip(local[method], remote[method]):
                assert a.seed == b.seed, (spec.name, method)
                assert a.adrs == b.adrs, (spec.name, method, a.adrs, b.adrs)
                assert a.runtime_s == b.runtime_s, (spec.name, method)
                assert _hist(a.result) == _hist(b.result), (spec.name, method)
                assert a.result.cs_indices == b.result.cs_indices
                assert np.array_equal(a.result.cs_values, b.result.cs_values)
                compared += 1
    return compared


def _monitor_snapshot(log_dir: Path, out_path: Path) -> None:
    from repro.obs.monitor import SweepState, render

    state = SweepState()
    state.refresh(log_dir)
    out_path.write_text(render(state, log_dir, tick=1) + "\n")


def run_bench(
    report_path: str | Path | None = None,
    monitor_path: str | Path | None = None,
) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="repro-fleet-bench-"))
    cache_dir = tmp / "gtcache"
    log_dir = tmp / "fleet-log"
    log_dir.mkdir()
    # Outside the timed regions: fill the shared ground-truth cache so
    # both modes measure the engines, not the exhaustive sweep.
    prewarm_contexts(
        tuple({s.benchmark for s in SESSIONS}), cache_dir=cache_dir
    )

    broker = None
    workers: list = []
    try:
        broker, url = _start_broker(tmp, log_dir)
        workers = _start_workers(url, cache_dir)
        start = time.perf_counter()
        fleet = run_schedule(
            url, list(SESSIONS), scale=SMOKE_SCALE, cache_dir=cache_dir,
            poll_s=MAX_WAIT_S, timeout_s=900.0,
        )
        fleet_s = time.perf_counter() - start
        probe = BrokerClient(url)
        stats = probe.stats()
        result_requests = metric_value(
            parse_metrics(probe.metrics_text()),
            'fleet_request_latency_seconds_count{endpoint="/result"}',
        ) or 0.0
        probe.close()
    finally:
        _stop([broker] + workers)

    start = time.perf_counter()
    runs_compared = _assert_sessions_identical(fleet, cache_dir)
    local_s = time.perf_counter() - start

    if monitor_path:
        _monitor_snapshot(log_dir, Path(monitor_path))

    report = {
        "sessions": [
            {
                "name": s.name, "benchmark": s.benchmark,
                "methods": list(s.methods), "base_seed": s.base_seed,
            }
            for s in SESSIONS
        ],
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "runs_compared": runs_compared,
        "identical": True,  # _assert_sessions_identical raised otherwise
        "fleet_s": round(fleet_s, 3),
        "local_s": round(local_s, 3),
        "lease_expiries": stats["expiries"],
        "duplicate_completions": stats["duplicates"],
        "tasks_done": stats["done"],
        "result_requests_per_cell": round(
            result_requests / max(1, stats["done"]), 3
        ),
        "speedup_asserted": True,
        "speedup_asserted_reason": SPEEDUP_ASSERTED_REASON,
    }
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    expected = sum(len(s.methods) for s in SESSIONS)
    assert runs_compared >= expected, (
        f"only {runs_compared} runs compared; expected {expected}"
    )
    assert stats["expiries"] == 0, "a lease timed out on a healthy fleet"
    assert stats["duplicates"] == 0, "an outcome was committed twice"
    assert (
        report["result_requests_per_cell"] <= MAX_RESULT_REQUESTS_PER_CELL
    ), (
        f"{report['result_requests_per_cell']} /result requests per cell: "
        "the scheduler is polling"
    )
    return report


@pytest.mark.slow
def test_fleet_loopback_bitwise():
    report = run_bench()
    assert report["identical"]
    assert report["lease_expiries"] == 0
    assert report["duplicate_completions"] == 0


def main() -> None:
    report = run_bench(
        report_path="results/BENCH_fleet.json", monitor_path="results/fleet_monitor.txt"
    )
    print(json.dumps(report, indent=2))
    print("wrote results/BENCH_fleet.json and results/fleet_monitor.txt")


if __name__ == "__main__":
    main()
