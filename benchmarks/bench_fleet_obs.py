"""Acceptance benchmark for the fleet observability plane (ISSUE 10).

Boots the same loopback fleet as ``bench_fleet.py`` (one broker, two
worker agents, two concurrent sessions) in ``OVERHEAD_PAIRS``
telemetry-off/telemetry-on pairs, alternating which run of a pair goes
first, and gates every acceptance criterion of the observability
plane:

- **neutrality**: per-run ADRS/runtime values, per-step histories and
  Pareto fronts are ``==`` (bitwise) across every telemetry-on and
  telemetry-off run — trace ids, spans, heartbeat fronts and the
  /metrics sidecars never touch a seed stream;
- **trace propagation**: >= 95% of the spans recorded by workers and
  their cells carry a scheduler-minted session trace id (the
  ``X-Repro-Trace`` chain submit -> lease -> execute -> cell held);
- **metrics**: the live broker ``/metrics`` exposition parses into at
  least 12 metric families while the sweep is running;
- **alerting**: a seeded SLO breach evaluated by the monitor against
  the scraped series writes ``--alert-file`` and exits nonzero, while
  a healthy rule set exits zero;
- **overhead**: the median over the pairs of the on/off wall-time
  ratio is within ``MAX_OVERHEAD_PCT`` of 1.

All gates are deterministic except the overhead ratio, which compares
interleaved runs on the same machine.  Each ratio compares two
adjacent runs, so a slow spell of the machine mostly slows both sides
of a pair; the median ignores one pair a spell splits, and alternating
the order cancels a drift that favours whichever run goes first.
``speedup_asserted`` is true on every run.  The report lists every
run's wall time and keeps ``off_s``/``on_s``, the median off and on
wall times, for the comparison against the pinned baseline.  The trace, metrics and
alert gates read the first pair's telemetry-on run.  Artifacts for CI:
the merged Perfetto timeline, the scraped broker series and the alert
report.

Run directly for a report (writes ``results/BENCH_fleet_obs.json``)::

    PYTHONPATH=src python benchmarks/bench_fleet_obs.py
"""

import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.harness import SMOKE_SCALE
from repro.experiments.parallel import prewarm_contexts
from repro.fleet.client import BrokerClient
from repro.fleet.schedule import SessionSpec, run_schedule
from repro.obs.scrape import scrape_loop

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")
WORKERS = 2
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
MAX_OVERHEAD_PCT = 5.0
OVERHEAD_PAIRS = 3
MIN_PARENT_FRACTION = 0.95
MIN_METRIC_FAMILIES = 12
SCRAPE_INTERVAL_S = 0.5

BREACH_RULE = "value(fleet_completions_total) > 0"
HEALTHY_RULE = "rate(fleet_auth_rejects_total) > 100/min over 60s"

SPEEDUP_ASSERTED_REASON = (
    "parity + propagation gate: the telemetry-on fleet run must "
    "reproduce the telemetry-off ADRS/runtime values, histories and "
    "fronts bitwise, parent >= 95% of worker/cell spans into the "
    "scheduler's session traces, expose >= 12 live metric families, "
    "fire a seeded SLO breach through the monitor's alert file, and "
    "stay within the overhead budget of interleaved off/on pairs "
    "on the same machine — meaningful at any core count"
)


def _fleet_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_broker(tmp: Path, log_dir: Path, trace_file: Path | None):
    port_file = tmp / "broker.port"
    if port_file.exists():
        port_file.unlink()
    argv = [
        sys.executable, "-m", "repro.fleet.broker",
        "--host", "127.0.0.1", "--port", "0",
        "--log-dir", str(log_dir), "--port-file", str(port_file),
    ]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(
        argv, env=_fleet_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read().decode() if proc.stdout else ""
            raise RuntimeError(f"fleet broker did not start: {out}")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}"


def _start_workers(
    url: str, cache_dir: Path,
    trace_dir: Path | None = None,
    metrics_ports: list[int] | None = None,
) -> list:
    procs = []
    for i in range(WORKERS):
        argv = [
            sys.executable, "-m", "repro.fleet.worker",
            "--broker", url, "--worker-id", f"w{i}",
            "--cache-dir", str(cache_dir), "--poll", "0.05",
        ]
        if trace_dir is not None:
            argv += [
                "--trace-dir", str(trace_dir),
                "--metrics-port", str(metrics_ports[i]),
                "--stream-interval", "0.2",
            ]
        procs.append(
            subprocess.Popen(
                argv, env=_fleet_env(),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
        )
    return procs


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


def _assert_runs_identical(off, on) -> int:
    """Bitwise telemetry-off == telemetry-on, per session and method."""
    import numpy as np

    compared = 0
    for spec in SESSIONS:
        assert set(off[spec.name]) == set(on[spec.name]) == set(spec.methods)
        for method in spec.methods:
            for a, b in zip(off[spec.name][method], on[spec.name][method]):
                assert a.seed == b.seed, (spec.name, method)
                assert a.adrs == b.adrs, (spec.name, method, a.adrs, b.adrs)
                assert a.runtime_s == b.runtime_s, (spec.name, method)
                assert _hist(a.result) == _hist(b.result), (spec.name, method)
                assert a.result.cs_indices == b.result.cs_indices
                assert np.array_equal(a.result.cs_values, b.result.cs_values)
                compared += 1
    return compared


def _run_fleet(
    tmp: Path, cache_dir: Path, tag: str, telemetry: bool
) -> dict:
    """One full loopback sweep; returns timing + telemetry outputs."""
    log_dir = tmp / f"log-{tag}"
    log_dir.mkdir()
    trace_dir = metrics_dir = None
    broker_trace = None
    metrics_ports: list[int] = []
    if telemetry:
        trace_dir = tmp / f"trace-{tag}"
        metrics_dir = tmp / f"metrics-{tag}"
        broker_trace = log_dir / "broker.trace.jsonl"
        metrics_ports = [_free_port() for _ in range(WORKERS)]

    broker = None
    workers: list = []
    scrape_stop = threading.Event()
    scraper = None
    try:
        broker, url = _start_broker(tmp, log_dir, broker_trace)
        workers = _start_workers(
            url, cache_dir,
            trace_dir=trace_dir, metrics_ports=metrics_ports or None,
        )
        if telemetry:
            endpoints = [f"{url}/metrics"] + [
                f"http://127.0.0.1:{p}/metrics" for p in metrics_ports
            ]
            scraper = threading.Thread(
                target=scrape_loop,
                kwargs={
                    "urls": endpoints, "out": metrics_dir,
                    "interval_s": SCRAPE_INTERVAL_S, "stop": scrape_stop,
                },
                daemon=True,
            )
            scraper.start()
        start = time.perf_counter()
        results = run_schedule(
            url, list(SESSIONS), scale=SMOKE_SCALE, cache_dir=cache_dir,
            trace_dir=trace_dir,
            journal_dir=(tmp / f"journal-{tag}") if telemetry else None,
            poll_s=0.1, timeout_s=900.0,
        )
        wall_s = time.perf_counter() - start
        client = BrokerClient(url)
        stats = client.stats()
        best = client.best() if telemetry else None
        if telemetry:
            # One last scrape of every endpoint while the fleet is
            # still up: the sidecar's ticks can all land before the
            # first completion, and the seeded SLO gate needs a sample
            # taken after it.
            scrape_stop.set()
            scraper.join(timeout=10.0)
            scrape_loop(urls=endpoints, out=metrics_dir, count=1)
    finally:
        scrape_stop.set()
        if scraper is not None:
            scraper.join(timeout=10.0)
        _stop([broker] + workers)
    return {
        "results": results, "wall_s": wall_s, "stats": stats,
        "best": best, "log_dir": log_dir, "trace_dir": trace_dir,
        "metrics_dir": metrics_dir, "broker_trace": broker_trace,
        "broker_url": url,
    }


def _family_name(sample: str) -> str:
    name = sample.split("{", 1)[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _metric_families(metrics_dir: Path, broker_url: str) -> list[str]:
    """Distinct family names in the last good scrape of the broker."""
    from repro.obs.scrape import _out_path

    latest = None
    for line in _out_path(
        metrics_dir, f"{broker_url}/metrics"
    ).read_text().splitlines():
        record = json.loads(line)
        if record.get("ok"):
            latest = record
    assert latest is not None, "no successful broker scrape"
    return sorted({_family_name(s) for s in latest["metrics"]})


def _span_parenting(trace_dir: Path) -> tuple[int, int]:
    """(parented, total) over worker- and cell-recorded spans."""
    session_traces = set()
    for line in (trace_dir / "schedule.trace.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record.get("event") == "span" and record.get("trace"):
            session_traces.add(record["trace"])
    assert session_traces, "scheduler recorded no session traces"
    total = parented = 0
    for path in sorted(trace_dir.glob("*.trace.jsonl")):
        if path.name == "schedule.trace.jsonl":
            continue
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("event") != "span":
                continue
            total += 1
            if record.get("trace") in session_traces:
                parented += 1
    return parented, total


def _slo_gate(metrics_dir: Path, alert_path: Path) -> dict:
    """Seeded breach -> alert file + rc 1; healthy rules -> rc 0."""
    breach = subprocess.run(
        [
            sys.executable, "-m", "repro.obs.monitor", str(metrics_dir),
            "--once", "--slo", BREACH_RULE, "--slo", HEALTHY_RULE,
            "--alert-file", str(alert_path),
        ],
        env=_fleet_env(), capture_output=True, text=True, timeout=120.0,
    )
    assert breach.returncode == 1, (
        f"seeded SLO breach did not exit 1: rc={breach.returncode} "
        f"stderr={breach.stderr!r}"
    )
    alerts = json.loads(alert_path.read_text())
    assert alerts["breaches"], "alert file written without breaches"
    assert any(
        b["rule"] == BREACH_RULE for b in alerts["breaches"]
    ), alerts
    healthy = subprocess.run(
        [
            sys.executable, "-m", "repro.obs.monitor", str(metrics_dir),
            "--once", "--slo", HEALTHY_RULE,
        ],
        env=_fleet_env(), capture_output=True, text=True, timeout=120.0,
    )
    assert healthy.returncode == 0, (
        f"healthy SLO rules exited {healthy.returncode}: "
        f"stderr={healthy.stderr!r}"
    )
    return {
        "breach_rule": BREACH_RULE,
        "breach_rc": breach.returncode,
        "healthy_rc": healthy.returncode,
        "breaches": len(alerts["breaches"]),
    }


def _export_artifacts(run_on: dict, artifact_dir: Path, alert_path: Path):
    from repro.obs.spans import collect_trace_files, export_chrome_trace
    from repro.obs.scrape import _out_path

    artifact_dir.mkdir(parents=True, exist_ok=True)
    files = collect_trace_files([run_on["trace_dir"]])
    if run_on["broker_trace"].exists():
        files.append(run_on["broker_trace"])
    export_chrome_trace(files, artifact_dir / "fleet_obs_trace.json")
    shutil.copyfile(
        _out_path(run_on["metrics_dir"], f"{run_on['broker_url']}/metrics"),
        artifact_dir / "fleet_obs_metrics.metrics.jsonl",
    )
    shutil.copyfile(alert_path, artifact_dir / "fleet_obs_alerts.json")


def run_bench(
    report_path: str | Path | None = None,
    artifact_dir: str | Path | None = None,
) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="repro-fleet-obs-"))
    cache_dir = tmp / "gtcache"
    # Outside the timed regions: the shared ground-truth cache, so all
    # sweeps measure the fleet, not the exhaustive evaluation.
    prewarm_contexts(
        tuple({s.benchmark for s in SESSIONS}), cache_dir=cache_dir
    )

    offs, ons = [], []
    for i in range(OVERHEAD_PAIRS):
        for telemetry in (False, True) if i % 2 == 0 else (True, False):
            tag = f"{'on' if telemetry else 'off'}{i}"
            run = _run_fleet(tmp, cache_dir, tag, telemetry=telemetry)
            (ons if telemetry else offs).append(run)
    run_on = ons[0]

    runs_compared = _assert_runs_identical(
        offs[0]["results"], run_on["results"]
    )
    for run in offs[1:] + ons[1:]:
        _assert_runs_identical(offs[0]["results"], run["results"])

    parented, total = _span_parenting(run_on["trace_dir"])
    parent_fraction = parented / total if total else 0.0
    families = _metric_families(
        run_on["metrics_dir"], run_on["broker_url"]
    )
    alert_path = tmp / "fleet_obs_alerts.json"
    slo = _slo_gate(run_on["metrics_dir"], alert_path)
    if artifact_dir is not None:
        _export_artifacts(run_on, Path(artifact_dir), alert_path)

    ratios = [on["wall_s"] / off["wall_s"] for off, on in zip(offs, ons)]
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    best = run_on["best"] or {}
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
        "identical": True,  # _assert_runs_identical raised otherwise
        "off_s": round(statistics.median(r["wall_s"] for r in offs), 3),
        "on_s": round(statistics.median(r["wall_s"] for r in ons), 3),
        "off_runs_s": [round(run["wall_s"], 3) for run in offs],
        "on_runs_s": [round(run["wall_s"], 3) for run in ons],
        "on_off_ratios": [round(r, 4) for r in ratios],
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "spans_parented": parented,
        "spans_total": total,
        "span_parent_fraction": round(parent_fraction, 4),
        "metric_families": len(families),
        "metric_family_names": families,
        "slo": slo,
        "best_queues": sorted((best.get("queues") or {})),
        "lease_expiries": run_on["stats"]["expiries"],
        "duplicate_completions": run_on["stats"]["duplicates"],
        "tasks_done": run_on["stats"]["done"],
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
    assert parent_fraction >= MIN_PARENT_FRACTION, (
        f"only {parented}/{total} worker/cell spans parented into "
        f"scheduler traces ({100 * parent_fraction:.1f}%)"
    )
    assert len(families) >= MIN_METRIC_FAMILIES, (
        f"only {len(families)} live metric families: {families}"
    )
    assert best.get("queues"), "broker /best published no fronts"
    assert run_on["stats"]["expiries"] == 0, "a lease timed out"
    assert run_on["stats"]["duplicates"] == 0, "a duplicate completion"
    assert overhead_pct <= MAX_OVERHEAD_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% exceeds "
        f"{MAX_OVERHEAD_PCT:.1f}% (median on/off ratio of "
        f"{report['on_off_ratios']}; on={report['on_runs_s']}s "
        f"off={report['off_runs_s']}s)"
    )
    return report


@pytest.mark.slow
def test_fleet_observability_plane():
    report = run_bench()
    assert report["identical"]
    assert report["span_parent_fraction"] >= MIN_PARENT_FRACTION
    assert report["metric_families"] >= MIN_METRIC_FAMILIES
    assert report["slo"]["breach_rc"] == 1
    assert report["slo"]["healthy_rc"] == 0


def main() -> None:
    report = run_bench(
        report_path="results/BENCH_fleet_obs.json", artifact_dir="results"
    )
    print(json.dumps(report, indent=2))
    print(
        "wrote results/BENCH_fleet_obs.json, results/fleet_obs_trace.json, "
        "results/fleet_obs_metrics.metrics.jsonl, "
        "results/fleet_obs_alerts.json"
    )


if __name__ == "__main__":
    main()
