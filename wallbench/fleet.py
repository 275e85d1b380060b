"""A loopback fleet for the ``fleet-sweep`` workload.

One broker (write-ahead journal on, shared-key wire auth) and a few
worker agents, all subprocesses of the benchmark, which is itself the
one scheduler.  :class:`Fleet` owns every process and directory it
creates: :meth:`Fleet.stop` terminates and reaps the processes (kill
after a grace period) and removes the directories, and it runs on
success, on failure and on Ctrl-C because callers hold the fleet in a
``with`` block.
"""

from __future__ import annotations

import os
import secrets
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Session name of the measured sweeps (queue ``session.sweep``).
SWEEP = "sweep"

#: Broker metric families read as deltas around each sweep.
BROKER_COUNTERS = {
    "requests_s": "fleet_request_latency_seconds_sum",
    "wal_fsync_s": "fleet_wal_fsync_seconds_sum",
    "wal_records": "fleet_wal_records_total",
    "expiries": "fleet_lease_expiries_total",
    "duplicates": "fleet_duplicate_completions_total",
    "completions": "fleet_completions_total",
}


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_hwm() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def proc_env(pid: int, name: str) -> str | None:
    """One environment variable of a live child process."""
    with open(f"/proc/{pid}/environ", "rb") as handle:
        for entry in handle.read().split(b"\0"):
            key, _, value = entry.partition(b"=")
            if key.decode() == name:
                return value.decode()
    return None


class Fleet:
    """Broker plus ``workers`` agents under one scratch directory."""

    def __init__(
        self, work_root: Path, cache_dir: Path, workers: int,
        trace: bool = False,
    ):
        self.work_root = work_root
        self.cache_dir = cache_dir
        self.n_workers = workers
        self.trace = trace
        self.tmp: Path | None = None
        self.auth_key = b""
        self.broker = None
        self.workers: list[subprocess.Popen] = []
        self.url = ""
        self.client = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, argv: list[str], log: str) -> subprocess.Popen:
        # Children get their own process group so a Ctrl-C at the
        # terminal reaches only the benchmark, which then stops them.
        with open(self.tmp / log, "wb") as out:
            return subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def start(self) -> "Fleet":
        from repro.fleet.client import BrokerClient

        self.tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.work_root))
        key_file = self.tmp / "auth.key"
        self.auth_key = secrets.token_hex(32).encode()
        key_file.write_bytes(self.auth_key)
        port_file = self.tmp / "broker.port"
        self.broker = self._spawn(
            [
                sys.executable, "-m", "repro.fleet.broker",
                "--host", "127.0.0.1", "--port", "0",
                "--port-file", str(port_file),
                "--state-dir", str(self.tmp / "state"),
                "--compact-bytes", "0",
                "--auth-key-file", str(key_file),
            ],
            "broker.log",
        )
        deadline = time.monotonic() + 30.0
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.broker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "fleet broker did not start:\n" + self.log("broker.log")
                )
            time.sleep(0.005)
        self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        self.client = BrokerClient(self.url, auth_key=self.auth_key)
        for i in range(self.n_workers):
            argv = [sys.executable, str(HERE / "worker_main.py")]
            if self.trace:
                argv += ["--trace-out", str(self.stats_path(i))]
            argv += [
                "--broker", self.url, "--worker-id", f"w{i}",
                "--cache-dir", str(self.cache_dir),
                "--auth-key-file", str(key_file),
                "--queues", f"session.{SWEEP},session.warm{i}",
                "--broker-patience", "5",
            ]
            self.workers.append(self._spawn(argv, f"worker{i}.log"))
        return self

    def warm_up(self, scale, seed: int) -> None:
        """One cell on every worker's private queue, so each agent has
        imported the stack and loaded the space before a sweep, and the
        sweep queue created, so every sweep writes the same WAL records."""
        from repro.fleet.schedule import SessionSpec, run_schedule

        self.client.create_queue(f"session.{SWEEP}")
        specs = [
            SessionSpec(
                name=f"warm{i}", benchmark="spmv_ellpack",
                methods=("random",), repeats=1, base_seed=seed,
            )
            for i in range(self.n_workers)
        ]
        run_schedule(
            self.url, specs, scale=scale, cache_dir=str(self.cache_dir),
            auth_key=self.auth_key, poll_s=0.005, timeout_s=120.0,
        )

    def stats_path(self, i: int) -> Path:
        return self.tmp / f"worker{i}.layers.json"

    def log(self, name: str) -> str:
        path = self.tmp / name
        return path.read_text(errors="replace") if path.exists() else ""

    def pids(self) -> list[int]:
        return [p.pid for p in [self.broker, *self.workers] if p is not None]

    def busy(self) -> tuple[float, int]:
        """Seconds the workers spent executing cells and cells they
        completed, summed over workers, from the broker's ``/stats``."""
        workers = self.client.stats()["workers"].values()
        return (
            sum(w["busy_s"] for w in workers),
            sum(w["completed"] for w in workers),
        )

    def metrics(self) -> dict[str, float]:
        """The broker's counters of interest, read from ``/metrics``."""
        from repro.obs.prom import metric_value, parse_metrics

        samples = parse_metrics(self.client.metrics_text())
        return {
            key: metric_value(samples, family) or 0.0
            for key, family in BROKER_COUNTERS.items()
        }

    def stop(self) -> list[int]:
        """Terminate, reap and clean up; returns the exit codes."""
        procs = [p for p in [*self.workers, self.broker] if p is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes = []
        for proc in procs:
            try:
                codes.append(proc.wait(timeout=10.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                codes.append(proc.wait(timeout=10.0))
        self.workers, self.broker = [], None
        return codes

    def close(self) -> None:
        try:
            self.stop()
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
