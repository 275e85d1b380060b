"""Live sweep monitor: tail journals/traces of a running experiment.

::

    python -m repro.obs.monitor RUN_DIR [--interval 2] [--once]

Point it at the directory a sweep is writing into (``--journal-dir``
and/or ``--trace-dir`` of the experiment drivers).  Every refresh it
tails the ``*.journal.jsonl`` run journals and ``*.jsonl`` trace files
for *newly appended* lines and redraws in place:

- per-cell progress (committed evaluations vs. the journaled budget,
  current phase, retries/degradations) with the cell's **current Pareto
  hypervolume** — computed from the valid committed objectives
  ``[power_w, delay_us, lut_util]`` against a per-cell reference point
  (componentwise worst seen + 10%), so the number is comparable across
  refreshes of one cell, not across cells;
- sweep-wide fault / retry / degrade / resume counters;
- worker utilization (busy time per worker pid/thread from ``job``
  lines and ``flow_eval`` spans, relative to the trace extent);
- async pipelines (one row per trace file emitting ``inflight``
  events): current in-flight count, adaptive in-flight target with its
  recent trajectory, committed count, fantasy-front hypervolume and
  the simulated clock;
- fleet brokers (one block per ``*.fleet.jsonl`` event log from
  ``python -m repro.fleet.broker --log-dir``): per-queue progress and
  lease depth, per-agent lease churn and busy time, lease-expiry and
  duplicate-completion counters, and per-queue wall-time attribution —
  how long cells spent queued vs evaluating vs in fleet overhead
  (lease round-trips, journal streaming, result shipping).

The monitor imports **nothing from the hot path** at start-up: only
the standard library and the log module :mod:`repro.fleet.wal`, which
imports no numpy.  The first cell hypervolume loads numpy and
:mod:`repro.core.pareto` — never scipy or the optimizer.  It tails
raw JSONL through the shared
complete-line tail (torn trailing lines of a live file stay unread,
and a journal rewritten by a resume is detected by shrinkage and
re-read from the top), so it can run on any machine that sees the
files.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.fleet.wal import iter_records, tail_complete

__all__ = [
    "TraceTail",
    "CellState",
    "FleetState",
    "PipelineState",
    "SweepState",
    "point_from_commit",
    "scan_files",
    "render",
    "main",
]


def _float(value) -> float:
    """Journal floats may be sentinel strings ("NaN"/"Infinity")."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def point_from_commit(record: dict) -> tuple[float, float, float] | None:
    """The ``[power_w, delay_us, lut_util]`` triple of one journal
    ``commit`` record (all minimized; ``delay_us = latency_cycles *
    clock_ns * 1e-3``).

    ``None`` for non-commit records, commits without reports, and
    invalid final reports.
    """
    if record.get("event") != "commit":
        return None
    reports = record.get("reports") or []
    if not reports:
        return None
    final = reports[-1]
    if not final.get("valid"):
        return None
    delay_us = (
        _float(final.get("latency_cycles")) * _float(final.get("clock_ns"))
        * 1e-3
    )
    return (
        _float(final.get("power_w")),
        delay_us,
        _float(final.get("lut_util")),
    )


# ----------------------------------------------------------------------
# incremental file tailing
# ----------------------------------------------------------------------


class TraceTail:
    """Tail one JSONL file, yielding newly appended complete records.

    Reads through :func:`repro.fleet.wal.tail_complete`: a shrinking
    file (journal rewritten by a resume) restarts from zero, and a
    trailing partial line (live writer mid-append) stays unread until
    its newline arrives.  Lines that are not JSON objects are skipped
    (:func:`repro.fleet.wal.iter_records`).
    """

    def __init__(self, path: Path):
        self.path = path
        self.offset = 0

    def read_new(self) -> list[dict]:
        data, _reset, start = tail_complete(self.path, self.offset)
        self.offset = start + len(data)
        return list(iter_records(data))  # a tail never crashes


# ----------------------------------------------------------------------
# sweep state
# ----------------------------------------------------------------------


class CellState:
    """Progress of one (benchmark, method, seed) cell's journal.

    ``points`` holds the objective triples of the valid commits; a
    point with a NaN or infinite objective is dropped, its commit still
    counts.
    """

    def __init__(self, name: str):
        self.name = name
        self.label = name
        self.budget: int | None = None  # sum(n_init) + n_iter
        self.phase = "-"
        self.retries = 0
        self.degrades = 0
        self.failed = 0
        self.commits = 0
        self.points: list[tuple[float, float, float]] = []

    def feed(self, record: dict) -> None:
        event = record.get("event")
        if event == "header":
            self.label = (
                f"{record.get('kernel', '?')}.{record.get('method', '?')} "
                f"seed {record.get('seed', '?')}"
            )
            fp = record.get("fingerprint") or {}
            n_init = fp.get("n_init") or []
            if fp.get("n_iter") is not None:
                self.budget = int(sum(n_init)) + int(fp["n_iter"])
        elif event == "commit":
            self.commits += 1
            point = point_from_commit(record)
            if point is not None and all(math.isfinite(v) for v in point):
                self.points.append(point)
            self.phase = record.get("phase", self.phase)
            self.retries += max(0, int(record.get("attempts", 1)) - 1)
            if record.get("degraded"):
                self.degrades += 1
            if record.get("failed"):
                self.failed += 1

    @property
    def progress(self) -> str:
        if self.budget:
            done = min(self.commits, self.budget)
            width = 10
            fill = round(width * done / self.budget)
            bar = "#" * fill + "." * (width - fill)
            return f"[{bar}] {self.commits:>3}/{self.budget}"
        return f"{self.commits:>3} commits"

    def hypervolume(self) -> float | None:
        """The points' hypervolume (paper Eq. (6)); ``None`` before
        the first point.

        The reference point is the componentwise worst point seen plus
        10% — comparable across refreshes of one cell, not across cells.
        """
        if not self.points:
            return None
        from repro.core.pareto import hypervolume

        ref = tuple(
            max(p[i] for p in self.points) * 1.1 + 1e-12 for i in range(3)
        )
        return hypervolume(self.points, ref)


class PipelineState:
    """Latest async-pipeline snapshot of one trace file."""

    #: Recent adaptive in-flight targets kept for the trajectory column.
    TRAJECTORY_LEN = 16

    def __init__(self) -> None:
        self.committed = 0
        self.n_pending = 0
        self.target = 1
        self.fantasy_hv: float | None = None
        self.sim_s = 0.0
        self.targets: list[int] = []

    def feed(self, record: dict) -> None:
        self.committed = int(record.get("committed", self.committed))
        self.n_pending = int(record.get("n_pending", self.n_pending))
        self.target = int(record.get("target", self.target))
        hv = record.get("fantasy_hv")
        if hv is not None:
            self.fantasy_hv = _float(hv)
        self.sim_s = _float(record.get("sim_s", self.sim_s))
        if not self.targets or self.targets[-1] != self.target:
            self.targets.append(self.target)
            del self.targets[: -self.TRAJECTORY_LEN]

    @property
    def trajectory(self) -> str:
        return ">".join(str(t) for t in self.targets) or "-"


class FleetState:
    """Folded view of one broker's ``*.fleet.jsonl`` event log.

    Per-worker lease churn and busy time, per-queue depth/progress, and
    the fleet health counters that matter: lease expiries (a worker
    died or stalled past its TTL — the task was re-issued), duplicate
    completions (a stale lease's result arrived second and was dropped
    by first-writer-wins), plus the survivability rows the WAL now
    carries — broker restarts, auth rejections, client reconnects, and
    resumed-vs-rerun cells with the streamed commits they salvaged.
    """

    def __init__(self) -> None:
        self.workers: dict[str, dict] = {}
        self.queues: dict[str, dict] = {}
        self.expiries = 0
        self.duplicates = 0
        self.renews = 0
        self.restarts = 0
        self.auth_rejects = 0
        self.reconnects = 0
        self.segments = 0
        self.streamed_commits: dict[str, int] = {}  # task -> commits
        self.resumed: dict[str, int] = {}  # task -> salvaged commits
        # Per-task wall-clock stamps for the attribution rollup: every
        # WAL record carries ``t``, so queued time is lease.t minus the
        # moment the task (re)entered the queue, and the gap between
        # lease-to-complete wall time and the worker's own ``exec_s``
        # is fleet overhead (lease grant, journal streaming, result
        # shipping — "network" for short).
        self._ready_t: dict[str, float] = {}
        self._lease_t: dict[str, float] = {}

    def _worker(self, name: str) -> dict:
        return self.workers.setdefault(
            name, {"leases": 0, "completed": 0, "expired": 0, "busy_s": 0.0}
        )

    def _queue(self, name: str) -> dict:
        return self.queues.setdefault(
            name,
            {
                "submitted": 0, "done": 0, "leased": 0,
                "queued_s": 0.0, "eval_s": 0.0, "network_s": 0.0,
            },
        )

    def feed(self, record: dict) -> None:
        event = record.get("event")
        queue = record.get("queue", "?")
        worker = record.get("worker", "?")
        task = record.get("task")
        t = _float(record.get("t"))
        if event == "register":
            self._worker(worker)
        elif event == "queue":
            self._queue(queue)
        elif event == "submit":
            self._queue(queue)["submitted"] += 1
            if task and not math.isnan(t):
                self._ready_t[task] = t
        elif event == "lease":
            self._worker(worker)["leases"] += 1
            q = self._queue(queue)
            q["leased"] += 1
            if task and not math.isnan(t):
                ready = self._ready_t.pop(task, None)
                if ready is not None:
                    q["queued_s"] += max(0.0, t - ready)
                self._lease_t[task] = t
        elif event == "renew":
            self.renews += 1
        elif event == "expire":
            self.expiries += 1
            if worker in self.workers:
                self.workers[worker]["expired"] += 1
            q = self._queue(queue)
            q["leased"] = max(0, q["leased"] - 1)
            if task and not math.isnan(t):
                # Back in the queue: waiting restarts from the expiry.
                self._ready_t[task] = t
                self._lease_t.pop(task, None)
        elif event == "complete":
            if record.get("status") == "duplicate":
                self.duplicates += 1
                return
            exec_s = _float(record.get("exec_s", 0.0)) or 0.0
            w = self._worker(worker)
            w["completed"] += 1
            w["busy_s"] += exec_s
            q = self._queue(queue)
            q["done"] += 1
            q["leased"] = max(0, q["leased"] - 1)
            q["eval_s"] += exec_s
            leased = self._lease_t.pop(task, None) if task else None
            if leased is not None and not math.isnan(t):
                held = max(0.0, t - leased)
                q["network_s"] += max(0.0, held - exec_s)
        elif event == "restart":
            self.restarts += 1
        elif event == "auth_reject":
            self.auth_rejects += 1
        elif event == "reconnect":
            self.reconnects += 1
        elif event == "segment":
            self.segments += 1
            task = record.get("task", "?")
            self.streamed_commits[task] = int(record.get("commits", 0))
        elif event == "resume_grant":
            task = record.get("task", "?")
            self.resumed[task] = int(record.get("commits", 0))
        elif event == "snapshot":
            self._feed_snapshot(record)

    def _feed_snapshot(self, record: dict) -> None:
        """Fold one WAL compaction snapshot into the dashboard state.

        Compaction rewrites the broker's journal as a single snapshot,
        so the per-event rows it replaced are gone; counters are folded
        with ``max`` (they are monotonic) — correct both for a monitor
        that already counted the replaced events and for one attaching
        fresh after a compaction.
        """
        counters = record.get("counters") or {}
        for name in ("expiries", "duplicates", "restarts",
                     "auth_rejects", "reconnects"):
            setattr(self, name, max(getattr(self, name),
                                    int(counters.get(name, 0))))
        for worker, info in (record.get("workers") or {}).items():
            w = self._worker(worker)
            w["leases"] = max(w["leases"], int(info.get("leases_taken", 0)))
            w["completed"] = max(w["completed"], int(info.get("completed", 0)))
            w["expired"] = max(w["expired"], int(info.get("expired", 0)))
            w["busy_s"] = max(w["busy_s"], _float(info.get("busy_s")) or 0.0)
        tallies: dict[str, dict] = {}
        for task_id, entry in (record.get("tasks") or {}).items():
            t = tallies.setdefault(
                entry.get("queue", "?"),
                {"submitted": 0, "done": 0, "leased": 0},
            )
            t["submitted"] += 1
            state = entry.get("state")
            if state == "done":
                t["done"] += 1
            elif state == "leased":
                t["leased"] += 1
            # Re-seed the attribution stamps the replaced per-event
            # rows carried, so in-flight tasks still attribute.
            if state == "queued" and entry.get("submitted_wall"):
                self._ready_t[task_id] = _float(entry["submitted_wall"])
            elif state == "leased" and entry.get("leased_wall"):
                self._lease_t[task_id] = _float(entry["leased_wall"])
        for queue in record.get("queues") or {}:
            tallies.setdefault(
                queue, {"submitted": 0, "done": 0, "leased": 0}
            )
        for queue, t in tallies.items():
            q = self._queue(queue)
            q["submitted"] = max(q["submitted"], t["submitted"])
            q["done"] = max(q["done"], t["done"])
            q["leased"] = t["leased"]
        for task, info in (record.get("streams") or {}).items():
            self.streamed_commits[task] = int(info.get("commits", 0))


class SweepState:
    """Everything the monitor knows, folded from all tailed files."""

    def __init__(self) -> None:
        self.cells: dict[str, CellState] = {}
        self.tails: dict[Path, TraceTail] = {}
        self.pipelines: dict[str, PipelineState] = {}
        self.fleets: dict[str, FleetState] = {}
        self.faults = 0
        self.degrades = 0
        self.resumes = 0
        self.worker_busy: defaultdict[str, float] = defaultdict(float)
        self.t_min = math.inf
        self.t_max = -math.inf
        self.trace_events = 0

    def refresh(self, root: Path) -> None:
        for path, kind in scan_files(root):
            tail = self.tails.get(path)
            if tail is None:
                tail = self.tails[path] = TraceTail(path)
            records = tail.read_new()
            if kind == "journal":
                if records and records[0].get("event") == "header":
                    # Fresh journal, or one rewritten by a resume —
                    # either way the cell restarts from this header.
                    self.cells[path.name] = CellState(path.name)
                cell = self.cells.setdefault(path.name, CellState(path.name))
                for record in records:
                    cell.feed(record)
            elif kind == "fleet":
                fleet = self.fleets.setdefault(path.name, FleetState())
                for record in records:
                    fleet.feed(record)
            else:
                for record in records:
                    self._feed_trace(record, path.name)

    def _feed_trace(self, record: dict, name: str = "?") -> None:
        self.trace_events += 1
        event = record.get("event")
        if event == "inflight":
            pipeline = self.pipelines.setdefault(name, PipelineState())
            pipeline.feed(record)
        elif event == "fault":
            self.faults += 1
        elif event == "degrade":
            self.degrades += 1
        elif event == "resume":
            self.resumes += 1
        elif event == "span":
            dur = _float(record.get("dur_s")) or 0.0
            t0 = record.get("t0")
            if t0 is not None and not math.isnan(_float(t0)):
                self.t_min = min(self.t_min, _float(t0))
                self.t_max = max(self.t_max, _float(t0) + dur)
            if record.get("name") == "flow_eval":
                worker = (
                    f"pid {record.get('pid', '?')}/"
                    f"{record.get('tname', '?')}"
                )
                self.worker_busy[worker] += dur
        elif event == "job":
            exec_s = _float(record.get("exec_s")) or 0.0
            self.worker_busy[f"pid {record.get('worker', '?')}"] += exec_s
            t_start = record.get("t_start")
            if t_start is not None:
                self.t_min = min(self.t_min, _float(t_start))
                self.t_max = max(self.t_max, _float(t_start) + exec_s)


def _classify(name: str) -> str:
    if name.endswith(".journal.jsonl"):
        return "journal"
    if name.endswith(".fleet.jsonl"):
        return "fleet"
    return "trace"


def scan_files(root: Path) -> list[tuple[Path, str]]:
    """All (path, kind) pairs under ``root``; kind is
    journal|fleet|trace.  Scraped ``*.metrics.jsonl`` series that older
    releases wrote next to the logs are samples, not events: skipped."""
    if root.is_file():
        return [(root, _classify(root.name))]
    return [
        (path, _classify(path.name))
        for path in sorted(root.rglob("*.jsonl"))
        if not path.name.endswith(".metrics.jsonl")
    ]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render(state: SweepState, root: Path, tick: int) -> str:
    lines = [f"sweep monitor — {root}  (refresh #{tick})"]
    if state.cells:
        lines.append(
            f"  {'cell':<34}{'progress':<22}{'phase':<8}"
            f"{'HV':>10}{'retry':>6}{'degr':>6}{'fail':>6}"
        )
        for name in sorted(state.cells):
            cell = state.cells[name]
            hv = cell.hypervolume()
            lines.append(
                f"  {cell.label:<34}{cell.progress:<22}{cell.phase:<8}"
                f"{(f'{hv:.4f}' if hv is not None else '-'):>10}"
                f"{cell.retries:>6}{cell.degrades:>6}{cell.failed:>6}"
            )
    else:
        lines.append("  (no journals yet)")
    if state.pipelines:
        lines.append("  async pipelines:")
        for name in sorted(state.pipelines):
            pipe = state.pipelines[name]
            hv = (
                f"{pipe.fantasy_hv:.4f}"
                if pipe.fantasy_hv is not None
                and not math.isnan(pipe.fantasy_hv)
                else "-"
            )
            lines.append(
                f"    {name:<30} in-flight {pipe.n_pending}  "
                f"target {pipe.target}  committed {pipe.committed:>3}  "
                f"fantasy HV {hv:>8}  sim {pipe.sim_s:>9.1f}s  "
                f"q: {pipe.trajectory}"
            )
    for name in sorted(state.fleets):
        fleet = state.fleets[name]
        lines.append(
            f"  fleet {name}: {len(fleet.workers)} worker(s)  "
            f"expiries {fleet.expiries}  duplicates {fleet.duplicates}  "
            f"renews {fleet.renews}"
        )
        if (
            fleet.restarts
            or fleet.auth_rejects
            or fleet.reconnects
            or fleet.segments
        ):
            lines.append(
                f"    survivability: broker restarts {fleet.restarts}  "
                f"auth rejects {fleet.auth_rejects}  "
                f"reconnects {fleet.reconnects}  "
                f"journal segments {fleet.segments}"
            )
        for task in sorted(fleet.resumed):
            streamed = fleet.streamed_commits.get(task, 0)
            lines.append(
                f"    resumed {task:<32} salvaged "
                f"{fleet.resumed[task]:>3} streamed commit(s)"
                f"  (now {streamed})"
            )
        for queue in sorted(fleet.queues):
            q = fleet.queues[queue]
            lines.append(
                f"    queue {queue:<34} {q['done']:>4}/{q['submitted']:<4} "
                f"done  {q['leased']} leased"
            )
            spent = q["queued_s"] + q["eval_s"] + q["network_s"]
            if spent > 0:
                lines.append(
                    f"      time: queued {q['queued_s']:>8.2f}s | "
                    f"evaluating {q['eval_s']:>8.2f}s | "
                    f"fleet overhead {q['network_s']:>7.2f}s"
                )
        for worker in sorted(fleet.workers):
            w = fleet.workers[worker]
            lines.append(
                f"    agent {worker:<34} leases {w['leases']:>4}  "
                f"done {w['completed']:>4}  expired {w['expired']:>2}  "
                f"busy {w['busy_s']:>8.3f}s"
            )
    lines.append(
        f"  faults: {state.faults}  degrades: {state.degrades}  "
        f"resumes: {state.resumes}  trace events: {state.trace_events}"
    )
    if state.worker_busy:
        extent = (
            state.t_max - state.t_min
            if state.t_max > state.t_min
            else 0.0
        )
        lines.append("  workers:")
        for worker, busy in sorted(
            state.worker_busy.items(), key=lambda kv: -kv[1]
        ):
            util = (
                f"{100.0 * busy / extent:5.1f}%" if extent > 0 else "    -"
            )
            lines.append(f"    {worker:<24} busy {busy:>9.3f}s  {util}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "path", help="journal/trace directory (or a single file) to tail"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen control)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes (0 = until interrupted)",
    )
    args = parser.parse_args(argv)
    root = Path(args.path)
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 1

    state = SweepState()
    tick = 0
    try:
        while True:
            tick += 1
            state.refresh(root)
            text = render(state, root, tick)
            if args.once:
                print(text)
                return 0
            # Redraw in place: home the cursor, clear to end of screen.
            sys.stdout.write("\x1b[H\x1b[J" + text + "\n")
            sys.stdout.flush()
            if args.iterations and tick >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    sys.exit(main())
