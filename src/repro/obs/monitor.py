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
  duplicate-completion counters, the queue's live best-so-far front
  (``best`` WAL events), and per-queue wall-time attribution — how
  long cells spent queued vs evaluating vs in fleet overhead (lease
  round-trips, journal streaming, result shipping);
- fleet health (one block per ``*.metrics.jsonl`` series scraped by
  ``python -m repro.obs.scrape``): endpoint liveness, windowed
  submit/complete/heartbeat rates and the headline gauges, plus
  declarative **SLO rules** (``--slo`` / ``--slo-file``,
  :mod:`repro.obs.slo`) evaluated every refresh — breaches render in
  the pane, are written to ``--alert-file``, and flip the exit status
  to 1 so a CI wrapper can gate on fleet health.

The monitor imports **nothing from the hot path** at start-up: only
the standard library, its :mod:`repro.obs` siblings
(:mod:`~repro.obs.front`, :mod:`~repro.obs.slo`,
:mod:`~repro.obs.prom`) and the log module :mod:`repro.fleet.wal`, none
of which imports numpy.  The first cell hypervolume loads numpy and
:mod:`repro.core.pareto` through :class:`~repro.obs.front.FrontTracker`
— never scipy or the optimizer.  It tails raw JSONL through the shared
complete-line tail (torn trailing lines of a live file stay unread,
and a journal rewritten by a resume is detected by shrinkage and
re-read from the top), so it can run on any machine that sees the
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.fleet.wal import iter_records, tail_complete
from repro.obs.front import FrontTracker, _float
from repro.obs.prom import metric_value
from repro.obs.slo import evaluate_rules, parse_rules

__all__ = [
    "TraceTail",
    "FleetState",
    "MetricsState",
    "PipelineState",
    "SweepState",
    "scan_files",
    "render",
    "main",
]


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
    """Progress of one (benchmark, method, seed) cell's journal."""

    def __init__(self, name: str):
        self.name = name
        self.label = name
        self.budget: int | None = None  # sum(n_init) + n_iter
        self.phase = "-"
        self.retries = 0
        self.degrades = 0
        self.failed = 0
        self.front = FrontTracker()

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
            self.front.feed_record(record)
            self.phase = record.get("phase", self.phase)
            self.retries += max(0, int(record.get("attempts", 1)) - 1)
            if record.get("degraded"):
                self.degrades += 1
            if record.get("failed"):
                self.failed += 1

    @property
    def commits(self) -> int:
        return self.front.commits

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
        """The front's hypervolume; ``None`` before the first point."""
        return self.front.summary()["hv"] if self.front.points else None


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
        #: Latest ``best`` WAL event per queue (live best-so-far front).
        self.best: dict[str, dict] = {}
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
        elif event == "best":
            self.best[queue] = {
                "hv": _float(record.get("hv")),
                "n": int(record.get("n", 0) or 0),
                "commits": int(record.get("commits", 0) or 0),
                "t": t,
            }
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


class MetricsState:
    """Scraped ``/metrics`` time series, folded per endpoint URL.

    Fed from the ``*.metrics.jsonl`` files ``python -m repro.obs.
    scrape`` appends: one ``(t, samples)`` series per URL, bounded to
    the most recent :data:`KEEP` samples (rates only need the trailing
    window).  Gap records (``ok: false`` — endpoint down or mid-
    restart) are counted and flip the liveness flag but never enter
    the numeric series, so a rate never averages across a hole.
    """

    #: Samples retained per endpoint — plenty for any rate window.
    KEEP = 720
    #: Default trailing window for the pane's per-minute rates.
    WINDOW_S = 120.0

    def __init__(self) -> None:
        self.series: dict[str, list[tuple[float, dict]]] = {}
        self.gaps: dict[str, int] = {}
        self.alive: dict[str, bool] = {}

    def feed(self, record: dict) -> None:
        if not isinstance(record, dict):
            return
        url = str(record.get("url", "?"))
        if not record.get("ok"):
            self.gaps[url] = self.gaps.get(url, 0) + 1
            self.alive[url] = False
            return
        metrics = record.get("metrics")
        t = _float(record.get("t"))
        if not isinstance(metrics, dict) or math.isnan(t):
            return
        self.alive[url] = True
        points = self.series.setdefault(url, [])
        points.append((t, metrics))
        del points[: -self.KEEP]

    def latest(self, url: str, metric: str) -> float | None:
        points = self.series.get(url)
        if not points:
            return None
        return metric_value(points[-1][1], metric)

    def rate(
        self, url: str, metric: str, window_s: float | None = None
    ) -> float | None:
        """Per-minute increase of a counter over the trailing window.

        A counter reset (broker restart without its WAL) clamps to 0
        rather than going negative — same convention as the SLO
        evaluator's ``rate()``.
        """
        window_s = self.WINDOW_S if window_s is None else window_s
        points = self.series.get(url)
        if not points or len(points) < 2:
            return None
        t1, last = points[-1]
        v1 = metric_value(last, metric)
        first = None
        for t0, samples in reversed(points[:-1]):
            v0 = metric_value(samples, metric)
            if v0 is not None:
                first = (t0, v0)
            if t1 - t0 >= window_s:
                break
        if v1 is None or first is None or t1 <= first[0]:
            return None
        return max(0.0, v1 - first[1]) / (t1 - first[0]) * 60.0


class SweepState:
    """Everything the monitor knows, folded from all tailed files."""

    def __init__(self) -> None:
        self.cells: dict[str, CellState] = {}
        self.tails: dict[Path, TraceTail] = {}
        self.pipelines: dict[str, PipelineState] = {}
        self.fleets: dict[str, FleetState] = {}
        self.metrics = MetricsState()
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
            elif kind == "metrics":
                for record in records:
                    self.metrics.feed(record)
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
    if name.endswith(".metrics.jsonl"):
        return "metrics"
    return "trace"


def scan_files(root: Path) -> list[tuple[Path, str]]:
    """All (path, kind) pairs under ``root``; kind is
    journal|fleet|metrics|trace."""
    if root.is_file():
        return [(root, _classify(root.name))]
    return [
        (path, _classify(path.name))
        for path in sorted(root.rglob("*.jsonl"))
    ]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _metric_text(value: float | None, fmt: str = "{:.0f}") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return fmt.format(value)


def render(
    state: SweepState,
    root: Path,
    tick: int,
    breaches: list[dict] | None = None,
) -> str:
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
            best = fleet.best.get(queue)
            if best is not None:
                hv = best["hv"]
                hv_text = (
                    f"{hv:.4f}" if not math.isnan(hv) else "-"
                )
                lines.append(
                    f"      best front: {best['n']} point(s)  "
                    f"HV {hv_text}  from {best['commits']} "
                    f"streamed commit(s)"
                )
        for worker in sorted(fleet.workers):
            w = fleet.workers[worker]
            lines.append(
                f"    agent {worker:<34} leases {w['leases']:>4}  "
                f"done {w['completed']:>4}  expired {w['expired']:>2}  "
                f"busy {w['busy_s']:>8.3f}s"
            )
    metrics = state.metrics
    sources = sorted(set(metrics.series) | set(metrics.alive))
    if sources:
        lines.append("  fleet health (scraped /metrics):")
        for url in sources:
            up = metrics.alive.get(url, False)
            status = "up  " if up else "DOWN"
            gaps = metrics.gaps.get(url, 0)
            uptime = metrics.latest(url, "fleet_uptime_seconds")
            depth = metrics.latest(url, "fleet_queue_depth")
            inflight = metrics.latest(url, "fleet_inflight")
            lines.append(
                f"    {status} {url}"
                + (f"  ({gaps} gap(s))" if gaps else "")
            )
            lines.append(
                f"      uptime {_metric_text(uptime, '{:.0f}s'):>7}  "
                f"depth {_metric_text(depth):>4}  "
                f"in-flight {_metric_text(inflight):>4}  "
                f"submit {_metric_text(metrics.rate(url, 'fleet_submits_total'), '{:.1f}/min'):>9}  "
                f"done {_metric_text(metrics.rate(url, 'fleet_completions_total'), '{:.1f}/min'):>9}  "
                f"beat {_metric_text(metrics.rate(url, 'fleet_heartbeats_total'), '{:.1f}/min'):>9}"
            )
            expiries = metrics.latest(url, "fleet_lease_expiries_total")
            rejects = metrics.latest(url, "fleet_auth_rejects_total")
            hv = metrics.latest(url, "fleet_best_hypervolume")
            if any(v not in (None, 0.0) for v in (expiries, rejects, hv)):
                lines.append(
                    f"      expiries {_metric_text(expiries):>4}  "
                    f"auth rejects {_metric_text(rejects):>4}  "
                    f"best HV {_metric_text(hv, '{:.4f}'):>8}"
                )
    if breaches is not None:
        if breaches:
            lines.append(f"  SLO: {len(breaches)} BREACH(ES)")
            for breach in breaches:
                lines.append(
                    f"    BREACH [{breach.get('source', '?')}] "
                    f"{breach.get('rule', '?')}  observed "
                    f"{breach.get('observed')}"
                )
        else:
            lines.append("  SLO: ok")
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
    parser.add_argument(
        "--slo", action="append", default=[], metavar="RULE",
        help="SLO rule over the scraped metrics series, e.g. "
             "'rate(fleet_lease_expiries_total) <= 2/min over 120s' "
             "(repeatable; see repro.obs.slo)",
    )
    parser.add_argument(
        "--slo-file", default="",
        help="file of SLO rules, one per line (# comments allowed)",
    )
    parser.add_argument(
        "--alert-file", default="",
        help="write breach records (JSON) here whenever a rule fires",
    )
    args = parser.parse_args(argv)
    root = Path(args.path)
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 1
    rule_texts = list(args.slo)
    if args.slo_file:
        rule_texts.extend(
            Path(args.slo_file).read_text(encoding="utf-8").splitlines()
        )
    try:
        rules = parse_rules("\n".join(rule_texts))
    except ValueError as exc:
        print(f"bad SLO rule: {exc}", file=sys.stderr)
        return 2

    state = SweepState()
    tick = 0
    breached = False

    def _evaluate() -> list[dict] | None:
        nonlocal breached
        if not rules:
            return None
        breaches = evaluate_rules(rules, state.metrics.series)
        if breaches:
            breached = True
            if args.alert_file:
                Path(args.alert_file).write_text(
                    json.dumps(
                        {"breaches": breaches, "tick": tick},
                        indent=2, sort_keys=True,
                    ) + "\n",
                    encoding="utf-8",
                )
        return breaches

    try:
        while True:
            tick += 1
            state.refresh(root)
            text = render(state, root, tick, breaches=_evaluate())
            if args.once:
                print(text)
                return 1 if breached else 0
            # Redraw in place: home the cursor, clear to end of screen.
            sys.stdout.write("\x1b[H\x1b[J" + text + "\n")
            sys.stdout.flush()
            if args.iterations and tick >= args.iterations:
                return 1 if breached else 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
