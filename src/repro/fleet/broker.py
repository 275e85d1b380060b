"""Work-queue broker for the tuning fleet.

::

    python -m repro.fleet.broker [--host 127.0.0.1] [--port 8947]
        [--lease-ttl 30] [--state-dir DIR | --log-dir DIR]
        [--compact-bytes N] [--auth-key-file PATH] [--port-file PATH]

The broker holds **named job queues** of opaque pickled payloads (it
never unpickles them, and it runs on the standard library alone, like
the monitor).
Workers register with capabilities, then repeatedly *lease* a task: a
lease grants exclusive execution rights for ``lease_ttl_s`` seconds,
renewable by heartbeat.  A worker that vanishes — SIGKILL,
OOM, power loss — simply stops heartbeating; the lease expires and the
task is re-queued for the next worker.  Because every task in this
system re-executes bitwise-identically (deterministic flows, seeded
methods, journaled cells), a lost worker costs one lease timeout, not
a run.

**Lease state machine** (per task)::

    queued --lease--> leased --complete--> done
      ^                  |
      +---- expire <-----+   (deadline passes without heartbeat)

**Failure semantics.**  Completion is *first-writer-wins*: the first
outcome recorded for a task is kept, any later completion (a stale
leaseholder racing its re-issued replacement) is acknowledged and
dropped as a ``duplicate`` — never double-committed downstream, and
harmless anyway since re-execution produces identical bytes.  A
completion from an expired lease is accepted when the task has not
finished elsewhere: the work is done and the bytes are right.

**Fair share.**  When several queues (one per tuning session) hold
work, a lease request is served from the queue with the fewest leases
currently in flight, ties broken round-robin by least-recently-served
— so ``N`` concurrent sessions on ``W`` workers each hold ``~W/N``
leases regardless of submission order or queue depth.

**Crash safety.**  ``broker.fleet.jsonl`` is a write-ahead journal,
not just a dashboard feed: every transition (including submitted
payloads and completed results, base64-framed) is fsync'd by
:class:`repro.fleet.wal.WalWriter` before the HTTP response leaves.  A
broker started with ``--state-dir`` replays the journal on boot —
queues, leases (TTL clocks resumed against wall time), results and
streamed journal segments all come back — then appends a ``restart``
record and keeps serving the *same* task ids, so clients polling
``/result`` and workers holding leases reconnect transparently.
Submissions carry client-generated task ids, making a retried
``/submit`` (response lost in the crash) idempotent.  Each transition
(enqueue, lease, renew, expire, complete) is one private method that
the live request path and WAL replay both call — replay only decodes
records and skips malformed ones — so a rehydrated broker holds
exactly the state the live one had.  The monitor tails the same file;
extra WAL-only fields are ignored by its parser.
Rehydration is *only* performed with ``--state-dir`` — a plain
``--log-dir`` journal is written, never read back, so a leftover log
from an earlier run (or an older record format) can neither crash
startup nor resurrect stale state.  With ``--state-dir`` the journal
is also compacted once it outgrows ``--compact-bytes``: the whole
state is rewritten atomically as one snapshot record and the log
truncated, bounding restart cost and disk for long-lived brokers.

**Mid-cell resume.**  Workers attach their cell-local run-journal
bytes to heartbeats; the broker buffers the newest segment stream per
task (WAL-logged, so it survives restarts) and serves it back via
``/journal`` when the task is re-issued — the replacement worker
replays the streamed prefix instead of re-running from step 0.

**Authenticated wire.**  Started with a shared key (``--auth-key-file``
or the ``REPRO_FLEET_AUTH_KEY`` / ``..._FILE`` env vars), every request
except ``/health``/``/healthz``/``/metrics`` must carry a
valid ``X-Repro-Auth`` header — a timestamped, nonce-bearing HMAC
(:func:`repro.fleet.wire.sign_request`).  Stale timestamps (outside
the freshness window) and reused nonces are rejected like bad MACs, so
a captured request cannot be replayed verbatim; failures get ``401``
and an ``auth_reject`` WAL record.  Without a key the wire is open
(trusted network), which is also how the pre-auth tests run.  The
unauthenticated routes expose *only* derived telemetry (no payload
bytes, no task payload access) so probes and scrapers work without
holding the fleet key.

**Observability** (DESIGN.md Sec. 15).  ``/metrics`` serves Prometheus
text — latency histograms per endpoint (whose counts are also the
request counters), queue depth / in-flight / oldest-queued-age gauges,
lease-to-complete and WAL-fsync histograms — all thread-safe
:class:`repro.obs.prom.Histogram` instances; the wall-clock benchmark
reads its counters and latency sums.  An optional
``--trace-file`` records request spans (``broker.submit`` /
``broker.lease`` / ``broker.complete``) into the schema-v7 span trace;
each span carries the submitting session's propagated trace context
(``X-Repro-Trace``), so ``python -m repro.obs.spans`` merges broker,
worker and scheduler files into one cross-process timeline.  All of it
is read-side telemetry: queue decisions, payload bytes and WAL
contents are untouched, so a traced fleet run stays bitwise identical
to an untraced one.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import signal
import sys
import threading
import time
import uuid
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.fleet.wal import WalWriter, iter_records, scan_wal
from repro.fleet.wire import (
    AUTH_FRESHNESS_S,
    AUTH_HEADER,
    TRACE_HEADER,
    WIRE_HEADER,
    NonceCache,
    load_auth_key,
    verify_request_auth,
    wire_fingerprint,
)
from repro.obs.prom import (
    FSYNC_BUCKETS_S,
    LATENCY_BUCKETS_S,
    LEASE_BUCKETS_S,
    Histogram,
    counter,
    gauge,
    histogram_family,
    render_metrics,
)

__all__ = [
    "FleetBroker",
    "BrokerServer",
    "Task",
    "WorkerInfo",
    "main",
]

#: Default lease TTL: generous against multi-second flow evaluations,
#: short enough that a dead worker's cell is re-issued promptly.
DEFAULT_LEASE_TTL_S = 30.0

QUEUED = "queued"
LEASED = "leased"
DONE = "done"

#: Compact the WAL (snapshot + rotate) once it outgrows this many
#: bytes, for brokers running with ``--state-dir``.  Plain ``--log-dir``
#: keeps the full append-only event history for the monitor.
DEFAULT_COMPACT_BYTES = 8 * 1024 * 1024


#: The durable counters, in snapshot-record order: persisted by
#: compaction snapshots and rebuilt by WAL replay.
DURABLE_COUNTERS = (
    "duplicates", "expiries", "restarts", "auth_rejects", "reconnects",
    "resume_grants", "submits", "leases", "completions", "heartbeats",
)


@dataclass
class Task:
    """One unit of queued work (payload opaque to the broker).

    ``trace`` is the submitter's propagated ``X-Repro-Trace`` context
    (telemetry only — never part of dispatch decisions);
    ``submitted_wall``/``leased_wall`` stamp the queue-age gauge and
    the lease-to-complete latency histogram.
    """

    task_id: str
    queue: str
    payload: bytes
    seq: int
    state: str = QUEUED
    attempts: int = 0
    expiries: int = 0
    lease_id: str | None = None
    worker: str | None = None
    deadline: float | None = None  # monotonic
    result: bytes | None = None
    completed_by: str | None = None
    exec_s: float = 0.0
    trace: str | None = None
    submitted_wall: float | None = None
    leased_wall: float | None = None


@dataclass
class WorkerInfo:
    """One registered worker and its advertised capabilities."""

    worker_id: str
    capabilities: dict = field(default_factory=dict)
    leases_taken: int = 0
    completed: int = 0
    expired: int = 0
    busy_s: float = 0.0


@dataclass
class _Stream:
    """The buffered journal prefix of one task (newest lease wins)."""

    lease_id: str
    data: bytes = b""
    commits: int = 0


class FleetBroker:
    """The queue/lease state machine (transport-free, fully locked).

    ``clock`` is injectable (monotonic seconds) so tests drive lease
    expiry deterministically without sleeping; ``wallclock`` is the
    wall-time source persisted in WAL records, injectable so restart
    tests can replay lease deadlines against a fake epoch.
    """

    def __init__(
        self,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        log_path: str | Path | None = None,
        clock=time.monotonic,
        state_dir: str | Path | None = None,
        auth_key: bytes | None = None,
        wallclock=time.time,
        compact_bytes: int | None = None,
        auth_freshness_s: float = AUTH_FRESHNESS_S,
        trace_path: str | Path | None = None,
    ):
        self.lease_ttl_s = float(lease_ttl_s)
        self.auth_key = auth_key
        self.auth_freshness_s = float(auth_freshness_s)
        self._nonces = NonceCache()
        self._clock = clock
        self._wallclock = wallclock
        self._lock = threading.Lock()
        self._queues: dict[str, deque[str]] = {}
        self._tasks: dict[str, Task] = {}
        self._leases: dict[str, str] = {}  # lease_id -> task_id
        self._workers: dict[str, WorkerInfo] = {}
        self._active: dict[str, int] = {}  # queue -> leases in flight
        self._served: dict[str, int] = {}  # queue -> last-served tick
        self._streams: dict[str, _Stream] = {}  # task_id -> journal prefix
        self._seq = 0
        self._tick = 0
        for name in DURABLE_COUNTERS:
            setattr(self, name, 0)
        self.wal_records = 0  # this process only
        self._started = self._clock()
        # Telemetry: per-endpoint request latency and the
        # lease-to-complete and WAL-fsync histograms.  Read-side only —
        # dispatch and WAL contents never depend on them.
        self.request_latency: dict[str, Histogram] = {}
        self.lease_to_complete = Histogram(LEASE_BUCKETS_S)
        self.wal_fsync = Histogram(FSYNC_BUCKETS_S)
        self._spans = None
        self._trace_writer = None
        if trace_path is not None:
            from repro.obs.spans import SpanRecorder
            from repro.obs.trace import JsonlTraceWriter

            self._trace_writer = JsonlTraceWriter(trace_path)
            self._spans = SpanRecorder(self._trace_writer)
        self._wal: WalWriter | None = None
        # Rehydration is opt-in via state_dir: a plain --log-dir journal
        # is written, never read back (PR-8 semantics), so a leftover
        # old-format log can neither crash startup nor resurrect stale
        # queues into a run that expected a fresh broker.
        rehydrate = state_dir is not None
        if compact_bytes is None:
            compact_bytes = DEFAULT_COMPACT_BYTES if rehydrate else 0
        self._compact_bytes = int(compact_bytes)
        self._compact_floor = 0
        wal_path = self._resolve_wal_path(state_dir, log_path)
        if wal_path is not None:
            start_seq = 0
            if rehydrate and wal_path.exists():
                last_seq = -1
                valid = 0
                for record, valid in scan_wal(wal_path):
                    self._apply(record)
                    try:
                        last_seq = int(record.get("seq", last_seq))
                    except (TypeError, ValueError):
                        pass
                if valid < wal_path.stat().st_size:
                    os.truncate(wal_path, valid)  # drop the torn tail
                start_seq = last_seq + 1
            self._wal = WalWriter(
                wal_path,
                start_seq=start_seq,
                observe_fsync=self.wal_fsync.observe,
            )
            if start_seq:
                with self._lock:
                    self.restarts += 1
                    self._log("restart")

    @staticmethod
    def _resolve_wal_path(
        state_dir: str | Path | None, log_path: str | Path | None
    ) -> Path | None:
        if state_dir is not None:
            return Path(state_dir) / "broker.fleet.jsonl"
        if log_path is not None:
            return Path(log_path)
        return None

    # ------------------------------------------------------------------
    # write-ahead journal
    # ------------------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        """Append one fsync'd WAL record (lock held by callers).

        When the log outgrows the compaction threshold it is atomically
        rewritten as one snapshot record (sequence numbering continues),
        bounding restart cost and disk for long-lived brokers.  The
        doubling floor keeps a state too big to shrink below the
        threshold from re-compacting on every append.
        """
        if self._wal is None:
            return
        self._wal.append({"event": event, "t": self._wallclock(), **fields})
        self.wal_records += 1
        if (
            self._compact_bytes
            and self._wal.bytes >= self._compact_bytes
            and self._wal.bytes >= 2 * self._compact_floor
        ):
            self._wal.rotate([self._snapshot_record()])
            self._compact_floor = self._wal.bytes

    def _apply(self, record: dict) -> None:
        """Replay one WAL record into in-memory state (rehydration only).

        Decodes the record and calls the same transition method the
        live request path called before logging it, without re-logging.
        Lease deadlines are recovered by translating the persisted
        wall-clock expiry back onto the monotonic clock, so a lease
        survives a broker outage shorter than its remaining TTL and
        expires at the next sweep after a longer one.

        Defensive by design: records from an older wire revision (or
        hand-damaged logs) may lack fields or reference unknown tasks —
        every branch degrades to skipping the record rather than
        crashing the restart.
        """
        event = record.get("event")
        task = self._tasks.get(record.get("task", ""))
        if event == "queue":
            queue = record.get("queue")
            if queue:
                self._ensure_queue(queue)
        elif event == "submit":
            queue, task_id = record.get("queue"), record.get("task")
            if queue and task_id:
                self._enqueue(
                    task_id, queue,
                    base64.b64decode(record.get("payload_b64", "")),
                    record.get("trace"), record.get("t"),
                )
        elif event == "register":
            worker_id = record.get("worker")
            if worker_id:
                self._workers[worker_id] = WorkerInfo(
                    worker_id=worker_id,
                    capabilities=dict(record.get("capabilities") or {}),
                )
        elif event == "lease":
            lease_id = record.get("lease")
            if task is not None and lease_id:
                self._grant(
                    task, lease_id, record.get("worker"),
                    int(record.get("attempt", task.attempts + 1)),
                    self._replayed_deadline(record),
                    record.get("t", task.leased_wall),
                )
        elif event == "renew":
            if task is not None and task.state == LEASED:
                self._renew(task, self._replayed_deadline(record))
        elif event == "expire":
            if task is not None and task.state == LEASED:
                self._expire(task)
        elif event == "complete":
            if task is not None:
                self._complete(
                    task, base64.b64decode(record.get("result_b64", "")),
                    record.get("worker", ""),
                    float(record.get("exec_s", 0.0)),
                )
        elif event == "segment":
            task_id, lease_id = record.get("task"), record.get("lease")
            if not task_id or not lease_id:
                return
            data = base64.b64decode(record.get("data_b64", ""))
            offset = record.get("offset")
            self._apply_segment(
                task_id, lease_id, data,
                bool(record.get("reset")),
                None if offset is None else int(offset),
            )
        elif event == "snapshot":
            self._apply_snapshot(record)
        elif event == "resume_grant":
            self.resume_grants += 1
        elif event == "restart":
            self.restarts += 1
        elif event == "auth_reject":
            self.auth_rejects += 1
        elif event == "reconnect":
            self.reconnects += 1
        # "shutdown" and unknown events need no state.

    def _replayed_deadline(self, record: dict) -> float:
        """Monotonic deadline recovered from a persisted wall expiry."""
        expires_wall = record.get("expires_wall")
        if expires_wall is None:
            return self._clock() + self.lease_ttl_s
        return self._clock() + (float(expires_wall) - self._wallclock())

    # ------------------------------------------------------------------
    # snapshot compaction
    # ------------------------------------------------------------------

    def _snapshot_record(self) -> dict:
        """The full broker state as one replayable WAL record."""
        now, wall = self._clock(), self._wallclock()
        tasks = {}
        for tid, t in self._tasks.items():
            entry: dict = {
                "queue": t.queue, "seq": t.seq, "state": t.state,
                "attempts": t.attempts, "expiries": t.expiries,
                "lease": t.lease_id, "worker": t.worker,
                "payload_b64": base64.b64encode(t.payload).decode(),
                "exec_s": t.exec_s,
                "trace": t.trace,
                "submitted_wall": t.submitted_wall,
                "leased_wall": t.leased_wall,
            }
            if t.deadline is not None:
                entry["expires_wall"] = wall + (t.deadline - now)
            if t.result is not None:
                entry["result_b64"] = base64.b64encode(t.result).decode()
                entry["completed_by"] = t.completed_by
            tasks[tid] = entry
        return {
            "event": "snapshot",
            "t": wall,
            "queues": {q: list(p) for q, p in self._queues.items()},
            "served": dict(self._served),
            "tick": self._tick,
            "next_task_seq": self._seq,
            "tasks": tasks,
            "workers": {
                w.worker_id: {
                    "capabilities": w.capabilities,
                    "leases_taken": w.leases_taken,
                    "completed": w.completed,
                    "expired": w.expired,
                    "busy_s": w.busy_s,
                }
                for w in self._workers.values()
            },
            "streams": {
                tid: {
                    "lease": s.lease_id, "commits": s.commits,
                    "data_b64": base64.b64encode(s.data).decode(),
                }
                for tid, s in self._streams.items()
            },
            "counters": self._counters(),
        }

    def _apply_snapshot(self, record: dict) -> None:
        """Replace in-memory state with a compacted snapshot record."""
        self._queues = {
            q: deque(tids)
            for q, tids in (record.get("queues") or {}).items()
        }
        self._served = {
            q: int(v) for q, v in (record.get("served") or {}).items()
        }
        for q in self._queues:
            self._served.setdefault(q, -1)
        self._active = {q: 0 for q in self._queues}
        self._tick = int(record.get("tick", 0))
        self._seq = int(record.get("next_task_seq", 0))
        self._tasks = {}
        self._leases = {}
        self._streams = {}
        self._workers = {}
        for wid, info in (record.get("workers") or {}).items():
            worker = WorkerInfo(
                worker_id=wid,
                capabilities=dict(info.get("capabilities") or {}),
            )
            worker.leases_taken = int(info.get("leases_taken", 0))
            worker.completed = int(info.get("completed", 0))
            worker.expired = int(info.get("expired", 0))
            worker.busy_s = float(info.get("busy_s", 0.0))
            self._workers[wid] = worker
        for tid, entry in (record.get("tasks") or {}).items():
            task = Task(
                task_id=tid,
                queue=entry.get("queue", "?"),
                payload=base64.b64decode(entry.get("payload_b64", "")),
                seq=int(entry.get("seq", 0)),
                state=entry.get("state", QUEUED),
                attempts=int(entry.get("attempts", 0)),
                expiries=int(entry.get("expiries", 0)),
                lease_id=entry.get("lease"),
                worker=entry.get("worker"),
                exec_s=float(entry.get("exec_s", 0.0)),
                trace=entry.get("trace") or None,
                submitted_wall=entry.get("submitted_wall"),
                leased_wall=entry.get("leased_wall"),
            )
            if "result_b64" in entry:
                task.result = base64.b64decode(entry["result_b64"])
                task.completed_by = entry.get("completed_by", "")
            self._ensure_queue(task.queue)
            self._tasks[tid] = task
            if task.state == LEASED and task.lease_id:
                task.deadline = self._replayed_deadline(entry)
                self._leases[task.lease_id] = tid
                self._active[task.queue] += 1
        for tid, s in (record.get("streams") or {}).items():
            self._streams[tid] = _Stream(
                lease_id=s.get("lease", ""),
                data=base64.b64decode(s.get("data_b64", "")),
                commits=int(s.get("commits", 0)),
            )
        for name, value in (record.get("counters") or {}).items():
            if name in DURABLE_COUNTERS:
                setattr(self, name, int(value))

    def _counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in DURABLE_COUNTERS}

    def _ensure_queue(self, queue: str) -> None:
        if queue not in self._queues:
            self._queues[queue] = deque()
            self._active[queue] = 0
            self._served[queue] = -1

    def _apply_segment(
        self,
        task_id: str,
        lease_id: str,
        data: bytes,
        reset: bool,
        offset: int | None = None,
    ) -> _Stream:
        """Fold one journal segment into the task's stream buffer.

        A segment from a *different* lease (re-issued task) or with the
        reset flag (worker's journal was rewritten by ``continue_from``)
        replaces the buffer; otherwise it appends.  ``offset`` — the
        segment's start in stream coordinates — deduplicates
        re-delivered bytes: a retried heartbeat whose first delivery
        landed (response lost) only appends what the buffer is missing.
        """
        stream = self._streams.get(task_id)
        if stream is None or reset or stream.lease_id != lease_id:
            stream = _Stream(lease_id=lease_id)
            self._streams[task_id] = stream
        have = len(stream.data)
        if offset is None:
            offset = have
        if offset > have:
            return stream  # gap: unacked bytes were never sent — drop
        new = data[have - offset:]
        if new:
            stream.data += new
            # Segments are whole journal lines (the worker ships only
            # newline-terminated lines), so each line parses on its
            # own; only a top-level ``"event": "commit"`` counts — an
            # error string that merely quotes a commit record does not.
            stream.commits += sum(
                record.get("event") == "commit"
                for record in iter_records(new)
            )
        return stream

    # ------------------------------------------------------------------
    # transitions (lock held): the live entry points call these, then
    # log; WAL replay calls them with the decoded record's values
    # ------------------------------------------------------------------

    def _enqueue(
        self, task_id: str, queue: str, payload: bytes,
        trace: str | None, submitted_wall: float | None,
    ) -> None:
        """``submit``: a new task joins the back of its queue."""
        self._ensure_queue(queue)
        self._tasks[task_id] = Task(
            task_id=task_id, queue=queue, payload=payload, seq=self._seq,
            trace=trace or None, submitted_wall=submitted_wall,
        )
        self._seq += 1
        self.submits += 1
        self._queues[queue].append(task_id)

    def _grant(
        self, task: Task, lease_id: str, worker_id: str | None,
        attempt: int, deadline: float, leased_wall: float | None,
    ) -> None:
        """``lease``: the task leaves its queue, held until ``deadline``."""
        try:
            self._queues[task.queue].remove(task.task_id)
        except ValueError:
            pass
        task.state = LEASED
        task.lease_id = lease_id
        task.worker = worker_id
        task.attempts = attempt
        task.deadline = deadline
        task.leased_wall = leased_wall
        self.leases += 1
        self._leases[lease_id] = task.task_id
        self._active[task.queue] += 1
        self._served[task.queue] = self._tick
        self._tick += 1
        if worker_id in self._workers:
            self._workers[worker_id].leases_taken += 1

    def _renew(self, task: Task, deadline: float) -> None:
        """``renew``: a heartbeat pushes the lease deadline out."""
        task.deadline = deadline
        self.heartbeats += 1

    def _expire(self, task: Task) -> None:
        """``expire``: the lease is dropped and the task re-queued at
        the *front* of its queue, so a re-issued cell does not wait
        behind the whole backlog it already waited through once.  The
        task's stream buffer is kept: it is exactly the journal prefix
        the replacement worker resumes from."""
        self._leases.pop(task.lease_id, None)
        self._active[task.queue] -= 1
        self.expiries += 1
        task.expiries += 1
        if task.worker in self._workers:
            self._workers[task.worker].expired += 1
        task.state = QUEUED
        task.lease_id = None
        task.worker = None
        task.deadline = None
        self._queues[task.queue].appendleft(task.task_id)

    def _complete(
        self, task: Task, result: bytes, worker: str, exec_s: float
    ) -> str:
        """``complete``: first writer wins — ``"accepted"`` records the
        outcome, a finished task counts a ``"duplicate"``."""
        if task.state == DONE:
            self.duplicates += 1
            return "duplicate"
        if task.state == LEASED and task.lease_id is not None:
            self._leases.pop(task.lease_id, None)
            self._active[task.queue] -= 1
        elif task.state == QUEUED:
            # Stale leaseholder finished after expiry but before the
            # re-issue was granted: accept the bytes, drop the queue
            # entry so the task is never re-leased.
            try:
                self._queues[task.queue].remove(task.task_id)
            except ValueError:
                pass
        task.state = DONE
        task.result = result
        task.completed_by = worker
        task.exec_s = float(exec_s)
        task.lease_id = None
        task.deadline = None
        self.completions += 1
        if worker in self._workers:
            self._workers[worker].completed += 1
            self._workers[worker].busy_s += task.exec_s
        self._streams.pop(task.task_id, None)
        return "accepted"

    def _expire_leases(self, now: float) -> None:
        """Expire (and log) every lease whose deadline passed."""
        for lease_id in [
            lid
            for lid, tid in self._leases.items()
            if self._tasks[tid].deadline is not None
            and self._tasks[tid].deadline < now
        ]:
            task = self._tasks[self._leases[lease_id]]
            worker = task.worker
            self._expire(task)
            self._log(
                "expire", queue=task.queue, task=task.task_id,
                worker=worker, attempts=task.attempts,
            )

    # ------------------------------------------------------------------
    # public API (each entry point sweeps expired leases first)
    # ------------------------------------------------------------------

    def register(self, worker_id: str, capabilities: dict | None = None) -> dict:
        with self._lock:
            self._workers[worker_id] = WorkerInfo(
                worker_id=worker_id, capabilities=dict(capabilities or {})
            )
            self._log(
                "register", worker=worker_id,
                capabilities=dict(capabilities or {}),
            )
            return {"lease_ttl_s": self.lease_ttl_s}

    def create_queue(self, queue: str) -> None:
        with self._lock:
            if queue not in self._queues:
                self._ensure_queue(queue)
                self._log("queue", queue=queue)

    def _request_span(self, name: str, trace_text: str | None, **args):
        """A request-span context under the task's propagated trace.

        No-op without ``--trace-file``.  The span parents into the
        submitter's span (``remote_parent``) so the exporter chains
        ``submit → lease → execute → complete`` across processes.
        """
        if self._spans is None:
            return nullcontext()
        from repro.obs.spans import parse_trace_context

        trace_id, remote_parent = parse_trace_context(trace_text)
        return self._spans.span(
            name, cat="broker",
            trace=trace_id, remote_parent=remote_parent, **args,
        )

    def submit(
        self,
        queue: str,
        payload: bytes,
        task_id: str | None = None,
        trace: str | None = None,
    ) -> str:
        """Enqueue one payload; idempotent on a client-supplied id.

        A retried ``/submit`` whose first response was lost (broker
        crash, dropped connection) re-sends the same ``task_id``; the
        broker returns the existing task without re-queueing it.
        ``trace`` is the submitter's ``X-Repro-Trace`` context, stored
        on the task and echoed to the leasing worker.
        """
        with self._lock:
            if task_id is not None and task_id in self._tasks:
                return task_id
            if task_id is None:
                task_id = uuid.uuid4().hex
            if queue not in self._queues:
                self._ensure_queue(queue)
                self._log("queue", queue=queue)
            self._enqueue(task_id, queue, payload, trace, self._wallclock())
            self._log(
                "submit", queue=queue, task=task_id,
                payload_b64=base64.b64encode(payload).decode(),
                **({"trace": trace} if trace else {}),
            )
        with self._request_span(
            "broker.submit", trace, task=task_id, queue=queue
        ):
            pass
        return task_id

    def _pick_queue(self, allowed: set[str] | None) -> str | None:
        """Fair-share queue choice (lock held): fewest in-flight leases
        first, least-recently-served breaking ties."""
        candidates = [
            q
            for q, pending in self._queues.items()
            if pending and (allowed is None or q in allowed)
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda q: (self._active[q], self._served[q])
        )

    def lease(
        self, worker_id: str, queues: list[str] | None = None
    ) -> dict | None:
        """Grant one task to ``worker_id``, or ``None`` when idle.

        ``queues`` restricts the grant to the worker's capability set.
        Returns ``{task_id, lease_id, queue, ttl_s, payload, attempt,
        trace}``.
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            queue = self._pick_queue(set(queues) if queues else None)
            if queue is None:
                return None
            task = self._tasks[self._queues[queue][0]]
            lease_id = uuid.uuid4().hex
            self._grant(
                task, lease_id, worker_id, task.attempts + 1,
                now + self.lease_ttl_s, self._wallclock(),
            )
            self._log(
                "lease", queue=queue, task=task.task_id, worker=worker_id,
                attempt=task.attempts, lease=lease_id,
                expires_wall=self._wallclock() + self.lease_ttl_s,
            )
            grant = {
                "task_id": task.task_id,
                "lease_id": lease_id,
                "queue": queue,
                "ttl_s": self.lease_ttl_s,
                "attempt": task.attempts,
                "payload": task.payload,
                "trace": task.trace,
            }
        with self._request_span(
            "broker.lease", grant["trace"],
            task=grant["task_id"], queue=queue, worker=worker_id,
            attempt=grant["attempt"],
        ):
            pass
        return grant

    def heartbeat(
        self,
        lease_id: str,
        segment: bytes | None = None,
        reset: bool = False,
        offset: int | None = None,
    ) -> bool:
        """Renew one lease; ``False`` means it already expired (stop
        working — the task has been or will be re-issued).

        ``segment`` carries new cell-journal bytes from the worker;
        they are buffered (and WAL-logged) against the task so a
        re-issued lease can resume mid-cell.  A segment on a dead lease
        is dropped — the previous buffer is exactly the resume prefix.
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            task_id = self._leases.get(lease_id)
            if task_id is None:
                return False
            task = self._tasks[task_id]
            self._renew(task, now + self.lease_ttl_s)
            self._log(
                "renew", queue=task.queue, task=task_id, worker=task.worker,
                expires_wall=self._wallclock() + self.lease_ttl_s,
            )
            if segment or reset:
                stream = self._apply_segment(
                    task_id, lease_id, segment or b"", reset, offset
                )
                self._log(
                    "segment", task=task_id, lease=lease_id,
                    bytes=len(stream.data), commits=stream.commits,
                    reset=bool(reset), offset=offset,
                    data_b64=base64.b64encode(segment or b"").decode(),
                )
            return True

    def journal(self, task_id: str, grant: bool = False) -> tuple[bytes, int]:
        """``(buffered_journal_bytes, commits)`` streamed for one task.

        ``grant=True`` marks the fetch as a resume grant (the worker is
        about to replay this prefix) in the WAL and stats.
        """
        with self._lock:
            stream = self._streams.get(task_id)
            if stream is None:
                return b"", 0
            if grant and stream.data:
                self.resume_grants += 1
                self._log(
                    "resume_grant", task=task_id,
                    bytes=len(stream.data), commits=stream.commits,
                )
            return stream.data, stream.commits

    def reconnect(self, worker: str, failures: int, outage_s: float) -> None:
        """Record one client/worker reconnect after a broker outage."""
        with self._lock:
            self.reconnects += 1
            self._log(
                "reconnect", worker=worker, failures=int(failures),
                outage_s=float(outage_s),
            )

    def check_auth(
        self, method: str, path: str, body: bytes, header: str | None
    ) -> bool:
        """Verify one request's auth header; log and count a failure.

        Beyond the MAC itself, the timestamp must fall within the
        freshness window and the nonce must be new — a captured
        request replayed verbatim (same header bytes) fails here even
        inside the window.  The nonce cache lives under the state lock.
        """
        if self.auth_key is None:
            return True
        with self._lock:
            ok = verify_request_auth(
                self.auth_key, method, path, body, header,
                now=self._wallclock(),
                freshness_s=self.auth_freshness_s,
                nonces=self._nonces,
            )
            if not ok:
                self.auth_rejects += 1
                self._log("auth_reject", path=path.partition("?")[0])
        return ok

    def complete(
        self,
        task_id: str,
        payload: bytes,
        lease_id: str | None = None,
        worker: str = "",
        exec_s: float = 0.0,
    ) -> str:
        """Record one outcome; first writer wins.

        Returns ``"accepted"`` or ``"duplicate"`` (outcome already
        recorded — the duplicate is dropped, never surfaced twice).
        An unknown ``task_id`` raises ``KeyError``.
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            task = self._tasks[task_id]
            status = self._complete(task, payload, worker, exec_s)
            result = {}
            if status == "accepted":
                if task.leased_wall is not None:
                    self.lease_to_complete.observe(
                        max(0.0, self._wallclock() - task.leased_wall)
                    )
                result["result_b64"] = base64.b64encode(payload).decode()
            self._log(
                "complete", queue=task.queue, task=task_id, worker=worker,
                status=status, exec_s=exec_s, **result,
            )
            if status == "duplicate":
                return status
            trace = task.trace
            queue = task.queue
        with self._request_span(
            "broker.complete", trace,
            task=task_id, queue=queue, worker=worker,
        ):
            pass
        return "accepted"

    def result(self, task_id: str) -> tuple[str, bytes | None]:
        """``(state, outcome_bytes_or_None)`` for one task."""
        with self._lock:
            self._expire_leases(self._clock())
            task = self._tasks[task_id]
            return task.state, task.result

    @property
    def wal_seq(self) -> int:
        """Next WAL sequence number (0 when running without a WAL)."""
        return self._wal.seq if self._wal is not None else 0

    def healthz(self) -> dict:
        """Liveness snapshot for monitors and CI readiness checks.

        ``last_wal_fsync_age_s`` is the wall age of the newest durable
        WAL record — a stalling disk shows up here before it shows up
        as lease expiries.  ``None`` (JSON ``null``) without a WAL or
        before the first fsync.
        """
        fsync_age = None
        if self._wal is not None and self._wal.last_fsync_wall is not None:
            fsync_age = max(
                0.0, self._wallclock() - self._wal.last_fsync_wall
            )
        return {
            "ok": True,
            "wal_seq": self.wal_seq,
            "uptime_s": self._clock() - self._started,
            "restarts": self.restarts,
            "last_wal_fsync_age_s": fsync_age,
        }

    def observe_request(self, endpoint: str, dur_s: float) -> None:
        """Record one HTTP request's latency (handler-timed); the
        histogram's count is the endpoint's request counter."""
        hist = self.request_latency.get(endpoint)
        if hist is None:
            with self._lock:
                hist = self.request_latency.setdefault(
                    endpoint, Histogram(LATENCY_BUCKETS_S)
                )
        hist.observe(dur_s)

    def metrics_text(self) -> str:
        """The Prometheus exposition body for ``/metrics``.

        Families and buckets are the registry in DESIGN.md Sec. 15;
        names are stable — the wall-clock benchmark keys on them.
        """
        now_wall = self._wallclock()
        with self._lock:
            self._expire_leases(self._clock())
            queue_depth = [
                ({"queue": q}, len(pending))
                for q, pending in sorted(self._queues.items())
            ]
            inflight = [
                ({"queue": q}, self._active[q])
                for q in sorted(self._queues)
            ]
            oldest = []
            for q in sorted(self._queues):
                ages = [
                    now_wall - t.submitted_wall
                    for tid in self._queues[q]
                    if (t := self._tasks.get(tid)) is not None
                    and t.submitted_wall is not None
                ]
                oldest.append(({"queue": q}, max(ages) if ages else 0.0))
            counters = {**self._counters(), "wal_records": self.wal_records}
            workers = len(self._workers)
            latency_items = sorted(self.request_latency.items())
        requests = [
            ({"endpoint": endpoint}, hist.snapshot()["count"])
            for endpoint, hist in latency_items
        ]
        families = [
            counter("fleet_requests_total",
                    "HTTP requests served, by endpoint.", requests),
            counter("fleet_submits_total",
                    "Tasks submitted.", counters["submits"]),
            counter("fleet_leases_total",
                    "Leases granted.", counters["leases"]),
            counter("fleet_completions_total",
                    "Completions accepted (first writer).",
                    counters["completions"]),
            counter("fleet_duplicate_completions_total",
                    "Completions dropped as duplicates.",
                    counters["duplicates"]),
            counter("fleet_lease_expiries_total",
                    "Leases expired and re-queued.", counters["expiries"]),
            counter("fleet_heartbeats_total",
                    "Lease renewals received.", counters["heartbeats"]),
            counter("fleet_auth_rejects_total",
                    "Requests rejected by wire auth.",
                    counters["auth_rejects"]),
            counter("fleet_reconnects_total",
                    "Client reconnects reported after outages.",
                    counters["reconnects"]),
            counter("fleet_restarts_total",
                    "Broker restarts (WAL rehydrations).",
                    counters["restarts"]),
            counter("fleet_resume_grants_total",
                    "Mid-cell resume prefixes served.",
                    counters["resume_grants"]),
            counter("fleet_wal_records_total",
                    "WAL records appended this process.",
                    counters["wal_records"]),
            gauge("fleet_queue_depth",
                  "Tasks queued (not leased), by queue.", queue_depth),
            gauge("fleet_inflight",
                  "Leases in flight, by queue.", inflight),
            gauge("fleet_oldest_queued_age_seconds",
                  "Age of the oldest queued task, by queue.", oldest),
            gauge("fleet_workers_registered",
                  "Workers ever registered.", workers),
            gauge("fleet_uptime_seconds",
                  "Broker uptime.", self._clock() - self._started),
            histogram_family(
                "fleet_request_latency_seconds",
                "HTTP request handling latency, by endpoint.",
                [({"endpoint": endpoint}, hist)
                 for endpoint, hist in latency_items],
            ),
            histogram_family(
                "fleet_lease_to_complete_seconds",
                "Lease grant to accepted completion, per task.",
                self.lease_to_complete,
            ),
            histogram_family(
                "fleet_wal_fsync_seconds",
                "WAL append fsync duration.",
                self.wal_fsync,
            ),
        ]
        return render_metrics(families)

    def stats(self) -> dict:
        """JSON-able snapshot for dashboards and tests."""
        with self._lock:
            self._expire_leases(self._clock())
            return {
                "lease_ttl_s": self.lease_ttl_s,
                "queues": {
                    q: {
                        "queued": len(pending),
                        "leased": self._active[q],
                        "done": sum(
                            1
                            for t in self._tasks.values()
                            if t.queue == q and t.state == DONE
                        ),
                        "submitted": sum(
                            1 for t in self._tasks.values() if t.queue == q
                        ),
                    }
                    for q, pending in self._queues.items()
                },
                "workers": {
                    w.worker_id: {
                        "capabilities": w.capabilities,
                        "leases_taken": w.leases_taken,
                        "completed": w.completed,
                        "expired": w.expired,
                        "busy_s": w.busy_s,
                        "active": [
                            t.task_id
                            for t in self._tasks.values()
                            if t.state == LEASED
                            and t.worker == w.worker_id
                        ],
                    }
                    for w in self._workers.values()
                },
                "tasks": len(self._tasks),
                "done": sum(
                    1 for t in self._tasks.values() if t.state == DONE
                ),
                **self._counters(),
                "wal_seq": self.wal_seq,
                "streams": {
                    task_id: {
                        "bytes": len(s.data),
                        "commits": s.commits,
                        "lease": s.lease_id,
                    }
                    for task_id, s in self._streams.items()
                },
            }

    def close(self, shutdown: bool = False) -> None:
        """Close the WAL; ``shutdown=True`` journals a clean exit."""
        if self._wal is not None:
            if shutdown:
                with self._lock:
                    self._log("shutdown")
            self._wal.close()
            self._wal = None
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None
            self._spans = None


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the :class:`FleetBroker` state machine.

    Control data travels as JSON; task payloads/outcomes as raw pickle
    bytes (``application/octet-stream``) the broker never inspects.
    Every request must carry the wire fingerprint header — a mismatched
    peer (version skew) is rejected with ``409`` before any payload is
    touched — and, when the broker holds a shared key, a valid request
    HMAC (``401`` otherwise).  ``/health``, ``/healthz`` and
    ``/metrics`` stay open: they serve derived telemetry only.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-fleet-broker"

    def log_message(self, fmt, *args):  # quiet by default
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write(
                f"{self.address_string()} - {fmt % args}\n"
            )

    # -- helpers -------------------------------------------------------

    @property
    def broker(self) -> FleetBroker:
        return self.server.broker  # type: ignore[attr-defined]

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _send(self, code: int, body: bytes, ctype: str, **extra) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for key, value in extra.items():
            self.send_header(key.replace("_", "-"), str(value))
        self.end_headers()
        self._observe()
        self.wfile.write(body)

    def _json(self, code: int, obj: dict, **extra) -> None:
        self._send(
            code, json.dumps(obj).encode(), "application/json", **extra
        )

    def _check_wire(self) -> bool:
        got = self.headers.get(WIRE_HEADER)
        want = wire_fingerprint()
        if got != want:
            self._json(
                409,
                {
                    "error": "wire fingerprint mismatch",
                    "want": want,
                    "got": got,
                },
            )
            return False
        return True

    def _check_auth(self, method: str, body: bytes) -> bool:
        mac = self.headers.get(AUTH_HEADER)
        if self.broker.check_auth(method, self.path, body, mac):
            return True
        self._json(401, {"error": "authentication failed"})
        return False

    # -- routes --------------------------------------------------------

    def _observe(self) -> None:
        """Record this request's latency once: from :meth:`_send` just
        before the body goes out (so a client holding its answer never
        scrapes a ``/metrics`` without it), else when the route raised."""
        if self._start is not None:
            self.broker.observe_request(
                self.path.partition("?")[0], time.perf_counter() - self._start
            )
            self._start = None

    def _route(self, handle) -> None:
        with self.server.track_inflight():  # type: ignore[attr-defined]
            self._start = time.perf_counter()
            try:
                handle()
            finally:
                self._observe()

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._route(self._post)

    def _get(self) -> None:
        path, _, query = self.path.partition("?")
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        if path == "/health":
            self._json(200, {"ok": True, "wire": wire_fingerprint()})
            return
        if path == "/healthz":
            self._json(200, self.broker.healthz())
            return
        if path == "/metrics":
            # Unauthenticated like /healthz: derived telemetry only,
            # so Prometheus-style scrapers need no fleet key.
            self._send(
                200,
                self.broker.metrics_text().encode(),
                "text/plain; version=0.0.4",
            )
            return
        if not self._check_auth("GET", b""):
            return
        if path == "/stats":
            self._json(200, self.broker.stats())
        elif path == "/result":
            if not self._check_wire():
                return
            task_id = params.get("task_id", "")
            try:
                state, payload = self.broker.result(task_id)
            except KeyError:
                self._json(404, {"error": f"unknown task {task_id!r}"})
                return
            if payload is None:
                self._json(202, {"state": state})
            else:
                self._send(
                    200, payload, "application/octet-stream", X_State=state
                )
        elif path == "/journal":
            if not self._check_wire():
                return
            data, commits = self.broker.journal(
                params.get("task_id", ""),
                grant=params.get("grant") == "1",
            )
            self._send(
                200, data, "application/octet-stream", X_Commits=commits
            )
        else:
            self._json(404, {"error": f"no route {path!r}"})

    def _post(self) -> None:
        path, _, query = self.path.partition("?")
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        body = self._body()
        if not self._check_auth("POST", body):
            return
        if not self._check_wire():
            return
        if path == "/register":
            msg = json.loads(body or b"{}")
            ack = self.broker.register(
                msg.get("worker_id", "?"), msg.get("capabilities") or {}
            )
            self._json(200, ack)
        elif path == "/queues":
            msg = json.loads(body or b"{}")
            self.broker.create_queue(msg["queue"])
            self._json(200, {"ok": True})
        elif path == "/submit":
            task_id = self.broker.submit(
                params.get("queue", "default"), body,
                task_id=params.get("task_id") or None,
                trace=self.headers.get(TRACE_HEADER) or None,
            )
            self._json(200, {"task_id": task_id})
        elif path == "/lease":
            msg = json.loads(body or b"{}")
            grant = self.broker.lease(
                msg.get("worker_id", "?"), msg.get("queues")
            )
            if grant is None:
                # 200 + JSON (not 204): an empty-body status code is
                # awkward through keep-alive http.client connections.
                self._json(200, {"task_id": None})
            else:
                payload = grant.pop("payload")
                extra = {}
                if grant.get("trace"):
                    extra["X_Repro_Trace"] = grant["trace"]
                self._send(
                    200,
                    payload,
                    "application/octet-stream",
                    X_Task_Id=grant["task_id"],
                    X_Lease_Id=grant["lease_id"],
                    X_Queue=grant["queue"],
                    X_Lease_Ttl=grant["ttl_s"],
                    X_Attempt=grant["attempt"],
                    **extra,
                )
        elif path == "/heartbeat":
            # Segment-bearing heartbeats put the lease in the query and
            # the raw journal bytes in the body; plain renewals still
            # send the original JSON body.
            lease_id = params.get("lease_id")
            if lease_id is not None:
                offset = params.get("offset") or None
                ok = self.broker.heartbeat(
                    lease_id, segment=body or None,
                    reset=params.get("reset") == "1",
                    offset=None if offset is None else int(offset),
                )
            else:
                msg = json.loads(body or b"{}")
                ok = self.broker.heartbeat(msg.get("lease_id", ""))
            self._json(200 if ok else 410, {"ok": ok})
        elif path == "/complete":
            try:
                status = self.broker.complete(
                    params.get("task_id", ""),
                    body,
                    lease_id=params.get("lease_id"),
                    worker=params.get("worker", ""),
                    exec_s=float(params.get("exec_s", 0.0)),
                )
            except KeyError:
                self._json(
                    404,
                    {"error": f"unknown task {params.get('task_id')!r}"},
                )
                return
            self._json(200, {"status": status})
        elif path == "/reconnect":
            msg = json.loads(body or b"{}")
            self.broker.reconnect(
                msg.get("worker", "?"),
                int(msg.get("failures", 0)),
                float(msg.get("outage_s", 0.0)),
            )
            self._json(200, {"ok": True})
        elif path == "/shutdown":
            self._json(200, {"ok": True})
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
        else:
            self._json(404, {"error": f"no route {path!r}"})


class BrokerServer(ThreadingHTTPServer):
    """The HTTP face of one :class:`FleetBroker`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        broker: FleetBroker,
        verbose: bool = False,
        port_file: str | Path | None = None,
    ):
        super().__init__(address, _Handler)
        self.broker = broker
        self.verbose = verbose
        self.port_file = Path(port_file) if port_file else None
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def track_inflight(self):
        """Context manager counting requests for the shutdown drain."""
        server = self

        class _Track:
            def __enter__(self):
                with server._inflight_lock:
                    server._inflight += 1

            def __exit__(self, *exc_info):
                with server._inflight_lock:
                    server._inflight -= 1

        return _Track()

    def graceful_close(self, drain_s: float = 2.0) -> None:
        """Drain in-flight handlers, journal the shutdown, fsync the
        WAL tail, and remove the port file."""
        deadline = time.monotonic() + drain_s
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.02)
        self.broker.close(shutdown=True)
        if self.port_file is not None:
            self.port_file.unlink(missing_ok=True)


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    log_dir: str | Path | None = None,
    verbose: bool = False,
    state_dir: str | Path | None = None,
    auth_key: bytes | None = None,
    port_file: str | Path | None = None,
    compact_bytes: int | None = None,
    trace_file: str | Path | None = None,
) -> BrokerServer:
    """Build a serving-ready broker (caller runs ``serve_forever``).

    ``state_dir`` both persists and rehydrates (and compacts) the WAL;
    plain ``log_dir`` keeps the PR-8 behavior — the journal is written
    for the monitor, never read back or compacted.  ``trace_file``
    records request spans for the merged Perfetto timeline.
    """
    log_path = (
        Path(log_dir) / "broker.fleet.jsonl" if log_dir is not None else None
    )
    broker = FleetBroker(
        lease_ttl_s=lease_ttl_s,
        log_path=log_path,
        state_dir=state_dir,
        auth_key=auth_key,
        compact_bytes=compact_bytes,
        trace_path=trace_file,
    )
    return BrokerServer(
        (host, port), broker, verbose=verbose, port_file=port_file
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.broker",
        description="Work-queue broker for the distributed tuning fleet.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8947,
        help="TCP port (0 picks a free one; see --port-file)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
        help="seconds a lease survives without a heartbeat "
             f"(default {DEFAULT_LEASE_TTL_S:g})",
    )
    parser.add_argument(
        "--state-dir", default="",
        help="persist broker.fleet.jsonl as a write-ahead journal here "
             "and rehydrate from it on startup (crash-safe restarts)",
    )
    parser.add_argument(
        "--log-dir", default="",
        help="write broker.fleet.jsonl state transitions here without "
             "rehydration (the monitor's fleet dashboard input); "
             "ignored when --state-dir is set",
    )
    parser.add_argument(
        "--compact-bytes", type=int, default=-1,
        help="rewrite the --state-dir journal as one snapshot once it "
             f"exceeds this many bytes (default {DEFAULT_COMPACT_BYTES}; "
             "0 disables compaction)",
    )
    parser.add_argument(
        "--auth-key-file", default="",
        help="shared HMAC key file; requests without a valid "
             "X-Repro-Auth header are rejected with 401 "
             "(falls back to $REPRO_FLEET_AUTH_KEY[_FILE])",
    )
    parser.add_argument(
        "--port-file", default="",
        help="write the bound port number to this file once listening "
             "(removed again on graceful shutdown)",
    )
    parser.add_argument(
        "--trace-file", default="",
        help="record broker request spans (schema-v7 JSONL) here for "
             "the merged cross-process Perfetto timeline",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    server = serve(
        host=args.host,
        port=args.port,
        lease_ttl_s=args.lease_ttl,
        log_dir=args.log_dir or None,
        state_dir=args.state_dir or None,
        auth_key=load_auth_key(args.auth_key_file or None),
        verbose=args.verbose,
        port_file=args.port_file or None,
        compact_bytes=None if args.compact_bytes < 0 else args.compact_bytes,
        trace_file=args.trace_file or None,
    )
    if server.port_file is not None:
        server.port_file.write_text(str(server.server_address[1]))
    print(f"fleet broker listening on {server.url}", flush=True)
    from repro.core.resilience.signals import terminate_on_signals

    try:
        with terminate_on_signals((signal.SIGTERM, signal.SIGINT)):
            server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.graceful_close()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
