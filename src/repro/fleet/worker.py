"""Fleet worker agent: lease → execute → stream the outcome back.

::

    python -m repro.fleet.worker --broker http://HOST:PORT
        [--worker-id NAME] [--queues q1,q2] [--cache-dir DIR]
        [--journal-root DIR] [--auth-key-file PATH]
        [--poll 0.2] [--max-tasks N] [--exit-on-idle SECONDS]
        [--stream-interval SECONDS] [--broker-patience SECONDS]
        [--trace-dir DIR]

The agent wraps the exact execution paths the single-box engines use,
so a fleet run is bitwise identical to a local one:

- ``kind == "cell"`` tasks carry a :class:`repro.experiments.parallel.
  Job` and run through the same :func:`repro.experiments.parallel.
  _invoke` wrapper the process pool uses — same seeds, same scoring,
  same :class:`JobOutcome` shape (including crash capture: a raising
  cell returns an outcome with ``error`` set, it never kills the
  agent).
- ``kind == "eval"`` tasks carry an in-run :class:`repro.core.batch.
  engine.EvalJob` plus the session's seed and retry policy, and run
  through :func:`repro.core.resilience.retry.evaluate_with_policy`
  with the **same deterministic backoff-jitter stream**
  (``_stable_seed("retry", seed, step, config_index)``) the local
  :class:`EvalEngine` derives — retry timing draws are identical no
  matter which machine picks the job up.  The per-benchmark flow is
  built once and cached (reports are deterministic per configuration).

While a task executes, a daemon heartbeat thread renews the lease
every ``ttl/3`` seconds; if the broker reports the lease gone (this
agent stalled past the TTL and the task was re-issued) the heartbeat
stops, the eventual completion is streamed anyway, and the broker's
first-writer-wins rule drops whichever copy lands second.

**Mid-cell resume.**  For journaled cells the heartbeat also tails the
cell's run journal and ships every new *complete* line to the broker
(offset-deduplicated, WAL-persisted there).  When a cell is re-issued
(``attempt > 1``) the replacement worker fetches the streamed prefix,
writes it to its own journal path, and runs the cell with
``resume=True`` — the optimizer's journal replay machinery then
replays the streamed commits instead of re-evaluating them, so a
SIGKILL'd worker costs one lease timeout plus only the *unstreamed*
tail of its cell.  ``--journal-root`` remaps cell journal dirs to a
worker-private directory, modeling separate machines (the only path
journal bytes can travel is through the broker).

**Idle workers wait at the broker.**  An idle agent does not sleep
between lease requests: each ``/lease`` is held at the broker for up
to ``--poll`` seconds and answers as soon as a task is submitted (or
an expired lease is re-queued), so a cell starts the moment it exists.

**Broker outages.**  A worker never dies on ``ConnectionRefusedError``:
requests retry with deterministic-jitter backoff inside the client,
and the serve loop keeps retrying through a continuous-failure window
of ``--broker-patience`` seconds (riding out broker restarts — a
rehydrated lease stays valid when the outage is shorter than its TTL)
before giving up.  Each survived outage is reported to the broker as a
``reconnect`` fleet-journal event.

**Observability** (DESIGN.md Sec. 15).  A lease that carries the
submitter's ``X-Repro-Trace`` context is adopted two ways: the agent
records an ``execute`` span under that trace id into ``--trace-dir``,
and it exports the context as ``$REPRO_TRACE_CONTEXT`` around the
task so the cell's own :class:`repro.obs.spans.SpanRecorder` parents
every engine/flow span into the originating session — one merged
Perfetto timeline across scheduler, broker and every worker.  Tracing
is read-side — task bytes and seeds are untouched, so a traced fleet
run stays bitwise identical to an untraced one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import socket
import sys
import threading
import time
import traceback
from pathlib import Path

from repro.fleet.client import RETRIABLE, BrokerClient
from repro.fleet.wal import durable_replace, tail_complete
from repro.fleet.wire import check_wire_schema, dump, load, load_auth_key

__all__ = ["FleetWorker", "main"]


class _JournalStream:
    """Tails one cell journal, yielding complete-line chunks to ship.

    ``offset`` is both the file position and the stream coordinate
    sent to the broker (the journal is append-only between rewrites).
    A file *shrink* means :func:`RunJournal.continue_from` rewrote it
    (resume compaction) — the stream restarts from zero with
    ``reset=True`` so the broker replaces its buffer.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0

    def pending(self) -> tuple[bytes, bool, int]:
        """``(data, reset, start_offset)`` of unsent complete lines."""
        return tail_complete(self.path, self.offset)


class FleetWorker:
    """One leased-execution loop against a broker."""

    def __init__(
        self,
        broker_url: str,
        worker_id: str | None = None,
        queues: list[str] | None = None,
        cache_dir: str | None = None,
        poll_s: float = 0.2,
        max_tasks: int | None = None,
        exit_on_idle_s: float | None = None,
        auth_key: bytes | None = None,
        journal_root: str | None = None,
        stream_interval_s: float | None = None,
        broker_patience_s: float = 60.0,
        transport=None,
        trace_dir: str | None = None,
    ):
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}"
        )
        self.client = BrokerClient(
            broker_url,
            auth_key=auth_key,
            transport=transport,
            identity=self.worker_id,
            on_reconnect=self._on_reconnect,
        )
        self.queues = queues
        self.cache_dir = cache_dir
        self.journal_root = journal_root
        self.poll_s = poll_s
        self.max_tasks = max_tasks
        self.exit_on_idle_s = exit_on_idle_s
        self.stream_interval_s = stream_interval_s
        self.broker_patience_s = float(broker_patience_s)
        self.tasks_done = 0
        self.reconnects = 0
        self._lease_ttl_s = 30.0
        self._flows: dict[str, tuple] = {}  # benchmark -> (space, flow)
        self._spans = None
        self._trace_writer = None
        if trace_dir:
            from repro.obs.spans import SpanRecorder
            from repro.obs.trace import JsonlTraceWriter

            safe = "".join(
                c if c.isalnum() or c in "-_." else "_"
                for c in self.worker_id
            )
            self._trace_writer = JsonlTraceWriter(
                Path(trace_dir) / f"worker_{safe}.trace.jsonl"
            )
            self._spans = SpanRecorder(self._trace_writer)

    # ------------------------------------------------------------------
    # reconnect reporting
    # ------------------------------------------------------------------

    def _on_reconnect(self, failures: int, outage_s: float) -> None:
        self.reconnects += 1
        try:
            self.client.report_reconnect(self.worker_id, failures, outage_s)
        except Exception:
            pass  # the broker just came back; reporting is best-effort

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------

    def _eval_context(self, benchmark: str):
        """Per-benchmark (space, flow), built once and reused."""
        ctx = self._flows.get(benchmark)
        if ctx is None:
            from repro.benchsuite.registry import get_space
            from repro.hlsim.flow import HlsFlow

            space = get_space(benchmark)
            ctx = (space, HlsFlow.for_space(space))
            self._flows[benchmark] = ctx
        return ctx

    def _prepare_cell(self, message: dict, grant) -> tuple[dict, Path | None]:
        """Rewrite one cell task for this worker; returns its journal path.

        Applies the ``--journal-root`` remap, and on a re-issued lease
        (``attempt > 1``) fetches the streamed journal prefix from the
        broker and runs the cell with ``resume=True`` so the replay
        machinery salvages every streamed commit.  A longer *local*
        journal (this worker re-leasing its own task) is kept as is.
        """
        job = message.get("job")
        if job is None:
            return message, None
        kwargs = dict(job.kwargs)
        if not kwargs.get("journal_dir"):
            return message, None
        if self.journal_root:
            kwargs["journal_dir"] = self.journal_root
        from repro.experiments.harness import journal_path_for

        journal_dir = Path(kwargs["journal_dir"])
        journal_dir.mkdir(parents=True, exist_ok=True)
        journal_path = journal_path_for(
            journal_dir, job.benchmark, job.method, kwargs["seed"]
        )
        if grant.attempt > 1:
            try:
                streamed, _commits = self.client.fetch_journal(
                    grant.task_id, grant=True
                )
            except Exception:
                streamed = b""
            local = (
                journal_path.stat().st_size if journal_path.exists() else 0
            )
            if streamed and len(streamed) > local:
                durable_replace(journal_path, lambda out: out.write(streamed))
            if journal_path.exists() and journal_path.stat().st_size:
                kwargs["resume"] = True
        message["job"] = dataclasses.replace(job, kwargs=kwargs)
        return message, journal_path

    def _run_cell(self, message: dict):
        """One experiment cell, exactly as the process pool runs it."""
        from repro.experiments.parallel import _invoke

        return _invoke(message["job"], message.get("submitted_at", time.time()))

    def _run_eval(self, message: dict):
        """One in-run flow evaluation, exactly as ``EvalEngine`` runs it."""
        import numpy as np

        from repro.core.batch.engine import EvalOutcome
        from repro.core.resilience.retry import (
            RetryPolicy,
            evaluate_with_policy,
        )
        from repro.hlsim.flow import _stable_seed

        job = message["job"]
        space, flow = self._eval_context(message["benchmark"])
        policy = message.get("retry_policy") or RetryPolicy()
        rng = np.random.default_rng(
            _stable_seed(
                "retry", message.get("seed", 0), job.step, job.config_index
            )
        )
        start = time.perf_counter()
        try:
            outcome = evaluate_with_policy(
                flow, space[job.config_index], job.fidelity, policy, rng=rng
            )
            error = None
        except Exception:
            outcome = None
            error = traceback.format_exc()
        return EvalOutcome(
            job=job,
            outcome=outcome,
            error=error,
            queue_wait_s=0.0,
            exec_s=time.perf_counter() - start,
            worker=self.worker_id,
        )

    def _execute(self, message: dict):
        kind = message.get("kind")
        if kind == "cell":
            return self._run_cell(message)
        if kind == "eval":
            return self._run_eval(message)
        raise ValueError(f"unknown fleet task kind {kind!r}")

    def _execute_span(self, grant, message: dict):
        """Trace-context adoption around one leased execution.

        Exports the lease's propagated context as
        ``$REPRO_TRACE_CONTEXT`` (the agent runs one task at a time)
        so the cell's own span recorder parents into the originating
        session, and — with ``--trace-dir`` — records the agent-level
        ``execute`` span under the same trace id.
        """
        from contextlib import ExitStack, contextmanager

        from repro.obs.spans import TRACE_CONTEXT_ENV, parse_trace_context

        @contextmanager
        def _adopt_env():
            previous = os.environ.get(TRACE_CONTEXT_ENV)
            if grant.trace:
                os.environ[TRACE_CONTEXT_ENV] = grant.trace
            else:
                os.environ.pop(TRACE_CONTEXT_ENV, None)
            try:
                yield
            finally:
                if previous is None:
                    os.environ.pop(TRACE_CONTEXT_ENV, None)
                else:
                    os.environ[TRACE_CONTEXT_ENV] = previous

        stack = ExitStack()
        stack.enter_context(_adopt_env())
        if self._spans is not None:
            trace_id, remote_parent = parse_trace_context(grant.trace)
            stack.enter_context(
                self._spans.span(
                    "execute", cat="fleet",
                    trace=trace_id, remote_parent=remote_parent,
                    task=grant.task_id, queue=grant.queue,
                    kind=(message or {}).get("kind"),
                    attempt=grant.attempt, worker=self.worker_id,
                )
            )
        return stack

    def _close_telemetry(self) -> None:
        if self._trace_writer is not None:
            try:
                self._trace_writer.close()
            except Exception:
                pass
            self._trace_writer = None
            self._spans = None

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------

    def _heartbeat_loop(
        self,
        lease_id: str,
        stop: threading.Event,
        stream: _JournalStream | None = None,
    ) -> None:
        interval = self.stream_interval_s or max(0.05, self._lease_ttl_s / 3.0)
        while not stop.wait(interval):
            try:
                if stream is not None:
                    data, reset, start = stream.pending()
                else:
                    data, reset, start = b"", False, 0
                if data or reset:
                    ok = self.client.heartbeat(
                        lease_id, segment=data, reset=reset, offset=start,
                    )
                    if ok:
                        stream.offset = start + len(data)
                else:
                    ok = self.client.heartbeat(lease_id)
                if not ok:
                    return  # lease expired: task re-issued elsewhere
            except RETRIABLE:
                # The broker may be mid-restart; a rehydrated lease
                # stays valid when the outage is shorter than its TTL,
                # so keep beating rather than abandoning the task.
                continue

    def _serve_one(self) -> bool:
        """Lease and run one task; ``False`` when the broker stayed idle
        for the whole ``poll_s`` wait."""
        grant = self.client.lease(
            self.worker_id, self.queues, wait_s=self.poll_s
        )
        if grant is None:
            return False
        self._lease_ttl_s = grant.ttl_s
        stream: _JournalStream | None = None
        result = None
        # Decode and prepare *before* the heartbeat starts so the
        # journal tail is known to the streamer from the first beat.
        try:
            message = load(grant.payload)
            if message.get("kind") == "cell":
                message, journal_path = self._prepare_cell(message, grant)
                if journal_path is not None:
                    stream = _JournalStream(journal_path)
        except Exception:
            message = None
            result = {
                "error": traceback.format_exc(),
                "worker": self.worker_id,
            }
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(grant.lease_id, stop, stream),
            daemon=True,
        )
        beat.start()
        start = time.perf_counter()
        try:
            # Task-level crashes are data (the outcome carries the
            # traceback); only broker/protocol failures escape.
            if result is None:
                try:
                    with self._execute_span(grant, message):
                        result = self._execute(message)
                except Exception:
                    result = {
                        "error": traceback.format_exc(),
                        "worker": self.worker_id,
                    }
        finally:
            stop.set()
        exec_s = time.perf_counter() - start
        beat.join(timeout=1.0)
        self.client.complete(
            grant.task_id,
            dump(result),
            lease_id=grant.lease_id,
            worker=self.worker_id,
            exec_s=exec_s,
        )
        self.tasks_done += 1
        return True

    def run(self) -> int:
        """Register, then serve until told (or configured) to stop."""
        try:
            return self._run()
        finally:
            self._close_telemetry()
            self.client.close()

    def _run(self) -> int:
        check_wire_schema()
        if self.cache_dir:
            # Workers share the sharded ground-truth cache through the
            # same env override the harness honors.
            os.environ["REPRO_GT_CACHE_DIR"] = self.cache_dir
        ack = self.client.register(
            self.worker_id,
            capabilities={
                "cpus": os.cpu_count() or 1,
                "queues": self.queues,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            },
        )
        self._lease_ttl_s = float(ack.get("lease_ttl_s", 30.0))
        idle_since: float | None = None
        down_since: float | None = None
        down_count = 0
        while True:
            if self.max_tasks is not None and self.tasks_done >= self.max_tasks:
                return 0
            try:
                served = self._serve_one()
            except RETRIABLE:
                # The client already retried with backoff; keep riding
                # out the outage until the patience window closes.
                # Reconnect reporting belongs to the client's hook (it
                # tracks the outage across requests and fires exactly
                # once on recovery) — this loop only paces the waiting.
                now = time.monotonic()
                if down_since is None:
                    down_since = now
                if now - down_since >= self.broker_patience_s:
                    return 0  # broker stayed gone: nothing left to do
                down_count += 1
                time.sleep(min(2.0, 0.1 * (2 ** min(down_count, 5))))
                continue
            down_since = None
            down_count = 0
            if served:
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if (
                self.exit_on_idle_s is not None
                and now - idle_since >= self.exit_on_idle_s
            ):
                return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.worker",
        description="Leased worker agent for the distributed tuning fleet.",
    )
    parser.add_argument(
        "--broker", required=True, help="broker URL, e.g. http://host:8947"
    )
    parser.add_argument(
        "--worker-id", default="", help="stable identity (default host:pid)"
    )
    parser.add_argument(
        "--queues", default="",
        help="comma-separated queue capability filter (default: any)",
    )
    parser.add_argument(
        "--cache-dir", default="",
        help="shared ground-truth cache directory (sets "
             "$REPRO_GT_CACHE_DIR for this agent)",
    )
    parser.add_argument(
        "--journal-root", default="",
        help="remap cell journal dirs to this worker-private directory "
             "(multi-machine fleets: journals travel via the broker)",
    )
    parser.add_argument(
        "--auth-key-file", default="",
        help="shared HMAC key file for the authenticated wire "
             "(falls back to $REPRO_FLEET_AUTH_KEY[_FILE])",
    )
    parser.add_argument(
        "--poll", type=float, default=0.2,
        help="longest one idle lease request waits at the broker for "
             "work, in seconds (default 0.2); a task submitted during "
             "the wait is leased at once",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=0,
        help="exit after N completed tasks (0 = unlimited)",
    )
    parser.add_argument(
        "--exit-on-idle", type=float, default=0.0,
        help="exit after this many consecutive idle seconds "
             "(0 = keep waiting for work forever)",
    )
    parser.add_argument(
        "--stream-interval", type=float, default=0.0,
        help="journal-segment heartbeat interval in seconds "
             "(0 = lease ttl / 3)",
    )
    parser.add_argument(
        "--broker-patience", type=float, default=60.0,
        help="give up after this many seconds of continuous broker "
             "unreachability (default 60)",
    )
    parser.add_argument(
        "--trace-dir", default="",
        help="record agent-level execute spans (parented into the "
             "submitting session's trace) to this directory",
    )
    args = parser.parse_args(argv)

    from repro.core.resilience.signals import terminate_on_signals

    worker = FleetWorker(
        args.broker,
        worker_id=args.worker_id or None,
        queues=[q for q in args.queues.split(",") if q] or None,
        cache_dir=args.cache_dir or None,
        journal_root=args.journal_root or None,
        auth_key=load_auth_key(args.auth_key_file or None),
        poll_s=args.poll,
        max_tasks=args.max_tasks or None,
        exit_on_idle_s=args.exit_on_idle or None,
        stream_interval_s=args.stream_interval or None,
        broker_patience_s=args.broker_patience,
        trace_dir=args.trace_dir or None,
    )
    with terminate_on_signals():
        return worker.run()


if __name__ == "__main__":
    sys.exit(main())
