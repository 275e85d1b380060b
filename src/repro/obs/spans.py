"""Nested wall-time spans with cross-process merge and Perfetto export.

A :class:`SpanRecorder` turns any sink of trace records (normally a
:class:`repro.obs.trace.JsonlTraceWriter`) into a hierarchical tracer:
``with recorder.span("fit", cat="fit"):`` measures the enclosed block
and emits one schema-v7 ``event == "span"`` record when it closes,
carrying

- the **host, process and thread** that ran it (``host``, ``pid``,
  ``tid``, ``tname``), so merged multi-process — and multi-*machine* —
  traces render one track per worker without pid-reuse collisions;
- an explicit **parent id** — each thread keeps its own span stack, so
  nesting is attributed correctly even when the evaluation engine's
  threads run concurrently with the main loop;
- the **fleet trace context**: a ``trace`` id propagated across
  processes through the ``X-Repro-Trace`` header (scheduler → broker →
  worker → cell) plus a ``remote_parent`` — the span id *in the
  originating process* that this recorder's top-level spans parent
  into.  The context arrives either explicitly (constructor arguments,
  per-span overrides) or ambiently through the
  :data:`TRACE_CONTEXT_ENV` environment variable
  (``"<trace_id>:<span_id>"``), which is how a fleet worker hands the
  lease's context to the optimizer's own recorder without plumbing
  changes;
- an **epoch-anchored start time**.  Durations are measured with
  ``perf_counter`` (monotonic, high resolution) and mapped onto the
  wall clock through a per-recorder anchor captured at construction:
  ``t0 = anchor + perf_counter_start``.  The wall clock is the shared
  time base across processes on one machine, which is what makes
  child-process spans merge onto the parent's timeline (cross-machine
  merges rely on NTP-level wall-clock agreement — arrows and track
  grouping come from the trace context, only the horizontal alignment
  comes from the clocks; see DESIGN.md Sec. 15).

Every span also credits its duration to the recorder's
:class:`repro.obs.timing.Metrics` totals under the span's name, whether
or not a sink is attached: spans are the only timer the optimizer
uses, and ``SpanRecorder(None)`` — no sink, no records — is the
disabled path that still keeps the run's time totals.

Recording costs one ``perf_counter`` pair, one locked total update and,
with a sink, one dict build and one locked JSONL append per span;
nothing here touches any RNG, so enabling spans cannot change
optimizer selections (regression-tested in ``tests/test_obs.py`` and
gated at <= 5% end-to-end overhead by
``benchmarks/bench_obs_overhead.py``).

Export: :func:`export_chrome_trace` merges any number of JSONL trace
files (per-cell optimizer traces, the parallel engine's job trace)
into a single Chrome trace-event JSON file that opens directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — spans as
complete ("X") events on per-(host, pid, tid) tracks, resilience
``fault``/``degrade``/``resume`` records as instant ("i")
annotations, ``job`` records as per-worker-process slices, and fleet
task lifecycles (spans sharing a ``task`` arg: ``submit → lease →
execute → complete``) as flow arrows across tracks.
Command line::

    python -m repro.obs.spans TRACE_DIR_OR_FILES... -o run.trace.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import socket
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.obs.timing import Metrics
from repro.obs.trace import (
    SPAN_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    iter_trace,
)

__all__ = [
    "TRACE_CONTEXT_ENV",
    "SpanRecorder",
    "format_trace_context",
    "parse_trace_context",
    "collect_trace_files",
    "chrome_trace_events",
    "export_chrome_trace",
    "main",
]

#: Environment variable carrying an ambient ``"<trace_id>:<span_id>"``
#: context: a fleet worker sets it around cell execution so recorders
#: created deep inside the optimizer adopt the lease's trace without
#: any API plumbing.
TRACE_CONTEXT_ENV = "REPRO_TRACE_CONTEXT"


def format_trace_context(trace: str, span_id: int | None = None) -> str:
    """``"<trace_id>:<span_id>"`` (or just ``"<trace_id>"``)."""
    return trace if span_id is None else f"{trace}:{span_id}"


def parse_trace_context(
    text: str | None,
) -> tuple[str | None, int | None]:
    """``(trace_id, span_id)`` from a header/env value, tolerant.

    Accepts ``"trace"``, ``"trace:span"``; anything unparseable (or
    empty) degrades to ``(None, None)`` — a malformed context must
    never fail a request that is otherwise fine.
    """
    if not text:
        return None, None
    trace, _, span = text.partition(":")
    trace = trace.strip()
    if not trace:
        return None, None
    try:
        return trace, int(span)
    except ValueError:
        return trace, None


class SpanRecorder:
    """Thread-safe nested span tracer writing schema-v7 span records.

    Every closed span credits its duration to :attr:`metrics` under the
    span's name.  ``sink`` is any callable accepting one record dict —
    ``JsonlTraceWriter.write`` in production, a plain ``list.append``
    in tests — or ``None``: then no record is built or written and
    only the totals are kept.  Span ids are unique within the recorder
    (and therefore within the process: one recorder per traced run);
    cross-process uniqueness is the ``(host, pid, id)`` triple.

    ``trace``/``remote_parent`` set the recorder-wide fleet context
    (every top-level span parents into ``remote_parent`` under trace
    id ``trace``); when omitted, the ambient :data:`TRACE_CONTEXT_ENV`
    variable is adopted so a worker-launched optimizer inherits its
    lease's context automatically.  Both can also be overridden per
    span (the broker records request spans for many concurrent traces
    through one recorder).
    """

    def __init__(
        self,
        sink: Callable[[Mapping[str, Any]], None] | None = None,
        trace: str | None = None,
        remote_parent: int | None = None,
        host: str | None = None,
    ):
        if hasattr(sink, "write"):  # accept a JsonlTraceWriter directly
            sink = sink.write
        self._sink = sink
        self.metrics = Metrics()
        self._pid = os.getpid()
        self._host = host or socket.gethostname()
        if trace is None and remote_parent is None:
            trace, remote_parent = parse_trace_context(
                os.environ.get(TRACE_CONTEXT_ENV)
            )
        self.trace = trace
        self.remote_parent = remote_parent
        # Anchor perf_counter onto the epoch once: t_wall = anchor + t_perf.
        self._anchor = time.time() - time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> int | None:
        """The innermost open span's id on this thread (``None`` at
        top level) — what an outgoing request stamps as its parent."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "run",
        step: int | None = None,
        config_index: int | None = None,
        fidelity: str | None = None,
        trace: str | None = None,
        remote_parent: int | None = None,
        **args: Any,
    ) -> Iterator[None]:
        """Time the enclosed block as one span: its duration goes to
        :attr:`metrics` under ``name`` and, with a sink, into one
        record emitted on close."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            self.metrics.add_time(name, dur)
            if self._sink is not None:
                if remote_parent is None:
                    remote_parent = self.remote_parent
                thread = threading.current_thread()
                self._sink(
                    {
                        "v": TRACE_SCHEMA_VERSION,
                        "event": "span",
                        "name": name,
                        "cat": cat,
                        "host": self._host,
                        "pid": self._pid,
                        "tid": thread.ident,
                        "tname": thread.name,
                        "t0": self._anchor + start,
                        "dur_s": dur,
                        "id": span_id,
                        "parent": parent,
                        "trace": trace if trace is not None else self.trace,
                        # A span nested under a local parent already
                        # chains to the remote context through it.
                        "remote_parent": (
                            remote_parent if parent is None else None
                        ),
                        "step": step,
                        "config_index": config_index,
                        "fidelity": fidelity,
                        "args": args,
                    }
                )


# ----------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------


def collect_trace_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into the JSONL trace files to merge.

    Directories contribute every ``*.jsonl`` below them except run
    journals (``*.journal.jsonl`` — replay state, not telemetry) and
    scraped metrics time series (``*.metrics.jsonl`` — samples, not
    spans).
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.jsonl"))
                if not p.name.endswith(
                    (".journal.jsonl", ".metrics.jsonl")
                )
            )
        else:
            files.append(path)
    return files


def _span_args(record: dict[str, Any]) -> dict[str, Any]:
    args = dict(record.get("args") or {})
    for key in ("step", "config_index", "fidelity"):
        if record.get(key) is not None:
            args[key] = record[key]
    return args


def chrome_trace_events(
    files: list[Path], tolerant: bool = True
) -> list[dict[str, Any]]:
    """Merge trace files into Chrome trace-event dicts.

    Spans become complete ("X") events on their recorded ``(host,
    pid, tid)`` track — the host qualifier keeps pid reuse across
    machines from merging unrelated tracks, and pre-v7 records
    without a ``host`` field fall back to a ``None`` host (the old
    single-host behavior); ``fault``/``degrade``/``resume`` records
    become instant ("i") annotations on their file's main track;
    ``job`` records (which carry the worker *process* id) become one
    slice per experiment cell on the worker's own track.  Spans that
    share a ``task`` argument (the fleet lifecycle ``submit → lease →
    execute → complete``) are chained with flow arrows across tracks.
    Metadata ("M") events name each process after the run it hosts
    (``kernel.method`` from the file's ``run_start`` header, or the
    file stem, plus the recording host when the merge spans several)
    and each thread after its recorded ``tname``.

    Timestamps are wall-clock microseconds rebased to the earliest
    event across all files, so the merged view starts at t=0.
    """
    spans: list[tuple[dict, dict]] = []  # (record, file info)
    instants: list[tuple[dict, dict, float | None]] = []
    jobs: list[dict] = []
    file_infos: list[dict] = []
    for path in files:
        info: dict[str, Any] = {
            "label": path.stem,
            "pid": None,  # main pid of this file's spans, once seen
            "host": None,  # recording host, once seen (None pre-v7)
            "threads": {},  # tid -> tname
        }
        last_end: float | None = None  # wall end of latest span line
        for record in iter_trace(path, tolerant=tolerant):
            event = record.get("event")
            if event == "run_start":
                kernel = record.get("kernel")
                method = record.get("method")
                if kernel and method:
                    info["label"] = f"{kernel}.{method}"
            elif event == "span":
                if info["pid"] is None:
                    info["pid"] = record["pid"]
                    info["host"] = record.get("host")
                info["threads"].setdefault(
                    record["tid"], record.get("tname")
                )
                last_end = record["t0"] + record["dur_s"]
                spans.append((record, info))
            elif event in ("fault", "degrade", "resume"):
                # Resilience records carry no clock of their own: pin
                # each annotation to the end of the latest span written
                # before it (span lines are emitted on close, so that
                # is the evaluation the fault interrupted — or the
                # trace origin when spans are off).
                instants.append((record, info, last_end))
            elif event == "job" and record.get("t_start") is not None:
                jobs.append(record)
        file_infos.append(info)

    # Each file gets its own process track.  Files without spans (e.g.
    # an instants-only trace) get a synthetic pid; so does any file
    # whose recorded (host, pid) is already claimed by an earlier file
    # (two cells of a sequential sweep run in one process — lumping
    # them onto one track would hide the second cell behind the first
    # file's label), and any file whose pid *number* is taken by a
    # different host (pid reuse across machines — the collision this
    # host-qualified keying exists to fix).  The first file to claim a
    # real (host, pid) keeps the pid, so parallel-sweep cell spans
    # stay aligned with their worker's ``job`` slices; pre-v7 records
    # without a host fall back to host ``None`` (old behavior).
    synthetic = itertools.count(
        max(
            [i["pid"] for i in file_infos if i["pid"] is not None]
            + [j["worker"] for j in jobs]
            + [0]
        )
        + 1
    )
    claimed: set[tuple[Any, int]] = set()
    used_pids: set[int] = set()
    for info in file_infos:
        key = (info["host"], info["pid"])
        if info["pid"] is None or key in claimed or info["pid"] in used_pids:
            info["display_pid"] = next(synthetic)
        else:
            claimed.add(key)
            info["display_pid"] = info["pid"]
        used_pids.add(info["display_pid"])

    starts = (
        [r["t0"] for r, _ in spans]
        + [float(j["t_start"]) for j in jobs]
    )
    base = min(starts) if starts else 0.0

    def us(t: float) -> float:
        return (t - base) * 1e6

    events: list[dict[str, Any]] = []
    seen_process_names: set[int] = set()
    hosts = {i["host"] for i in file_infos if i["host"] is not None}
    for info in file_infos:
        pid = info["display_pid"]
        if pid not in seen_process_names:
            seen_process_names.add(pid)
            label = info["label"]
            if len(hosts) > 1 and info["host"] is not None:
                label = f"{label} [{info['host']}]"
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        for tid, tname in info["threads"].items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname or str(tid)},
                }
            )
    for record, info in spans:
        events.append(
            {
                "ph": "X",
                "name": record["name"],
                "cat": record.get("cat") or "span",
                "pid": info["display_pid"],
                "tid": record["tid"],
                "ts": us(record["t0"]),
                "dur": max(0.0, record["dur_s"] * 1e6),
                "args": _span_args(record),
            }
        )
    for record, info, anchor in instants:
        args = {
            k: v
            for k, v in record.items()
            if k not in ("v", "event") and v is not None
        }
        events.append(
            {
                "ph": "i",
                "s": "p",  # process-scoped annotation line
                "name": record["event"],
                "cat": "resilience",
                "pid": info["display_pid"],
                "tid": next(iter(info["threads"]), 0),
                "ts": us(anchor) if anchor is not None else 0.0,
                "args": args,
            }
        )
    job_pids: set[int] = set()
    for job in jobs:
        pid = job["worker"]
        if pid not in seen_process_names and pid not in job_pids:
            job_pids.add(pid)
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"worker {pid}"},
                }
            )
        name = (
            f"{job.get('benchmark')}.{job.get('method')}"
            f".r{job.get('repeat')}"
        )
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": "job",
                "pid": pid,
                "tid": 0,
                "ts": us(float(job["t_start"])),
                "dur": max(0.0, float(job.get("exec_s") or 0.0) * 1e6),
                "args": {
                    k: job.get(k)
                    for k in ("queue_wait_s", "gt_cache", "ok", "error")
                    if job.get(k) is not None
                },
            }
        )
    # Fleet task lifecycles: chain every span carrying the same
    # ``task`` argument (scheduler submit, broker request spans,
    # worker execute) with flow arrows in wall-clock order.  Anchors
    # sit at each span's midpoint so the arrow binds to the slice
    # itself, not a neighbor that starts at the same microsecond.
    flows: dict[str, list[tuple[float, int, int]]] = {}
    for record, info in spans:
        task = (record.get("args") or {}).get("task")
        if not task:
            continue
        mid = record["t0"] + max(0.0, record["dur_s"]) / 2.0
        flows.setdefault(str(task), []).append(
            (mid, info["display_pid"], record["tid"])
        )
    for task, anchors in sorted(flows.items()):
        if len(anchors) < 2:
            continue
        anchors.sort()
        flow_id = zlib.crc32(task.encode())
        last = len(anchors) - 1
        for index, (mid, pid, tid) in enumerate(anchors):
            phase = "s" if index == 0 else ("f" if index == last else "t")
            event = {
                "ph": phase,
                "id": flow_id,
                "name": "task",
                "cat": "fleet",
                "pid": pid,
                "tid": tid,
                "ts": us(mid),
            }
            if phase == "f":
                event["bp"] = "e"  # bind to the enclosing slice
            events.append(event)
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return events


def export_chrome_trace(
    paths: list[str | Path],
    out: str | Path,
    tolerant: bool = True,
) -> int:
    """Merge trace files into one Chrome trace-event JSON file.

    Returns the number of trace events written.  The output loads
    as-is in Perfetto (https://ui.perfetto.dev) and chrome://tracing.
    """
    files = collect_trace_files(paths)
    events = chrome_trace_events(files, tolerant=tolerant)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.spans",
            "schema": f"trace-v{TRACE_SCHEMA_VERSION}",
            "files": [str(f) for f in files],
        },
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        json.dump(payload, handle)
    return len(events)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.spans",
        description=(
            "Merge JSONL run traces (spans, jobs, resilience events) "
            "into one Chrome trace-event file for Perfetto."
        ),
    )
    parser.add_argument(
        "paths", nargs="+",
        help="trace files and/or directories of *.jsonl traces",
    )
    parser.add_argument(
        "-o", "--out", default="run.trace.json",
        help="output Chrome trace-event JSON file",
    )
    args = parser.parse_args(argv)
    files = collect_trace_files(args.paths)
    if not files:
        print(f"no trace files found under {args.paths}", file=sys.stderr)
        return 1
    count = export_chrome_trace(files, args.out)
    print(
        f"wrote {count} trace events from {len(files)} file(s) to "
        f"{args.out} — open in https://ui.perfetto.dev"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
