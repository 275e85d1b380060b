"""Structured JSONL traces for optimization runs.

One JSON object per line.  Every line carries ``"v"`` (schema version)
and ``"event"``.  An optimizer run emits a single ``"run_start"``
header, then the BO loop (:func:`repro.core.batch.async_engine.
run_async_loop`, the same events in every loop mode) emits one
``"proposal"`` line per selection, one ``"commit"`` line per folded
outcome and one ``"inflight"`` line after each of them; the parallel
experiment engine (:mod:`repro.experiments.parallel`) emits one
``"job"`` line per (benchmark, method, repeat) cell.  Non-finite
floats are serialized as ``null`` so the output stays strict JSON.

The event schemas (:data:`JOB_TRACE_FIELDS`,
:data:`PROPOSAL_TRACE_FIELDS`, :data:`COMMIT_TRACE_FIELDS`,
:data:`FAULT_TRACE_FIELDS`, :data:`DEGRADE_TRACE_FIELDS`,
:data:`RESUME_TRACE_FIELDS`, :data:`SPAN_TRACE_FIELDS`,
:data:`INFLIGHT_TRACE_FIELDS`) are covered by regression tests — tools
that consume traces (dashboards, diffing, the benchmarks) can rely on
the field set per version.

Schema history: v1 defined the ``run_start``/``step`` events; v2 added
the ``job`` event (worker-level timing of parallel sweeps) without
changing the step fields; v3 added the batch-engine events —
``proposal`` (what qPEIPV selected and its fantasy objectives),
``pending`` (the submitted batch's per-fidelity in-flight counts and
round timing) and ``commit`` (realized objectives vs. the proposal's
fantasy, plus per-candidate queue/exec timing); v4 added the
resilience events (:mod:`repro.core.resilience`) — ``fault`` (one line
per failed flow attempt), ``degrade`` (an evaluation fell back to a
lower fidelity, or exhausted every fidelity and was punished) and
``resume`` (a run picked up from a journal: how many commits were
replayed/dropped) — and extended ``step``/``commit`` lines with the
retry accounting fields (``attempts``/``degraded`` on steps;
``requested_fidelity``/``degraded``/``failed``/``wasted_runtime_s`` on
commits); v5 added the ``span`` event (:mod:`repro.obs.spans` — nested
wall-time spans with explicit parent ids and ``(pid, tid)``
attribution, exportable to Chrome trace-event JSON) and extended
``job`` lines with ``t_start`` (the epoch second the job began
executing on its worker, so cross-process job timelines merge into one
trace); v6 added the async-pipeline events (:mod:`repro.core.batch`'s
``run_async_loop``) — the new ``inflight`` event (one line per
scheduling action: committed count, pending-set size, adaptive
in-flight target, fantasy-front hypervolume and the modeled simulation
clock) — and extended ``proposal`` lines with ``eta_s``/``target``
(the proposal's modeled completion time and the in-flight target after
the adaptive controller's update; ``null`` for round-barrier
proposals) and ``commit`` lines with ``inflight`` (evaluations still
pending at commit time; ``null`` for round-barrier commits).  Span
names gained async semantics: ``propose`` (one fit + fantasize +
selection), ``inflight_wait`` (blocking on the modeled-next
evaluation) and ``commit`` wrap the async loop's phases; v7 added the
fleet trace-context fields to ``span`` lines — ``host`` (the machine
that recorded the span; ``(host, pid, tid)`` is the cross-machine
track identity, fixing pid-reuse collisions in merged multi-host
traces), ``trace`` (the fleet-wide trace id propagated through the
``X-Repro-Trace`` header, ``null`` for purely local runs) and
``remote_parent`` (the span id *in the originating process* that a
top-level span parents into across the wire, ``null`` otherwise) —
all defaulting to ``null`` so single-process traces are unchanged
apart from the version stamp; v8 made the BO loop one pipeline, so
every loop mode emits ``proposal``/``inflight``/``commit`` and the
sequential ``step`` and round-barrier ``pending`` events are gone.
Their figures moved: the per-selection deltas (``fit_s``,
``predict_s``, ``hvi_s``, ``cache_hits``, ``cache_misses``) and the
selection wall time ``select_s`` onto ``proposal``; the step's
propose-to-commit wall time ``step_s`` onto ``commit`` (its
``eval_s`` is the commit's ``exec_s``); the per-fidelity ``in_flight``
counts onto ``inflight``.  ``proposal``/``commit`` lost their
``round``/``slot`` fields (a barrier round is ``step // batch_size``).

Mixed-version files: a file whose records disagree on ``"v"`` (e.g. a
resumed run written by newer code appending to an old file) is refused
by :func:`read_trace` with a :class:`TraceSchemaError` unless
``upgrade=True``, which lifts every record to the current schema by
filling the fields later versions added with their neutral defaults
(see :func:`upgrade_record`).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

#: Bump when a field is added, removed or changes meaning.
TRACE_SCHEMA_VERSION = 8

#: Fields guaranteed on every ``event == "job"`` line (schema v2):
#: job identity, pool shape, queue wait / execution wall time, the
#: worker process id and whether the worker's ground truth came from
#: the persistent cache ("disk-hit") or an exhaustive sweep
#: ("computed").  ``error`` is the final traceback line of a failed
#: job, ``null`` on success.  ``t_start`` (v5) is the epoch second the
#: job began executing on its worker — the anchor that places the job
#: on a shared cross-process timeline (``null`` on pre-v5 records).
JOB_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "benchmark",
    "method",
    "repeat",
    "workers",
    "worker",
    "t_start",
    "queue_wait_s",
    "exec_s",
    "gt_cache",
    "ok",
    "error",
)

#: Fields guaranteed on every ``event == "proposal"`` line (schema v3):
#: one line per candidate the BO loop picked — its step index, the
#: chosen configuration / fidelity / penalized-EIPV score, the
#: Kriging-believer *fantasy* objectives the stack is conditioned on
#: while the candidate is pending, and the candidate-pool size the
#: scan saw.  ``eta_s`` (v6) is the proposal's modeled completion time
#: on the loop's simulation clock and ``target`` the in-flight target
#: after the adaptive controller's update.  v8 adds the selection's
#: cost: ``fit_s``/``predict_s``/``hvi_s`` (the optimizer's metric
#: deltas over the selection), ``select_s`` (its wall time) and the
#: stack's prediction ``cache_hits``/``cache_misses``.
PROPOSAL_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "step",
    "config_index",
    "fidelity",
    "acquisition",
    "fantasy",
    "pool_size",
    "eta_s",
    "target",
    "fit_s",
    "predict_s",
    "hvi_s",
    "select_s",
    "cache_hits",
    "cache_misses",
)

#: Fields guaranteed on every ``event == "commit"`` line (schema v3):
#: one line per candidate as its realized flow result is folded into
#: the GP dataset (in the loop's modeled order, regardless of worker
#: completion order) — realized objectives next to the proposal's
#: fantasy, plus per-candidate queue-wait / execution timing, the
#: worker that ran it and how many attempts it took (2 == retried
#: once after a timeout).  ``inflight`` (v6) is the number of
#: evaluations still pending after the commit; ``step_s`` (v8) is the
#: step's wall time from the start of its proposal to its commit.
COMMIT_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "step",
    "config_index",
    "fidelity",
    "valid",
    "objectives",
    "fantasy",
    "flow_runtime_s",
    "queue_wait_s",
    "exec_s",
    "worker",
    "attempts",
    "requested_fidelity",
    "degraded",
    "failed",
    "wasted_runtime_s",
    "inflight",
    "step_s",
)

#: Fields guaranteed on every ``event == "fault"`` line (schema v4):
#: one line per *failed flow attempt* — the step/config it belonged to,
#: the fidelity the attempt ran at, the attempt number within its
#: evaluation, the exception's final line and the backoff slept before
#: the next attempt (0 when none followed).
FAULT_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "step",
    "config_index",
    "fidelity",
    "attempt",
    "error",
    "backoff_s",
)

#: Fields guaranteed on every ``event == "degrade"`` line (schema v4):
#: emitted when retry exhaustion forced an evaluation below its
#: requested fidelity (``action == "degrade"``) or through the
#: punishment path after every fidelity failed (``action == "punish"``).
DEGRADE_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "step",
    "config_index",
    "requested_fidelity",
    "fidelity",
    "action",
    "attempts",
)

#: Fields guaranteed on every ``event == "span"`` line (schema v5):
#: one closed wall-time span — its name and category, the process /
#: thread that ran it (``pid``/``tid``/``tname``), its epoch start
#: second and duration (``t0``/``dur_s``; the wall clock is the shared
#: cross-process time base, see :mod:`repro.obs.spans`), a per-process
#: span ``id`` with the enclosing span's id as ``parent`` (``null`` at
#: top level), the step/config/fidelity it belongs to when applicable,
#: and a free-form ``args`` mapping.  v7 adds ``host`` (recording
#: machine — ``(host, pid, tid)`` is the merged-trace track identity),
#: ``trace`` (propagated fleet trace id, ``null`` locally) and
#: ``remote_parent`` (the originating process's span id a top-level
#: span parents into across the wire, ``null`` otherwise).
SPAN_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "name",
    "cat",
    "host",
    "pid",
    "tid",
    "tname",
    "t0",
    "dur_s",
    "id",
    "parent",
    "trace",
    "remote_parent",
    "step",
    "config_index",
    "fidelity",
    "args",
)

#: Fields guaranteed on every ``event == "inflight"`` line (schema v6):
#: one line per BO-loop scheduling action (after each proposal and
#: each commit) — the committed loop-evaluation count, the pending-set
#: size and (v8) its per-fidelity ``in_flight`` counts, the in-flight
#: target, the hypervolume of the fantasy-extended Pareto front the
#: next proposal would see, and the modeled simulation clock
#: (``sim_s``; the deterministic commit order is min-ETA on this clock,
#: never wall time).
INFLIGHT_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "committed",
    "n_pending",
    "in_flight",
    "target",
    "fantasy_hv",
    "sim_s",
)

#: Fields guaranteed on every ``event == "resume"`` line (schema v4):
#: one line at the top of a resumed run — the journal it replayed, how
#: many records were replayed / dropped (an incomplete initial design)
#: and the first live step.
RESUME_TRACE_FIELDS: tuple[str, ...] = (
    "v",
    "event",
    "journal",
    "replayed",
    "dropped",
    "next_step",
)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and non-finite floats into strict JSON."""
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class JsonlTraceWriter:
    """Append-only JSONL writer with eager flushing.

    Eager flushing keeps the trace useful for *live* observability —
    ``tail -f`` works while a long run is still going.  Writes are
    serialized under a lock: the evaluation engine's threads emit span
    records concurrently with the main thread's loop events, and
    interleaved partial lines would corrupt the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: IO[str] | None = self.path.open("w")
        self._lock = threading.Lock()
        self.lines_written = 0

    def write(self, record: Mapping[str, Any]) -> None:
        payload = {k: _jsonable(v) for k, v in record.items()}
        line = json.dumps(payload, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                raise RuntimeError(
                    f"trace writer for {self.path} is closed"
                )
            self._handle.write(line)
            self._handle.flush()
            self.lines_written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TraceSchemaError(ValueError):
    """A trace file mixes schema versions and cannot be read as-is."""


#: Fields added to existing event types after their introduction, as
#: ``{event: {field: neutral default}}`` — what :func:`upgrade_record`
#: fills when lifting an old record to the current schema.  A callable
#: default receives the record (``requested_fidelity`` of an
#: un-degraded pre-v4 commit is simply the fidelity that ran).
_UPGRADE_DEFAULTS: dict[str, dict[str, Any]] = {
    "step": {"attempts": 1, "degraded": False},  # added in v4
    "commit": {  # requested_fidelity...wasted_runtime_s v4; inflight v6
        "requested_fidelity": lambda r: r.get("fidelity"),
        "degraded": False,
        "failed": False,
        "wasted_runtime_s": 0.0,
        "inflight": None,
        "step_s": None,  # added in v8
    },
    "job": {"t_start": None},  # added in v5
    "proposal": {  # eta_s/target added in v6, the rest in v8
        "eta_s": None,
        "target": None,
        "fit_s": None,
        "predict_s": None,
        "hvi_s": None,
        "select_s": None,
        "cache_hits": None,
        "cache_misses": None,
    },
    "inflight": {"in_flight": None},  # added in v8
    "span": {  # host/trace/remote_parent added in v7
        "host": None,
        "trace": None,
        "remote_parent": None,
    },
}


def upgrade_record(record: dict[str, Any]) -> dict[str, Any]:
    """Lift one trace record to :data:`TRACE_SCHEMA_VERSION`.

    Fields that later schema versions added to the record's event type
    are filled with neutral defaults; fields already present are kept
    verbatim.  Returns a new dict with ``"v"`` set to the current
    version (the input is not mutated).
    """
    out = dict(record)
    for field, default in _UPGRADE_DEFAULTS.get(
        record.get("event", ""), {}
    ).items():
        if field not in out:
            out[field] = default(record) if callable(default) else default
    out["v"] = TRACE_SCHEMA_VERSION
    return out


def iter_trace(
    path: str | Path, tolerant: bool = False
) -> Iterator[dict[str, Any]]:
    """Yield the records of a JSONL trace file, in order.

    ``tolerant=True`` skips unparseable lines instead of raising — the
    right mode for *live* files whose final line may be mid-write
    (the monitor and the exporters tail running sweeps).
    """
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                if not tolerant:
                    raise


def read_trace(
    path: str | Path,
    event: str | None = None,
    *,
    upgrade: bool = False,
    tolerant: bool = False,
) -> list[dict[str, Any]]:
    """Parse a JSONL trace, optionally filtering by ``event`` type.

    A single-version file older than the current schema reads fine
    (consumers opt into per-version field sets); a file whose records
    *disagree* on ``"v"`` — e.g. a resumed run written by newer code
    appending v5 records to a v4 file — silently yields inconsistent
    rows, so it raises :class:`TraceSchemaError` unless
    ``upgrade=True``, which lifts every record to the current schema
    via :func:`upgrade_record` (and also normalizes single-version old
    files).  ``tolerant=True`` additionally skips torn lines of a
    still-running trace.
    """
    records = []
    versions: set[Any] = set()
    for record in iter_trace(path, tolerant=tolerant):
        versions.add(record.get("v"))
        if event is None or record.get("event") == event:
            records.append(record)
    if len(versions) > 1 and not upgrade:
        raise TraceSchemaError(
            f"{path}: records span schema versions "
            f"{sorted(versions, key=str)} — pass upgrade=True to lift "
            f"them all to v{TRACE_SCHEMA_VERSION}, or re-record the run"
        )
    if upgrade:
        records = [upgrade_record(r) for r in records]
    return records
