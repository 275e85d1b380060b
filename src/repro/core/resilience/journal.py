"""Append-only, crash-safe run journal with bitwise replay.

Every record of a BO run — initial-design commits, loop proposals and
commits, final-verification commits — is appended to a JSONL journal
(atomic line writes, ``fsync`` per line, schema-versioned alongside the
trace schema).  A killed run resumes by *replaying* the journal through
the optimizer's ordinary ``_commit`` path and restoring the captured
RNG state, so the resumed run is **bitwise identical** to an
uninterrupted one:

- Floats survive exactly (``json`` emits the shortest round-tripping
  repr; non-finite values use explicit ``"NaN"``/``"Infinity"``
  sentinels so the file stays strict JSON).
- The generator state of the optimizer's ``numpy`` RNG (PCG64) is
  captured at every record.  Every loop step is journaled twice: a
  ``propose`` record (:func:`propose_record` — the chosen candidate,
  its Kriging-believer fantasy values per fidelity level, the modeled
  completion time and the post-selection RNG state) *before* the
  evaluation is submitted, and a ``commit`` record after its outcome
  is folded in.  Replay re-runs the GP *fit* before each proposal
  (warm-started hyperparameter trajectories are path-dependent, and
  restart jitter consumes the RNG), skips the selection and flow
  evaluation, then hard-restores the journaled RNG state — cheaper
  than the run, yet state-identical to it.
- A crash can only truncate the final line; :func:`read_journal`
  tolerates a torn tail.  Any journal prefix is a consistent snapshot:
  proposals without a matching commit are exactly the pending set,
  resubmitted verbatim on resume — in every loop mode, a half-filled
  round barrier included (:func:`build_async_replay_plan`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.fleet.wal import durable_replace
from repro.hlsim.reports import Fidelity, FlowResult, StageReport

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "RunJournal",
    "AsyncReplayPlan",
    "build_async_replay_plan",
    "commit_record",
    "propose_record",
    "propose_kwargs",
    "read_journal",
    "tail_complete",
    "serialize_result",
    "deserialize_result",
    "settings_fingerprint",
]

#: Bump when a journal field is added, removed or changes meaning.
#: v2 added the async-pipeline ``propose`` event plus the
#: ``async_engine``/``inflight_target`` fingerprint fields; v3 journals
#: every loop mode as propose/commit pairs and drops the commit
#: record's ``round`` field.
JOURNAL_SCHEMA_VERSION = 3

#: Settings that shape the optimization *trajectory* — a resumed run
#: must share all of them with the journaled run or bitwise identity is
#: off the table.  Wall-clock-only knobs (worker counts, timeouts,
#: backoff delays) are deliberately absent.
_FINGERPRINT_FIELDS = (
    "n_init",
    "n_iter",
    "n_mc_samples",
    "candidate_pool",
    "refit_every",
    "invalid_penalty",
    "reference_margin",
    "correlated",
    "nonlinear",
    "cost_aware",
    "final_verification",
    "n_restarts",
    "max_opt_iter",
    "cache_predictions",
    "warm_start",
    "batch_size",
    "async_engine",
    "inflight_target",
    # Derived: the adaptive controller's upper bound (requested
    # ``eval_workers``) shapes async trajectories, so it is pinned for
    # async runs — but stays ``None`` for sync runs, where worker count
    # remains a wall-clock-only knob and resume across counts is fine.
    "inflight_cap",
    "seed",
    "retry_max_attempts",
    "degrade_on_failure",
    "punish_on_failure",
)

_REPORT_FIELDS = (
    "stage",
    "latency_cycles",
    "clock_ns",
    "lut",
    "ff",
    "dsp",
    "bram18",
    "power_w",
    "lut_util",
    "valid",
    "runtime_s",
)


class JournalError(ValueError):
    """The journal cannot seed a resume (missing/corrupt/mismatched)."""


# ----------------------------------------------------------------------
# exact-float JSON
# ----------------------------------------------------------------------


def _encode_float(value: float) -> float | str:
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float(value)


def _decode_float(value: Any) -> float:
    if isinstance(value, str):
        return float(value)  # "NaN" / "Infinity" / "-Infinity"
    return float(value)


# ----------------------------------------------------------------------
# record builders
# ----------------------------------------------------------------------


def settings_fingerprint(settings) -> dict[str, Any]:
    """Trajectory-shaping settings as a JSON-able dict."""
    out: dict[str, Any] = {}
    for name in _FINGERPRINT_FIELDS:
        value = getattr(settings, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def serialize_result(result: FlowResult) -> dict[str, Any]:
    reports = []
    for report in result.reports:
        row: dict[str, Any] = {}
        for name in _REPORT_FIELDS:
            value = getattr(report, name)
            if name == "stage":
                row[name] = int(value)
            elif name == "valid":
                row[name] = bool(value)
            else:
                row[name] = _encode_float(value)
        reports.append(row)
    return {
        "reports": reports,
        "total_runtime_s": _encode_float(result.total_runtime_s),
    }


def deserialize_result(payload: dict[str, Any]) -> FlowResult:
    reports = []
    for row in payload["reports"]:
        kwargs: dict[str, Any] = {}
        for name in _REPORT_FIELDS:
            value = row[name]
            if name == "stage":
                kwargs[name] = Fidelity(int(value))
            elif name == "valid":
                kwargs[name] = bool(value)
            else:
                kwargs[name] = _decode_float(value)
        reports.append(StageReport(**kwargs))
    return FlowResult(
        reports=tuple(reports),
        total_runtime_s=_decode_float(payload["total_runtime_s"]),
    )


def commit_record(
    *,
    phase: str,
    step: int,
    config_index: int,
    fidelity: Fidelity,
    requested_fidelity: Fidelity,
    acquisition: float,
    result: FlowResult,
    rng_state: dict,
    degraded: bool = False,
    failed: bool = False,
    attempts: int = 1,
    wasted_runtime_s: float = 0.0,
) -> dict[str, Any]:
    record = {
        "v": JOURNAL_SCHEMA_VERSION,
        "event": "commit",
        "phase": phase,
        "step": int(step),
        "config_index": int(config_index),
        "fidelity": int(fidelity),
        "requested_fidelity": int(requested_fidelity),
        "acquisition": _encode_float(float(acquisition)),
        "degraded": bool(degraded),
        "failed": bool(failed),
        "attempts": int(attempts),
        "wasted_runtime_s": _encode_float(float(wasted_runtime_s)),
        "rng_state": rng_state,
    }
    record.update(serialize_result(result))
    return record


def commit_kwargs(record: dict[str, Any]) -> dict[str, Any]:
    """A journaled commit as keyword arguments for ``CorrelatedMFBO._commit``."""
    return {
        "index": int(record["config_index"]),
        "fidelity": Fidelity(int(record["fidelity"])),
        "result": deserialize_result(record),
        "acquisition": _decode_float(record["acquisition"]),
        "step": int(record["step"]),
        "requested": Fidelity(int(record["requested_fidelity"])),
        "degraded": bool(record["degraded"]),
        "failed": bool(record["failed"]),
        "attempts": int(record["attempts"]),
        "wasted_runtime_s": _decode_float(record["wasted_runtime_s"]),
    }


def propose_record(
    *,
    step: int,
    config_index: int,
    fidelity: Fidelity,
    acquisition: float,
    fantasy: Any,
    fantasy_levels: dict,
    eta_s: float,
    sim_s: float,
    target: int,
    pool_size: int,
    rng_state: dict,
) -> dict[str, Any]:
    """One loop proposal, journaled *before* submission.

    ``fantasy`` is the believer mean at the chosen fidelity and
    ``fantasy_levels`` the per-level believer means the evaluation will
    fill — journaled verbatim so replay can re-condition the stack on
    exactly the fantasies the live run saw, without re-deriving them
    from a stack mid-replay.  ``rng_state`` is captured *after* the
    selection consumed the generator.
    """
    return {
        "v": JOURNAL_SCHEMA_VERSION,
        "event": "propose",
        "phase": "loop",
        "step": int(step),
        "config_index": int(config_index),
        "fidelity": int(fidelity),
        "acquisition": _encode_float(float(acquisition)),
        "fantasy": [_encode_float(float(v)) for v in fantasy],
        "fantasy_levels": {
            str(int(level)): [_encode_float(float(v)) for v in values]
            for level, values in fantasy_levels.items()
        },
        "eta_s": _encode_float(float(eta_s)),
        "sim_s": _encode_float(float(sim_s)),
        "target": int(target),
        "pool_size": int(pool_size),
        "rng_state": rng_state,
    }


def propose_kwargs(record: dict[str, Any]) -> dict[str, Any]:
    """A journaled proposal, decoded (fantasies as plain float lists)."""
    return {
        "step": int(record["step"]),
        "config_index": int(record["config_index"]),
        "fidelity": Fidelity(int(record["fidelity"])),
        "acquisition": _decode_float(record["acquisition"]),
        "fantasy": [_decode_float(v) for v in record["fantasy"]],
        "fantasy_levels": {
            Fidelity(int(level)): [_decode_float(v) for v in values]
            for level, values in record["fantasy_levels"].items()
        },
        "eta_s": _decode_float(record["eta_s"]),
        "sim_s": _decode_float(record["sim_s"]),
        "target": int(record["target"]),
        "pool_size": int(record["pool_size"]),
        "rng_state": record["rng_state"],
    }


# ----------------------------------------------------------------------
# the journal file
# ----------------------------------------------------------------------


class RunJournal:
    """Append-only JSONL journal with per-line flush + fsync."""

    def __init__(self, path: str | Path, _handle: IO[str] | None = None):
        self.path = Path(path)
        if _handle is not None:
            self._handle = _handle
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        self.records_written = 0

    @classmethod
    def create(cls, path: str | Path, header: dict[str, Any]) -> "RunJournal":
        """Start a fresh journal (truncating any existing file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(path, _handle=path.open("w"))
        journal.write(header)
        return journal

    @classmethod
    def continue_from(
        cls,
        path: str | Path,
        records: list[dict[str, Any]],
    ) -> "RunJournal":
        """Materialize ``records`` (header + kept prefix + resume marker)
        atomically, then open the file for appending.

        Used on resume: the kept prefix is rewritten verbatim through
        :func:`repro.fleet.wal.durable_replace` (temp file, fsync,
        rename, directory fsync), so a crash during resume never leaves
        a half-rewritten journal behind.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)

        def write(handle) -> None:
            for record in records:
                handle.write((_dumps(record) + "\n").encode("utf-8"))

        durable_replace(path, write)
        journal = cls(path)
        journal.records_written = len(records)
        return journal

    def write(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError(f"journal {self.path} is closed")
        self._handle.write(_dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _dumps(record: dict[str, Any]) -> str:
    # allow_nan=False: every float field must already be sentinel-encoded
    # — a raw NaN slipping through would otherwise produce non-JSON.
    return json.dumps(record, sort_keys=True, allow_nan=False)


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """All parseable records; a torn trailing line is silently dropped.

    A crash mid-``write`` can only corrupt the final line (each write is
    one flushed+fsync'd append); garbage *before* the last line means
    the file was damaged by something else, and is an error.
    """
    records: list[dict[str, Any]] = []
    path = Path(path)
    with path.open() as handle:
        lines = handle.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail from a mid-write crash
            raise JournalError(
                f"{path}: corrupt journal line {i + 1} (not last — the "
                f"file was damaged outside a normal crash)"
            ) from None
    return records


def tail_complete(
    path: str | Path, offset: int = 0
) -> tuple[bytes, bool, int]:
    """``(data, reset, start)`` — new complete-line bytes past ``offset``.

    The streaming primitive behind mid-cell resume: a fleet worker
    tails its cell journal with this between heartbeats, shipping only
    whole lines (a half-written tail stays local until its fsync
    lands).  A file *smaller* than ``offset`` means
    :meth:`RunJournal.continue_from` rewrote it — the caller must
    restart the stream, signalled by ``reset=True`` and ``start == 0``.
    A missing file yields no data.  ``start + len(data)`` is the next
    offset once the chunk is acknowledged.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return b"", False, offset
    start = offset
    reset = False
    if size < start:
        start = 0
        reset = True
    if size == start and not reset:
        return b"", False, start
    with path.open("rb") as handle:
        handle.seek(start)
        data = handle.read()
    cut = data.rfind(b"\n")
    data = data[: cut + 1] if cut >= 0 else b""
    return data, reset, start


# ----------------------------------------------------------------------
# replay planning
# ----------------------------------------------------------------------


def _check_header(records: list[dict[str, Any]], settings) -> dict[str, Any]:
    """Validate version + settings fingerprint; return the header."""
    if not records or records[0].get("event") != "header":
        raise JournalError("journal has no header record")
    header = records[0]
    if header.get("v") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal schema v{header.get('v')} != "
            f"v{JOURNAL_SCHEMA_VERSION} (cannot resume across versions)"
        )
    fingerprint = settings_fingerprint(settings)
    if header.get("fingerprint") != fingerprint:
        theirs = header.get("fingerprint") or {}
        diff = sorted(
            k
            for k in set(theirs) | set(fingerprint)
            if theirs.get(k) != fingerprint.get(k)
        )
        raise JournalError(
            "journal settings differ from the resuming run's "
            f"(bitwise resume impossible); mismatched: {', '.join(diff)}"
        )
    return header


@dataclass
class AsyncReplayPlan:
    """What to replay and where the live loop picks up.

    Every journal prefix is consistent.  ``pending`` holds the
    proposals with no matching commit (in step order) — the resumed
    loop resubmits them verbatim and continues on the journaled
    simulation clock.
    """

    init_records: tuple[dict, ...]
    #: Loop ``propose``/``commit`` records in journal (= live) order.
    loop_records: tuple[dict, ...]
    verify_records: tuple[dict, ...]
    kept_records: list[dict]  # header + kept records, verbatim
    pending: tuple[dict, ...]  # propose records lacking a commit
    committed: int
    next_step: int
    replayed: int
    dropped: int
    verify_attempted: frozenset[int]
    loop_done: bool = False


def build_async_replay_plan(
    records: list[dict[str, Any]],
    settings,
    expected_init: int,
) -> AsyncReplayPlan:
    """Partition a journal into a bitwise-replayable prefix.

    ``expected_init`` is the number of initial-design commits a
    complete initial phase writes (the optimizer knows the space size).
    Validates that loop proposals carry contiguous steps from 0 in
    journal order and that every loop commit refers to an
    already-journaled proposal.  An incomplete initial design drops
    everything (the resume is then a fresh run).
    """
    header = _check_header(records, settings)

    init = [
        r for r in records
        if r.get("event") == "commit" and r["phase"] == "init"
    ]
    loop = [
        r for r in records
        if r.get("event") in ("commit", "propose") and r["phase"] == "loop"
    ]
    verify = [
        r for r in records
        if r.get("event") == "commit" and r["phase"] == "verify"
    ]
    total = len(init) + len(loop) + len(verify)

    if len(init) < expected_init:
        # Crash during the initial design: nothing replayable (the init
        # sampling is one RNG transaction; partial prefixes are not
        # restart points).
        return AsyncReplayPlan(
            init_records=(),
            loop_records=(),
            verify_records=(),
            kept_records=[header],
            pending=(),
            committed=0,
            next_step=0,
            replayed=0,
            dropped=total,
            verify_attempted=frozenset(),
        )

    proposed: dict[int, dict] = {}
    committed_steps: list[int] = []
    for record in loop:
        step = int(record["step"])
        if record["event"] == "propose":
            if step != len(proposed):
                raise JournalError(
                    f"journal propose steps are not contiguous (got "
                    f"{step}, expected {len(proposed)})"
                )
            proposed[step] = record
        else:
            if step not in proposed:
                raise JournalError(
                    f"journal commit at step {step} precedes its proposal"
                )
            if step in committed_steps:
                raise JournalError(
                    f"journal commits step {step} twice"
                )
            committed_steps.append(step)

    pending = tuple(
        proposed[step] for step in sorted(proposed)
        if step not in committed_steps
    )
    attempted: frozenset[int] = frozenset()
    if verify:
        attempted = frozenset(r["config_index"] for r in verify)

    n_committed = len(committed_steps)
    kept = [header] + init + loop + verify
    return AsyncReplayPlan(
        init_records=tuple(init),
        loop_records=tuple(loop),
        verify_records=tuple(verify),
        kept_records=kept,
        pending=pending,
        committed=n_committed,
        next_step=len(proposed),
        replayed=len(init) + len(loop) + len(verify),
        dropped=0,
        verify_attempted=attempted,
        loop_done=bool(verify) or n_committed >= settings.n_iter,
    )
