"""Write-ahead log for the fleet broker: fsync'd, torn-tail tolerant.

The broker's ``broker.fleet.jsonl`` is not just a dashboard feed — it
is the broker's *only* durable state.  Every queue/lease/completion
transition is appended as one JSON line (monotonic ``seq``, wall-clock
``t``) and fsync'd before the HTTP response leaves, so a SIGKILL'd
broker restarted with ``--state-dir`` replays the log and comes back
with queues, leases (TTL clocks resumed against wall time) and
completed results intact.

Crash semantics mirror :func:`repro.core.resilience.journal.
read_journal`: each append is a single flushed+fsync'd write, so a
crash can only tear the *final* line — :func:`scan_wal` silently drops
a torn tail (that transition's HTTP response never left, so the caller
retries it), while garbage before the last line means the file was
damaged outside a normal crash and raises :class:`WalError`.

**Bounded growth.**  Recovery streams the file one line at a time
(:func:`scan_wal` is a generator — memory is bounded by the live
state, not the log length), and :meth:`WalWriter.rotate` atomically
replaces the log with a compact snapshot while the ``seq`` numbering
continues — the broker calls it when the log outgrows its compaction
threshold, so payload-bearing records never accumulate without bound.

Stdlib-only on purpose: the broker imports nothing heavier than
:mod:`repro.fleet.wire`, and the monitor tails the same file with its
own parser (which already re-reads a file that shrinks under it).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Callable, Iterator

__all__ = [
    "WalError",
    "WalWriter",
    "durable_replace",
    "read_wal",
    "recover_wal",
    "scan_wal",
]


class WalError(ValueError):
    """The WAL cannot seed a rehydration (mid-file corruption)."""


def read_wal(path: str | Path) -> list[dict[str, Any]]:
    """All parseable records; a torn trailing line is silently dropped.

    A torn tail is the normal signature of a crash mid-append — the
    transition it recorded never acknowledged, so dropping it restores
    the exact pre-write state.  Corruption *before* the last line is an
    error: single-writer fsync'd appends cannot produce it.
    """
    return recover_wal(path)[0]


def scan_wal(path: str | Path) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, valid_bytes)`` per complete record, streaming.

    ``valid_bytes`` is the byte offset just past that record: a
    rehydrating broker applies each record as it arrives (never holding
    the whole log in memory) and truncates the file at the last yielded
    offset, so a torn tail never becomes mid-file garbage for the next
    restart.  A parse failure on any line but the last raises
    :class:`WalError`; on the last line it is the torn tail and the
    iteration simply ends.
    """
    offset = 0
    bad_line: int | None = None
    with Path(path).open("rb") as handle:
        for i, raw in enumerate(handle):
            if bad_line is not None:
                raise WalError(
                    f"{path}: corrupt WAL line {bad_line} (not last — the "
                    "file was damaged outside a normal crash)"
                )
            line = raw.strip()
            if not line:
                offset += len(raw)
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                bad_line = i + 1  # torn tail unless another line follows
                continue
            if not raw.endswith(b"\n"):
                # Parseable but unterminated final line: the fsync never
                # finished, so treat it as torn too — drop it.
                break
            offset += len(raw)
            yield record, offset


def recover_wal(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """``(records, valid_bytes)`` — the parseable prefix and its length.

    Convenience wrapper over :func:`scan_wal` for callers that want the
    whole prefix at once (tests, tooling); the broker itself streams.
    """
    records: list[dict[str, Any]] = []
    valid = 0
    for record, valid in scan_wal(path):
        records.append(record)
    return records, valid


def durable_replace(
    path: Path,
    write: Callable[[IO[bytes]], None],
    fsync: Callable[[IO[bytes]], None] | None = None,
) -> None:
    """Atomically replace ``path`` with the bytes ``write`` produces.

    ``write`` fills a sibling temp file, which is flushed and fsync'd
    (through ``fsync`` when given, e.g. a timed wrapper), renamed over
    ``path``, and then the directory entry itself is fsync'd — without
    that last step a power cut can undo the rename.  A crash at any
    point leaves either the old file or the complete new one; a failed
    write removes the temp file.  Shared by
    :meth:`WalWriter.rotate` and the optimizer journal's resume
    rewrite (:meth:`repro.core.resilience.journal.RunJournal.continue_from`).
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            write(handle)
            handle.flush()
            if fsync is None:
                os.fsync(handle.fileno())
            else:
                fsync(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class WalWriter:
    """Append-only JSONL writer: one fsync'd record per transition.

    ``start_seq`` continues a rehydrated log's sequence numbering so
    ``seq`` stays strictly monotonic across broker restarts; ``bytes``
    tracks the current file size so the broker can trigger compaction
    without a ``stat`` per append.

    ``observe_fsync`` (optional) is called with each append's fsync
    duration in seconds — the broker feeds its durability-tax
    histogram through it — and ``last_fsync_wall`` holds the wall time
    of the most recent completed fsync (``None`` before the first),
    surfaced by ``/healthz`` as ``last_wal_fsync_age_s``.
    """

    def __init__(
        self,
        path: str | Path,
        start_seq: int = 0,
        observe_fsync=None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[bytes] | None = self.path.open("ab")
        self.seq = int(start_seq)
        self.bytes = self.path.stat().st_size
        self.observe_fsync = observe_fsync
        self.last_fsync_wall: float | None = None

    def _encode(self, record: dict[str, Any]) -> bytes:
        line = json.dumps({"seq": self.seq, **record}, sort_keys=False)
        self.seq += 1
        return line.encode("utf-8") + b"\n"

    def append(self, record: dict[str, Any]) -> int:
        """Write one record (``seq`` assigned here); returns its seq."""
        if self._handle is None:
            raise RuntimeError(f"WAL {self.path} is closed")
        seq = self.seq
        data = self._encode(record)
        self._handle.write(data)
        self._handle.flush()
        self._fsync(self._handle)
        self.bytes += len(data)
        return seq

    def _fsync(self, handle: IO[bytes]) -> None:
        start = time.perf_counter()
        os.fsync(handle.fileno())
        self.last_fsync_wall = time.time()
        if self.observe_fsync is not None:
            self.observe_fsync(time.perf_counter() - start)

    def rotate(self, records: list[dict[str, Any]]) -> None:
        """Atomically replace the log with ``records`` (compaction).

        The replacement goes through :func:`durable_replace`, so a
        crash at any point leaves either the old log or the complete
        new one — never a mix.  ``seq`` keeps counting: the snapshot's
        records take the next numbers, and later appends follow them.
        """
        if self._handle is None:
            raise RuntimeError(f"WAL {self.path} is closed")

        def write(out: IO[bytes]) -> None:
            for record in records:
                out.write(self._encode(record))

        durable_replace(self.path, write, fsync=self._fsync)
        self._handle.close()
        self._handle = self.path.open("ab")
        self.bytes = self.path.stat().st_size

    def close(self) -> None:
        """Flush, fsync and close — the graceful-shutdown tail sync."""
        if self._handle is not None:
            self._handle.flush()
            self._fsync(self._handle)
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
