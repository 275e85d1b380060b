"""Append-only JSONL logs: fsync'd appends, torn-tail tolerant reads.

Two logs in the reproduction share one durability contract, and this
module is its only implementation:

- the broker's write-ahead log ``broker.fleet.jsonl`` (:class:`WalWriter`)
  — the broker's *only* durable state.  Every queue/lease/completion
  transition is appended as one JSON line (monotonic ``seq``,
  wall-clock ``t``) and fsync'd before the HTTP response leaves, so a
  SIGKILL'd broker restarted with ``--state-dir`` replays the log and
  comes back with queues, leases and completed results intact;
- the optimizer's run journal
  (:class:`repro.core.resilience.journal.RunJournal`), one per BO cell.

The contract:

- **Append** (:class:`AppendLog`): each already-encoded line is one
  write, flushed and fsync'd, so a crash can only tear the *final*
  line.  Whole-file rewrites (WAL compaction, journal resume) go
  through :func:`durable_replace` and never leave a mix.
- **Read** (:func:`scan_wal`): an unterminated final line, or one that
  is not a JSON object, is a torn tail and is dropped — the record it
  carried was never acknowledged, so dropping it restores the exact
  pre-write state.
  Garbage *before* the last line means the file was damaged outside a
  normal crash and raises :class:`WalError`.
- **Tail** (:func:`tail_complete`): complete-line bytes past an
  offset, for the fleet worker's journal streaming and the monitor;
  :func:`iter_records` parses such bytes leniently (anything that is
  not one JSON object per line is skipped, never raised).

**Bounded growth.**  Recovery streams the file one line at a time
(:func:`scan_wal` is a generator — memory is bounded by the live
state, not the log length), and :meth:`WalWriter.rotate` atomically
replaces the log with a compact snapshot while the ``seq`` numbering
continues.

Stdlib-only on purpose: the broker imports nothing heavier than
:mod:`repro.fleet.wire`, and the monitor tails logs through it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

__all__ = [
    "AppendLog",
    "WalError",
    "WalWriter",
    "durable_replace",
    "iter_records",
    "read_wal",
    "recover_wal",
    "scan_wal",
    "tail_complete",
]


class WalError(ValueError):
    """The log cannot seed a replay (mid-file corruption)."""


def read_wal(path: str | Path) -> list[dict[str, Any]]:
    """All complete records; a torn trailing line is silently dropped."""
    return recover_wal(path)[0]


def scan_wal(path: str | Path) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, valid_bytes)`` per complete record, streaming.

    ``valid_bytes`` is the byte offset just past that record: a
    rehydrating broker applies each record as it arrives (never holding
    the whole log in memory) and truncates the file at the last yielded
    offset, so a torn tail never becomes mid-file garbage for the next
    restart.  A line that is not one JSON object (unparseable, or a
    parseable array, string, number or null) raises :class:`WalError`
    on any line but the last; on the last line it is the torn tail and
    the iteration simply ends.
    """
    offset = 0
    bad_line: int | None = None
    with Path(path).open("rb") as handle:
        for i, raw in enumerate(handle):
            if bad_line is not None:
                raise WalError(
                    f"{path}: corrupt line {bad_line} (not last — the "
                    "file was damaged outside a normal crash)"
                )
            line = raw.strip()
            if not line:
                offset += len(raw)
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                record = None
            if not isinstance(record, dict):
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
    whole prefix at once; the broker itself streams.
    """
    records: list[dict[str, Any]] = []
    valid = 0
    for record, valid in scan_wal(path):
        records.append(record)
    return records, valid


def tail_complete(
    path: str | Path, offset: int = 0
) -> tuple[bytes, bool, int]:
    """``(data, reset, start)`` — new complete-line bytes past ``offset``.

    A half-written final line stays unread until its newline lands, so
    a reader never sees a record :func:`scan_wal` would drop as torn.
    A file *smaller* than ``offset`` was rewritten (journal resume,
    WAL compaction) — the caller must restart its stream, signalled by
    ``reset=True`` and ``start == 0``.  A missing file yields no data.
    ``start + len(data)`` is the next offset once the chunk is consumed.
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


def iter_records(data: bytes | str) -> Iterator[dict[str, Any]]:
    """Yield the JSON objects of newline-separated ``data``, leniently.

    The reader for logs another process writes (streamed journal
    segments, the monitor's tails, scraped series): a line that is
    blank, not UTF-8, unparseable (torn or foreign) or a JSON value
    other than an object is skipped, so a reader never crashes on what
    it reads.  Replay of the broker's own WAL uses :func:`scan_wal`,
    which treats mid-file garbage as damage instead.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    for line in data.splitlines():
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):  # UnicodeDecodeError too
            continue
        if isinstance(record, dict):
            yield record


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
    write removes the temp file.  Every whole-file rewrite in the
    package goes through here: log compaction and resume
    (:meth:`AppendLog.replace`), cell snapshots and streamed journal
    prefixes.
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


class AppendLog:
    """An append-only file of already-encoded lines, one fsync each.

    Callers keep their own record encoding; this class only owns the
    bytes on disk.  ``truncate=True`` starts the file empty.  ``bytes``
    tracks the current file size (no ``stat`` per append).

    ``observe_fsync`` (optional) is called with each fsync's duration
    in seconds, and ``last_fsync_wall`` holds the wall time of the most
    recent completed fsync (``None`` before the first).
    """

    def __init__(
        self,
        path: str | Path,
        truncate: bool = False,
        observe_fsync: Callable[[float], None] | None = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[bytes] | None = self.path.open(
            "wb" if truncate else "ab"
        )
        self.bytes = self.path.stat().st_size
        self.observe_fsync = observe_fsync
        self.last_fsync_wall: float | None = None

    def _open_handle(self) -> IO[bytes]:
        if self._handle is None:
            raise RuntimeError(f"log {self.path} is closed")
        return self._handle

    def append_line(self, data: bytes) -> None:
        """Write, flush and fsync one newline-terminated line."""
        handle = self._open_handle()
        handle.write(data)
        handle.flush()
        self._fsync(handle)
        self.bytes += len(data)

    def _fsync(self, handle: IO[bytes]) -> None:
        start = time.perf_counter()
        os.fsync(handle.fileno())
        self.last_fsync_wall = time.time()
        if self.observe_fsync is not None:
            self.observe_fsync(time.perf_counter() - start)

    def replace(self, lines: Iterable[bytes]) -> None:
        """Atomically rewrite the whole file as ``lines``, then keep
        appending after them (through :func:`durable_replace`)."""
        handle = self._open_handle()

        def write(out: IO[bytes]) -> None:
            for line in lines:
                out.write(line)

        durable_replace(self.path, write, fsync=self._fsync)
        handle.close()
        self._handle = self.path.open("ab")
        self.bytes = self.path.stat().st_size

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._fsync(self._handle)
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WalWriter(AppendLog):
    """The broker's WAL: one fsync'd ``seq``-first record per transition.

    ``start_seq`` continues a rehydrated log's sequence numbering so
    ``seq`` stays strictly monotonic across broker restarts.  The
    broker feeds its durability-tax histogram through
    ``observe_fsync`` and reports ``last_fsync_wall`` on ``/healthz``.
    """

    def __init__(
        self,
        path: str | Path,
        start_seq: int = 0,
        observe_fsync: Callable[[float], None] | None = None,
    ):
        super().__init__(path, observe_fsync=observe_fsync)
        self.seq = int(start_seq)

    def _encode(self, record: dict[str, Any]) -> bytes:
        line = json.dumps({"seq": self.seq, **record}, sort_keys=False)
        self.seq += 1
        return line.encode("utf-8") + b"\n"

    def append(self, record: dict[str, Any]) -> int:
        """Write one record (``seq`` assigned here); returns its seq."""
        self._open_handle()
        seq = self.seq
        self.append_line(self._encode(record))
        return seq

    def rotate(self, records: list[dict[str, Any]]) -> None:
        """Atomically replace the log with ``records`` (compaction).

        A crash at any point leaves either the old log or the complete
        new one — never a mix.  ``seq`` keeps counting: the snapshot's
        records take the next numbers, and later appends follow them.
        """
        self.replace(self._encode(record) for record in records)
