"""One torn-tail rule for every reader of the fsync'd append logs.

The run journal (``read_journal``), the broker WAL (``recover_wal``)
and the complete-line tail that streams journals to the broker and
feeds the monitor (``tail_complete``) must agree on every way a file
can end: a crash mid-record, a record whose newline never landed, a
tail torn inside a multi-byte character, and real mid-file damage.
The lenient line parser those tails feed (``iter_records``) keeps
every object and skips everything else, damage included.
"""

import json

import pytest

from repro.core.resilience.journal import (
    JournalError,
    RunJournal,
    read_journal,
    tail_complete,
)
from repro.fleet.wal import WalError, iter_records, recover_wal

HEADER = {"event": "header", "v": 3}
COMMIT = {"event": "commit", "step": 0}
INTACT = b"".join(
    (json.dumps(r, sort_keys=True) + "\n").encode() for r in (HEADER, COMMIT)
)

#: (case, file bytes, records every reader keeps — None = corrupt)
CASES = [
    ("mid-json-tear", INTACT + b'{"event": "commit", "st', [HEADER, COMMIT]),
    ("no-trailing-newline", INTACT + b'{"event": "commit", "step": 1}',
     [HEADER, COMMIT]),
    ("non-utf8-tail", INTACT + b'{"event": "commit", "note": "\xc3\x28',
     [HEADER, COMMIT]),
    ("mid-file-garbage", INTACT + b"GARBAGE\n" + INTACT, None),
]


def _read_both(path):
    """``read_journal`` and ``recover_wal`` results, or the raised type."""
    try:
        journal = read_journal(path)
    except JournalError:
        journal = JournalError
    try:
        wal = recover_wal(path)[0]
    except WalError:
        wal = WalError
    return journal, wal


@pytest.mark.parametrize(
    "blob, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_readers_and_tail_agree(tmp_path, blob, expected):
    path = tmp_path / "cell.journal.jsonl"
    path.write_bytes(blob)
    journal, wal = _read_both(path)
    if expected is None:
        assert (journal, wal) == (JournalError, WalError)
    else:
        assert journal == wal == expected
        assert len(tail_complete(path)[0]) == recover_wal(path)[1]

    # What the tail ships replays exactly like the file it came from.
    data, reset, start = tail_complete(path)
    assert (reset, start) == (False, 0)
    shipped = tmp_path / "shipped.journal.jsonl"
    shipped.write_bytes(data)
    assert _read_both(shipped) == (journal, wal)


@pytest.mark.parametrize("line", [b"[1, 2]", b'"text"', b"42", b"null"])
def test_non_object_line_is_a_torn_tail_or_corrupt(tmp_path, line):
    """A parseable line that is not an object is treated like an
    unparseable one: dropped as the torn tail at the end of the file,
    corrupt anywhere else — by both readers."""
    path = tmp_path / "cell.journal.jsonl"
    path.write_bytes(INTACT + line + b"\n")
    assert _read_both(path) == ([HEADER, COMMIT], [HEADER, COMMIT])
    assert recover_wal(path)[1] == len(INTACT)
    path.write_bytes(INTACT + line + b"\n" + INTACT)
    assert _read_both(path) == (JournalError, WalError)


def test_run_journal_bytes_and_reopen(tmp_path):
    """The journal writes one sorted-key line per record on the shared
    log; a resume rewrite keeps exactly the kept records."""
    path = tmp_path / "run.journal.jsonl"
    with RunJournal.create(path, HEADER) as journal:
        journal.write(COMMIT)
        assert journal.bytes == len(INTACT)
    assert path.read_bytes() == INTACT
    with RunJournal.continue_from(path, [HEADER]) as journal:
        journal.write({"event": "resume"})
    assert read_journal(path) == [HEADER, {"event": "resume"}]
    assert not path.with_name(path.name + ".tmp").exists()


def test_iter_records_keeps_objects_and_skips_the_rest():
    """Blank, non-UTF-8, torn and non-object lines are skipped, from
    bytes or text alike; the objects keep their order."""
    blob = (
        INTACT + b"\n   \n[1, 2]\n\"text\"\n42\nnull\nGARBAGE\n"
        + b'{"event": "x", "note": "\xc3\x28"}\n'
        + b"[" * 100_000 + b"\n"
        + INTACT + b'{"event": "commit", "st'
    )
    assert list(iter_records(blob)) == [HEADER, COMMIT, HEADER, COMMIT]
    text = INTACT.decode() + "[1, 2]\r\n" + INTACT.decode()
    assert list(iter_records(text)) == [HEADER, COMMIT, HEADER, COMMIT]
    assert list(iter_records(b"")) == list(iter_records("")) == []
