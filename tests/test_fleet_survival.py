"""Fleet survivability tests (ISSUE 9).

Covers the broker's write-ahead journal (torn-tail recovery, including
the property that truncating the WAL at *every byte offset* of its
tail record rehydrates to either the pre-write or post-write state,
never a corrupt hybrid), crash/restart rehydration of queues, leases,
results and streamed journal segments, the authenticated wire
(missing/wrong HMAC → 401/:class:`WireAuthError` on broker, worker and
scheduler paths, health routes stay open), the hardened retry client
(idempotent retries, fatal errors never retried, reconnect reporting),
the deterministic :class:`FaultyTransport` chaos injector, mid-cell
resume plumbing (`tail_complete` streaming, worker-side prefix fetch),
graceful broker shutdown (SIGTERM → drained, WAL'd, port file
removed), the WAL's on-disk bytes (a golden fixture) and the property
that replaying the WAL rebuilds the live broker's state.
"""

import base64
import contextlib
import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.resilience.faults import FaultyTransport
from repro.core.resilience.journal import tail_complete
from repro.experiments.parallel import Job
from repro.fleet.broker import FleetBroker, serve
from repro.fleet.client import BrokerClient, WireAuthError
from repro.fleet.schedule import SessionSpec, run_schedule
from repro.fleet.wal import WalError, WalWriter, read_wal, recover_wal
from repro.fleet.wire import (
    AUTH_HEADER,
    AUTH_KEY_ENV,
    AUTH_KEY_FILE_ENV,
    NonceCache,
    load_auth_key,
    sign_request,
    verify_request_auth,
)
from repro.fleet.worker import FleetWorker, _JournalStream

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

KEY = b"fleet-test-shared-key"

#: One run-journal commit line as the optimizer's journal writes it
#: (sort_keys + default separators — the broker counts this marker).
COMMIT_LINE = b'{"event": "commit", "step": 0}\n'


def _noop(value: int) -> int:
    return value


def _fleet_env(**extra) -> dict:
    env = dict(os.environ)
    parts = [SRC_ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.update(extra)
    return env


@contextlib.contextmanager
def _running(server):
    """Serve an in-process broker on a daemon thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.broker.close()
        server.server_close()
        thread.join(timeout=5.0)


def _start_broker_proc(tmp_path, *extra_args, name="broker.port", env=None):
    """Launch ``python -m repro.fleet.broker`` and wait for its port."""
    port_file = tmp_path / name
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet.broker",
            "--host", "127.0.0.1", "--port", "0",
            "--port-file", str(port_file),
            *extra_args,
        ],
        env=env or _fleet_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read().decode() if proc.stdout else ""
            raise RuntimeError(f"broker did not start: {out}")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}", port_file


# ----------------------------------------------------------------------
# write-ahead journal primitives
# ----------------------------------------------------------------------


class TestWal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            assert wal.append({"event": "a"}) == 0
            assert wal.append({"event": "b", "n": 2}) == 1
        records = read_wal(path)
        assert [r["event"] for r in records] == ["a", "b"]
        assert [r["seq"] for r in records] == [0, 1]

    def test_start_seq_continues_numbering(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            wal.append({"event": "a"})
        with WalWriter(path, start_seq=1) as wal:
            assert wal.append({"event": "b"}) == 1
        assert [r["seq"] for r in read_wal(path)] == [0, 1]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            wal.append({"event": "a"})
            wal.append({"event": "b"})
        intact = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(b'{"seq": 2, "event": "c", "tr')  # torn write
        records, valid = recover_wal(path)
        assert [r["event"] for r in records] == ["a", "b"]
        assert valid == intact

    def test_unterminated_final_line_is_dropped(self, tmp_path):
        # A crash can land exactly between the JSON text and its
        # newline — the record parses but is not known complete.
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            wal.append({"event": "a"})
        intact = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(b'{"seq": 1, "event": "b"}')  # no trailing \n
        records, valid = recover_wal(path)
        assert [r["event"] for r in records] == ["a"]
        assert valid == intact

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b'{"seq": 0, "event": "a"}\nnot json\n{"seq": 2}\n')
        with pytest.raises(WalError):
            recover_wal(path)

    def test_rotate_replaces_log_and_continues_seq(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            for i in range(10):
                wal.append({"event": "grow", "i": i})
            grown = path.stat().st_size
            wal.rotate([{"event": "snapshot"}])
            assert path.stat().st_size < grown
            assert wal.bytes == path.stat().st_size
            wal.append({"event": "after"})
        records = read_wal(path)
        assert [r["event"] for r in records] == ["snapshot", "after"]
        assert [r["seq"] for r in records] == [10, 11]
        assert not path.with_name(path.name + ".compact").exists()


# ----------------------------------------------------------------------
# torn-tail property: truncation at every byte offset
# ----------------------------------------------------------------------


def _state_snapshot(wal_bytes: bytes, tmp_path: Path, tag: str) -> str:
    """Rehydrate a broker from raw WAL bytes; return a canonical state."""
    state = tmp_path / f"state-{tag}"
    state.mkdir()
    (state / "broker.fleet.jsonl").write_bytes(wal_bytes)
    broker = FleetBroker(lease_ttl_s=300.0, state_dir=state)
    try:
        stats = broker.stats()
    finally:
        broker.close()
    keep = (
        "queues", "workers", "expiries", "duplicates", "tasks", "done",
        "restarts", "streams",
    )
    return json.dumps({k: stats[k] for k in keep}, sort_keys=True)


class TestTornTailProperty:
    def test_every_tail_truncation_is_pre_or_post_state(self, tmp_path):
        """Chop the WAL at every byte offset of its final record: the
        rehydrated broker must equal the pre-write state (record lost)
        or the post-write state (record landed) — never a hybrid."""
        gen = tmp_path / "gen"
        gen.mkdir()
        broker = FleetBroker(lease_ttl_s=300.0, state_dir=gen)
        broker.create_queue("q")
        broker.submit("q", b"payload-one" * 8, task_id="t1")
        broker.submit("q", b"payload-two" * 8, task_id="t2")
        broker.register("w0", {"cpus": 4})
        grant = broker.lease("w0", ["q"])
        assert grant["task_id"] == "t1"
        broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE, offset=0)
        # The tail record under test: a meaty completion (clears the
        # stream, dequeues the lease, records the result payload).
        broker.complete("t1", b"result-bytes" * 16, worker="w0", exec_s=0.25)
        broker.close()

        raw = (gen / "broker.fleet.jsonl").read_bytes()
        lines = raw.splitlines(keepends=True)
        assert len(lines) >= 7
        base = b"".join(lines[:-1])
        pre = _state_snapshot(base, tmp_path, "pre")
        post = _state_snapshot(raw, tmp_path, "post")
        assert pre != post  # the tail record must actually matter
        for cut in range(len(base), len(raw) + 1):
            snap = _state_snapshot(raw[:cut], tmp_path, f"cut{cut}")
            assert snap in (pre, post), f"hybrid state at byte {cut}"
            if cut < len(raw):  # any partial tail reads as pre-write
                assert snap == pre, f"partial record applied at byte {cut}"


# ----------------------------------------------------------------------
# crash/restart rehydration
# ----------------------------------------------------------------------


class TestRehydration:
    def test_restart_restores_queues_results_and_streams(self, tmp_path):
        broker = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        broker.create_queue("q")
        broker.submit("q", b"p1", task_id="t1")
        broker.submit("q", b"p2", task_id="t2")
        broker.register("w0")
        grant = broker.lease("w0", ["q"])
        broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE, offset=0)
        broker.close()  # simulated crash: no shutdown record

        revived = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        try:
            stats = revived.stats()
            assert stats["tasks"] == 2
            assert stats["restarts"] == 1
            assert stats["queues"]["q"]["leased"] == 1
            assert stats["queues"]["q"]["queued"] == 1
            # the rehydrated lease is still renewable
            assert revived.heartbeat(grant["lease_id"]) is True
            # the streamed prefix survived the restart
            data, commits = revived.journal("t1")
            assert data == COMMIT_LINE and commits == 1
            # t2 is still leasable
            second = revived.lease("w1", ["q"])
            assert second["task_id"] == "t2"
            assert revived.healthz()["restarts"] == 1
        finally:
            revived.close()

        third = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        try:
            assert third.stats()["restarts"] == 2
        finally:
            third.close()

    def test_non_object_wal_line(self, tmp_path):
        """A parseable non-object WAL line is a torn tail at the end of
        the log (dropped and truncated) and corruption mid-file
        (``WalError``), never an ``AttributeError`` from replay."""
        gen = tmp_path / "gen"
        gen.mkdir()
        broker = FleetBroker(lease_ttl_s=300.0, state_dir=gen)
        broker.create_queue("q")
        broker.submit("q", b"p1", task_id="t1")
        broker.close()
        raw = (gen / "broker.fleet.jsonl").read_bytes()
        intact = _state_snapshot(raw, tmp_path, "intact")

        assert _state_snapshot(raw + b"[1, 2]\n", tmp_path, "tail") == intact
        tail_wal = tmp_path / "state-tail" / "broker.fleet.jsonl"
        assert tail_wal.read_bytes().startswith(raw)
        assert b"[1, 2]" not in tail_wal.read_bytes()

        first, rest = raw.split(b"\n", 1)
        with pytest.raises(WalError):
            _state_snapshot(first + b"\n[1, 2]\n" + rest, tmp_path, "mid")

    def test_completed_result_survives_restart(self, tmp_path):
        broker = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        broker.create_queue("q")
        broker.register("w0")
        broker.submit("q", b"p", task_id="t1")
        grant = broker.lease("w0", ["q"])
        broker.complete(
            "t1", b"the-outcome", lease_id=grant["lease_id"], worker="w0",
            exec_s=0.5,
        )
        broker.close()

        revived = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        try:
            state, payload = revived.result("t1")
            assert state == "done" and payload == b"the-outcome"
            assert revived.stats()["workers"]["w0"]["completed"] == 1
        finally:
            revived.close()

    def test_submit_is_idempotent_on_task_id(self, tmp_path):
        broker = FleetBroker(state_dir=tmp_path)
        try:
            broker.create_queue("q")
            assert broker.submit("q", b"p", task_id="t1") == "t1"
            assert broker.submit("q", b"p", task_id="t1") == "t1"
            assert broker.stats()["tasks"] == 1
        finally:
            broker.close()

    def test_lease_ttl_clock_resumes_across_restart(self, tmp_path):
        wall = [1000.0]
        broker = FleetBroker(
            lease_ttl_s=5.0, state_dir=tmp_path, wallclock=lambda: wall[0]
        )
        broker.create_queue("q")
        broker.submit("q", b"p", task_id="t1")
        grant = broker.lease("w0", ["q"])  # expires at wall 1005
        broker.close()

        # Outage shorter than the remaining TTL: the lease is honored.
        wall[0] = 1002.0
        revived = FleetBroker(
            lease_ttl_s=5.0, state_dir=tmp_path, wallclock=lambda: wall[0]
        )
        try:
            assert revived.heartbeat(grant["lease_id"]) is True
        finally:
            revived.close()

    def test_lease_expired_by_long_outage_is_reissued(self, tmp_path):
        wall = [1000.0]
        broker = FleetBroker(
            lease_ttl_s=5.0, state_dir=tmp_path, wallclock=lambda: wall[0]
        )
        broker.create_queue("q")
        broker.submit("q", b"p", task_id="t1")
        first = broker.lease("w0", ["q"])
        broker.heartbeat(first["lease_id"], segment=COMMIT_LINE, offset=0)
        broker.close()

        wall[0] = 2000.0  # far past the persisted expiry
        revived = FleetBroker(
            lease_ttl_s=5.0, state_dir=tmp_path, wallclock=lambda: wall[0]
        )
        try:
            second = revived.lease("w1", ["q"])
            assert second is not None
            assert second["task_id"] == "t1"
            assert second["attempt"] == 2
            assert revived.heartbeat(first["lease_id"]) is False
            # the expired lease's stream is kept: it is the resume prefix
            data, commits = revived.journal("t1", grant=True)
            assert data == COMMIT_LINE and commits == 1
            assert revived.stats()["resume_grants"] == 1
        finally:
            revived.close()


# ----------------------------------------------------------------------
# segment streaming semantics
# ----------------------------------------------------------------------


class TestSegmentStream:
    def _leased(self, broker):
        broker.create_queue("q")
        broker.submit("q", b"p", task_id="t1")
        return broker.lease("w0", ["q"])

    def test_offset_deduplicates_redelivery(self):
        broker = FleetBroker()
        grant = self._leased(broker)
        lease = grant["lease_id"]
        assert broker.heartbeat(lease, segment=COMMIT_LINE, offset=0)
        # the same bytes land again (retried heartbeat, lost response)
        assert broker.heartbeat(lease, segment=COMMIT_LINE, offset=0)
        data, commits = broker.journal("t1")
        assert data == COMMIT_LINE and commits == 1
        # a genuinely new chunk appends
        more = b'{"event": "commit", "step": 1}\n'
        assert broker.heartbeat(lease, segment=more, offset=len(COMMIT_LINE))
        data, commits = broker.journal("t1")
        assert data == COMMIT_LINE + more and commits == 2

    def test_gap_offset_is_dropped(self):
        broker = FleetBroker()
        grant = self._leased(broker)
        assert broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE,
                                offset=500)
        assert broker.journal("t1") == (b"", 0)

    def test_reset_replaces_buffer(self):
        broker = FleetBroker()
        grant = self._leased(broker)
        lease = grant["lease_id"]
        broker.heartbeat(lease, segment=COMMIT_LINE, offset=0)
        rewritten = b'{"entry": "header"}\n'
        assert broker.heartbeat(lease, segment=rewritten, reset=True, offset=0)
        assert broker.journal("t1") == (rewritten, 0)

    def test_new_lease_replaces_stale_stream(self):
        clock = _Clock()
        broker = FleetBroker(lease_ttl_s=5.0, clock=clock)
        grant = self._leased(broker)
        broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE, offset=0)
        clock.now += 10.0  # lease expires, task re-issued
        second = broker.lease("w1", ["q"])
        assert second["attempt"] == 2
        fresh = b'{"event": "commit", "step": 9}\n'
        broker.heartbeat(second["lease_id"], segment=fresh, offset=0)
        assert broker.journal("t1") == (fresh, 1)

    def test_completion_clears_stream(self):
        broker = FleetBroker()
        grant = self._leased(broker)
        broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE, offset=0)
        broker.complete("t1", b"r", worker="w0")
        assert broker.journal("t1") == (b"", 0)
        assert "t1" not in broker.stats()["streams"]


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# authenticated wire
# ----------------------------------------------------------------------


class _CountingTransport:
    """Pass-through transport that counts delivery attempts."""

    def __init__(self):
        self.calls = 0

    def __call__(self, send, method, path, body, ctype):
        self.calls += 1
        return send(method, path, body, ctype)


class TestAuth:
    def test_missing_key_rejected_and_not_retried(self, tmp_path):
        with _running(serve(port=0, state_dir=tmp_path, auth_key=KEY)) as srv:
            transport = _CountingTransport()
            client = BrokerClient(srv.url, transport=transport, identity="t")
            with pytest.raises(WireAuthError):
                client.stats()
            assert transport.calls == 1  # fatal: no retry loop
            assert srv.broker.auth_rejects == 1
            events = [r["event"] for r in
                      read_wal(tmp_path / "broker.fleet.jsonl")]
            assert "auth_reject" in events

    def test_wrong_key_rejected(self, tmp_path):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            client = BrokerClient(srv.url, auth_key=b"not-the-key",
                                  identity="t")
            with pytest.raises(WireAuthError):
                client.create_queue("q")
            assert srv.broker.auth_rejects == 1

    def test_correct_key_serves_full_roundtrip(self, tmp_path):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            client = BrokerClient(srv.url, auth_key=KEY, identity="t")
            client.register("w0")
            client.create_queue("q")
            task_id = client.submit("q", b"payload")
            grant = client.lease("w0")
            assert grant.task_id == task_id
            assert client.heartbeat(grant.lease_id) is True
            assert client.heartbeat(
                grant.lease_id, segment=COMMIT_LINE, offset=0
            ) is True
            assert client.fetch_journal(task_id) == (COMMIT_LINE, 1)
            client.complete(task_id, b"done", lease_id=grant.lease_id,
                            worker="w0")
            assert client.wait_result(task_id, timeout_s=5.0) == b"done"
            assert srv.broker.auth_rejects == 0

    def test_health_routes_stay_open(self):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            client = BrokerClient(srv.url, identity="t")  # no key
            health = client.healthz()
            assert health["ok"] is True and health["restarts"] == 0
            # Probes and the wall-clock benchmark read /metrics without
            # a key; no other telemetry route is open.
            host, port = srv.server_address[:2]
            for path, status in (("/metrics", 200), ("/best", 401)):
                conn = http.client.HTTPConnection(host, port, timeout=10.0)
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == status, path
                finally:
                    conn.close()

    def test_worker_path_fails_with_wire_auth_error(self):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            worker = FleetWorker(srv.url, worker_id="w0", max_tasks=1,
                                 auth_key=b"wrong")
            with pytest.raises(WireAuthError):
                worker.run()

    def test_scheduler_path_fails_with_wire_auth_error(self, tmp_path):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            spec = SessionSpec(name="s", benchmark="spmv_ellpack",
                               methods=("random",), repeats=1)
            with pytest.raises(WireAuthError):
                run_schedule(srv.url, [spec], timeout_s=5.0)

    def test_load_auth_key_sources(self, tmp_path, monkeypatch):
        key_file = tmp_path / "fleet.key"
        key_file.write_bytes(b"  file-key \n")
        monkeypatch.delenv(AUTH_KEY_ENV, raising=False)
        monkeypatch.delenv(AUTH_KEY_FILE_ENV, raising=False)
        assert load_auth_key(str(key_file)) == b"file-key"
        assert load_auth_key(None) is None
        monkeypatch.setenv(AUTH_KEY_ENV, "env-key")
        assert load_auth_key(None) == b"env-key"
        monkeypatch.delenv(AUTH_KEY_ENV)
        monkeypatch.setenv(AUTH_KEY_FILE_ENV, str(key_file))
        assert load_auth_key(None) == b"file-key"
        empty = tmp_path / "empty.key"
        empty.write_bytes(b"\n")
        with pytest.raises(ValueError):
            load_auth_key(str(empty))


# ----------------------------------------------------------------------
# hardened retry client
# ----------------------------------------------------------------------


class _DropResponseOnce:
    """Deliver the first request, lose its response; pass the rest."""

    def __init__(self):
        self.calls = 0

    def __call__(self, send, method, path, body, ctype):
        self.calls += 1
        if self.calls == 1:
            send(method, path, body, ctype)
            raise ConnectionResetError("injected: response lost")
        return send(method, path, body, ctype)


class TestRetryClient:
    def test_dropped_submit_response_retries_idempotently(self):
        with _running(serve(port=0)) as srv:
            client = BrokerClient(srv.url, transport=_DropResponseOnce(),
                                  identity="t")
            client.create_queue("q")  # consumes the dropped delivery
            task_id = client.submit("q", b"payload")
            stats = client.stats()
            assert stats["tasks"] == 1
            assert stats["queues"]["q"]["submitted"] == 1
            assert client.result(task_id)[0] == "queued"

    def test_reconnect_hook_fires_once_per_outage(self):
        seen = []
        with _running(serve(port=0)) as srv:
            client = BrokerClient(
                srv.url, transport=_DropResponseOnce(), identity="t",
                on_reconnect=lambda failures, outage_s: seen.append(failures),
            )
            client.create_queue("q")
            client.create_queue("q2")
            assert seen == [1]
            assert client.reconnects == 1

    def test_rides_out_seeded_refusals(self):
        with _running(serve(port=0)) as srv:
            transport = FaultyTransport(seed=3, refuse_rate=0.3)
            client = BrokerClient(srv.url, transport=transport, identity="t")
            client.create_queue("q")
            for i in range(10):
                client.submit("q", f"p{i}".encode())
            assert client.stats()["tasks"] == 10
            assert transport.injected["refuse"] > 0
            assert client.reconnects > 0

    def test_exhausted_retries_raise(self):
        # No broker listening at all: the bounded loop must surface the
        # underlying connection error, not spin forever.
        from repro.core.resilience.retry import RetryPolicy

        client = BrokerClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout_s=0.2,
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.01,
                                     max_backoff_s=0.02),
            identity="t",
        )
        with pytest.raises(OSError):
            client.healthz()


# ----------------------------------------------------------------------
# deterministic chaos transport
# ----------------------------------------------------------------------


class TestFaultyTransport:
    @staticmethod
    def _drive(transport, calls=60):
        outcomes = []
        sent = []

        def send(method, path, body, ctype):
            sent.append(path)
            return 200, {}, b"ok"

        for _ in range(calls):
            try:
                transport(send, "GET", "/stats", None, "application/json")
                outcomes.append("ok")
            except ConnectionRefusedError:
                outcomes.append("refused")
            except ConnectionResetError:
                outcomes.append("dropped")
        return outcomes, sent

    def test_schedule_is_deterministic_in_seed(self):
        kwargs = dict(refuse_rate=0.2, drop_rate=0.15, duplicate_rate=0.1,
                      latency_rate=0.1, latency_s=0.0)
        first, _ = self._drive(FaultyTransport(seed=11, **kwargs))
        second, _ = self._drive(FaultyTransport(seed=11, **kwargs))
        assert first == second
        assert "refused" in first and "dropped" in first
        other, _ = self._drive(FaultyTransport(seed=12, **kwargs))
        assert other != first

    def test_duplicate_delivers_twice(self):
        transport = FaultyTransport(duplicate_rate=1.0)
        outcomes, sent = self._drive(transport, calls=3)
        assert outcomes == ["ok"] * 3
        assert len(sent) == 6
        assert transport.injected["duplicate"] == 3

    def test_blackout_refuses_only_matching_route(self):
        # The window is in *call index* coordinates: calls 0-2 here.
        transport = FaultyTransport(blackout=(0, 3))
        calls = []

        def send(method, path, body, ctype):
            calls.append(path)
            return 200, {}, b"ok"

        with pytest.raises(ConnectionRefusedError):
            transport(send, "POST", "/heartbeat?lease_id=x", b"", "")
        transport(send, "GET", "/stats", None, "")  # other route passes
        with pytest.raises(ConnectionRefusedError):  # still in window
            transport(send, "POST", "/heartbeat", b"", "")
        transport(send, "POST", "/heartbeat", b"", "")  # window closed
        assert transport.injected["blackout"] == 2
        assert calls == ["/stats", "/heartbeat"]


# ----------------------------------------------------------------------
# mid-cell resume plumbing
# ----------------------------------------------------------------------


class TestJournalTail:
    def test_only_complete_lines_ship(self, tmp_path):
        path = tmp_path / "cell.journal.jsonl"
        path.write_bytes(b"line-a\nline-b\npartial")
        data, reset, start = tail_complete(path, 0)
        assert (data, reset, start) == (b"line-a\nline-b\n", False, 0)
        # nothing new past the acknowledged offset yet
        assert tail_complete(path, len(data)) == (b"", False, len(data))
        path.write_bytes(b"line-a\nline-b\npartial-done\n")
        more, reset, start = tail_complete(path, len(data))
        assert more == b"partial-done\n" and not reset

    def test_shrunk_file_resets_stream(self, tmp_path):
        path = tmp_path / "cell.journal.jsonl"
        path.write_bytes(b"old-one\nold-two\n")
        offset = path.stat().st_size
        path.write_bytes(b"rewritten\n")  # continue_from compaction
        data, reset, start = tail_complete(path, offset)
        assert (data, reset, start) == (b"rewritten\n", True, 0)

    def test_missing_file_is_quiet(self, tmp_path):
        assert tail_complete(tmp_path / "nope", 7) == (b"", False, 7)

    def test_journal_stream_tracks_offset(self, tmp_path):
        path = tmp_path / "cell.journal.jsonl"
        stream = _JournalStream(path)
        path.write_bytes(COMMIT_LINE)
        data, reset, start = stream.pending()
        assert data == COMMIT_LINE and start == 0
        stream.offset = start + len(data)  # acked
        assert stream.pending() == (b"", False, len(COMMIT_LINE))


class TestWorkerResume:
    def _cell_message(self, journal_dir):
        job = Job(
            benchmark="spmv_ellpack", method="ours", repeat=0, fn=_noop,
            kwargs={"journal_dir": str(journal_dir), "seed": 7},
        )
        return {"kind": "cell", "job": job}

    def test_reissued_cell_fetches_streamed_prefix(self, tmp_path):
        from repro.experiments.harness import journal_path_for

        streamed = COMMIT_LINE * 3
        with _running(serve(port=0)) as srv:
            client = BrokerClient(srv.url, identity="t")
            client.create_queue("q")
            task_id = client.submit("q", b"p")
            grant = client.lease("w0")
            client.heartbeat(grant.lease_id, segment=streamed, offset=0)

            worker = FleetWorker(srv.url, worker_id="w1",
                                 journal_root=str(tmp_path / "wroot"))
            import types

            regrant = types.SimpleNamespace(task_id=task_id, attempt=2)
            message, journal_path = worker._prepare_cell(
                self._cell_message(tmp_path / "orig"), regrant
            )
            kwargs = dict(message["job"].kwargs)
            assert kwargs["journal_dir"] == str(tmp_path / "wroot")
            assert kwargs["resume"] is True
            assert journal_path == journal_path_for(
                tmp_path / "wroot", "spmv_ellpack", "ours", 7
            )
            assert journal_path.read_bytes() == streamed
            assert srv.broker.resume_grants == 1

    def test_first_attempt_streams_without_resume(self, tmp_path):
        with _running(serve(port=0)) as srv:
            import types

            worker = FleetWorker(srv.url, worker_id="w0")
            grant = types.SimpleNamespace(task_id="t", attempt=1)
            message, journal_path = worker._prepare_cell(
                self._cell_message(tmp_path / "orig"), grant
            )
            assert journal_path is not None
            assert "resume" not in message["job"].kwargs

    def test_longer_local_journal_is_kept(self, tmp_path):
        from repro.experiments.harness import journal_path_for

        with _running(serve(port=0)) as srv:
            client = BrokerClient(srv.url, identity="t")
            client.create_queue("q")
            task_id = client.submit("q", b"p")
            grant = client.lease("w0")
            client.heartbeat(grant.lease_id, segment=COMMIT_LINE, offset=0)

            root = tmp_path / "wroot"
            local = journal_path_for(root, "spmv_ellpack", "ours", 7)
            local.parent.mkdir(parents=True, exist_ok=True)
            local.write_bytes(COMMIT_LINE * 5)  # re-leasing our own task

            import types

            worker = FleetWorker(srv.url, worker_id="w0",
                                 journal_root=str(root))
            regrant = types.SimpleNamespace(task_id=task_id, attempt=2)
            message, journal_path = worker._prepare_cell(
                self._cell_message(tmp_path / "orig"), regrant
            )
            assert journal_path.read_bytes() == COMMIT_LINE * 5
            assert message["job"].kwargs["resume"] is True

    def test_non_journaled_cell_passes_through(self):
        with _running(serve(port=0)) as srv:
            worker = FleetWorker(srv.url, worker_id="w0")
            job = Job(benchmark="b", method="m", repeat=0, fn=_noop,
                      kwargs={})
            message, journal_path = worker._prepare_cell(
                {"kind": "cell", "job": job}, None
            )
            assert journal_path is None


# ----------------------------------------------------------------------
# graceful shutdown and crash/restart over HTTP
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_sigterm_drains_journals_and_removes_port_file(self, tmp_path):
        state = tmp_path / "state"
        proc, url, port_file = _start_broker_proc(
            tmp_path, "--state-dir", str(state)
        )
        try:
            client = BrokerClient(url, identity="t")
            client.create_queue("q")
            client.submit("q", b"p", task_id="t1")
            health = client.healthz()
            assert health["ok"] is True and health["wal_seq"] >= 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
        assert not port_file.exists()
        records = read_wal(state / "broker.fleet.jsonl")
        assert records[-1]["event"] == "shutdown"
        # a clean shutdown still rehydrates into a working broker
        revived = FleetBroker(state_dir=state)
        try:
            assert revived.stats()["tasks"] == 1
            assert revived.stats()["restarts"] == 1
        finally:
            revived.close()


@pytest.mark.slow
class TestBrokerCrashRestart:
    def test_sigkill_restart_preserves_state_with_auth(self, tmp_path):
        state = tmp_path / "state"
        env = _fleet_env(**{AUTH_KEY_ENV: KEY.decode()})
        proc, url, _ = _start_broker_proc(
            tmp_path, "--state-dir", str(state), "--lease-ttl", "30",
            name="b1.port", env=env,
        )
        second = None
        try:
            client = BrokerClient(url, auth_key=KEY, identity="t")
            client.create_queue("q")
            task_ids = [
                client.submit("q", f"payload-{i}".encode()) for i in range(3)
            ]
            grant = client.lease("w0")
            client.heartbeat(grant.lease_id, segment=COMMIT_LINE, offset=0)

            proc.kill()  # SIGKILL: no drain, no shutdown record
            proc.wait(timeout=10.0)

            second, url2, _ = _start_broker_proc(
                tmp_path, "--state-dir", str(state), "--lease-ttl", "30",
                name="b2.port", env=env,
            )
            revived = BrokerClient(url2, auth_key=KEY, identity="t")
            stats = revived.stats()
            assert stats["tasks"] == 3
            assert stats["restarts"] == 1
            # a retried submit whose response died with the broker is
            # deduplicated by its client-generated task id
            assert revived.submit("q", b"payload-0",
                                  task_id=task_ids[0]) == task_ids[0]
            assert revived.stats()["tasks"] == 3
            # the rehydrated lease and its streamed prefix both survive
            assert revived.heartbeat(grant.lease_id) is True
            assert revived.fetch_journal(grant.task_id) == (COMMIT_LINE, 1)
            # and the task completes normally post-restart
            revived.complete(grant.task_id, b"done",
                             lease_id=grant.lease_id, worker="w0")
            assert revived.wait_result(grant.task_id, timeout_s=10.0) == b"done"
            # auth still enforced after rehydration
            with pytest.raises(WireAuthError):
                BrokerClient(url2, identity="t").stats()
        finally:
            procs = [p for p in (proc, second) if p is not None]
            for p in procs:
                if p.poll() is None:
                    p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait(timeout=10.0)


# ----------------------------------------------------------------------
# log-dir vs state-dir: rehydration is opt-in
# ----------------------------------------------------------------------


class TestLogDirIsWriteOnly:
    def test_leftover_log_is_never_read_back(self, tmp_path):
        """A --log-dir journal is written, never replayed: a leftover
        file from a previous (even older-format) run must not crash
        startup or resurrect its queues into the fresh broker."""
        path = tmp_path / "broker.fleet.jsonl"
        stale = [
            {"seq": 0, "event": "queue", "queue": "old"},
            {"seq": 1, "event": "submit", "queue": "old", "task": "t9"},
            # PR-8-era lease record: no "lease"/"expires_wall"/"attempt"
            {"seq": 2, "event": "lease", "queue": "old", "task": "t9",
             "worker": "w"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in stale))
        broker = FleetBroker(log_path=path)
        try:
            stats = broker.stats()
            assert stats["tasks"] == 0 and stats["queues"] == {}
            assert stats["restarts"] == 0
            broker.create_queue("q")  # still appends to the same file
        finally:
            broker.close()
        events = [r["event"] for r in read_wal(path)]
        assert events == ["queue", "submit", "lease", "queue"]

    def test_old_format_records_skip_not_crash_rehydration(self, tmp_path):
        """With --state-dir, records from an older wire revision (or
        unknown event types) are skipped, never a KeyError at boot."""
        path = tmp_path / "broker.fleet.jsonl"
        records = [
            {"seq": 0, "event": "queue", "queue": "q"},
            {"seq": 1, "event": "submit", "queue": "q", "task": "t1",
             "payload_b64": base64.b64encode(b"p").decode()},
            {"seq": 2, "event": "lease", "queue": "q", "task": "t1",
             "worker": "w0"},  # old shape: no lease/expires_wall/attempt
            {"seq": 3, "event": "renew", "task": "missing-task"},
            {"seq": 4, "event": "from-the-future", "payload": 1},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        broker = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        try:
            stats = broker.stats()
            assert stats["tasks"] == 1
            # the keyless lease was skipped, so t1 is still leasable
            assert stats["queues"]["q"]["queued"] == 1
            grant = broker.lease("w1", ["q"])
            assert grant is not None and grant["task_id"] == "t1"
        finally:
            broker.close()


# ----------------------------------------------------------------------
# WAL compaction
# ----------------------------------------------------------------------


class TestWalCompaction:
    def test_snapshot_compaction_bounds_log_and_rehydrates(self, tmp_path):
        broker = FleetBroker(
            lease_ttl_s=300.0, state_dir=tmp_path, compact_bytes=4096
        )
        broker.create_queue("q")
        for i in range(20):
            broker.submit("q", b"x" * 64, task_id=f"t{i}")
        grant = broker.lease("w0", ["q"])
        broker.heartbeat(grant["lease_id"], segment=COMMIT_LINE, offset=0)
        for _ in range(200):  # renew spam that would grow an append-only log
            broker.heartbeat(grant["lease_id"])
        live = broker.stats()
        path = tmp_path / "broker.fleet.jsonl"
        records = read_wal(path)
        assert any(r["event"] == "snapshot" for r in records)
        # the renew history was folded away, not retained verbatim
        assert sum(1 for r in records if r["event"] == "renew") < 200
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)  # numbering survives rotation
        broker.close()

        revived = FleetBroker(lease_ttl_s=300.0, state_dir=tmp_path)
        try:
            stats = revived.stats()
            for key in ("queues", "workers", "tasks", "done", "streams",
                        "expiries", "duplicates"):
                assert stats[key] == live[key], key
            assert stats["restarts"] == live["restarts"] + 1
            # the lease and its streamed prefix live through compaction
            assert revived.heartbeat(grant["lease_id"]) is True
            assert revived.journal(grant["task_id"]) == (COMMIT_LINE, 1)
        finally:
            revived.close()

    def test_log_dir_never_compacts(self, tmp_path):
        path = tmp_path / "broker.fleet.jsonl"
        broker = FleetBroker(log_path=path)
        try:
            broker.create_queue("q")
            for i in range(50):
                broker.submit("q", b"x" * 256, task_id=f"t{i}")
        finally:
            broker.close()
        # append-only monitor feed: every event is still there
        events = [r["event"] for r in read_wal(path)]
        assert events.count("submit") == 50
        assert "snapshot" not in events


# ----------------------------------------------------------------------
# replay-resistant request auth
# ----------------------------------------------------------------------


def _raw_request(url, method, path, headers, body=b""):
    parsed = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(
        parsed.hostname, parsed.port, timeout=10.0
    )
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestAuthReplay:
    def test_header_shape_and_mac(self):
        header = sign_request(KEY, "GET", "/stats", b"")
        assert verify_request_auth(KEY, "GET", "/stats", b"", header)
        assert not verify_request_auth(
            b"other-key", "GET", "/stats", b"", header
        )
        assert not verify_request_auth(KEY, "POST", "/stats", b"", header)
        assert not verify_request_auth(KEY, "GET", "/shutdown", b"", header)
        assert not verify_request_auth(KEY, "GET", "/stats", b"x", header)
        assert not verify_request_auth(KEY, "GET", "/stats", b"", None)
        assert not verify_request_auth(KEY, "GET", "/stats", b"", "garbage")

    def test_stale_timestamp_rejected(self):
        old = sign_request(KEY, "GET", "/stats", b"", now=time.time() - 3600)
        assert not verify_request_auth(KEY, "GET", "/stats", b"", old)
        future = sign_request(
            KEY, "GET", "/stats", b"", now=time.time() + 3600
        )
        assert not verify_request_auth(KEY, "GET", "/stats", b"", future)

    def test_nonce_cache_rejects_verbatim_replay(self):
        nonces = NonceCache()
        header = sign_request(KEY, "GET", "/stats", b"")
        assert verify_request_auth(
            KEY, "GET", "/stats", b"", header, nonces=nonces
        )
        assert not verify_request_auth(
            KEY, "GET", "/stats", b"", header, nonces=nonces
        )
        # a freshly signed request (new nonce) still passes
        again = sign_request(KEY, "GET", "/stats", b"")
        assert verify_request_auth(
            KEY, "GET", "/stats", b"", again, nonces=nonces
        )

    def test_nonce_cache_is_bounded(self):
        nonces = NonceCache(capacity=8)
        for i in range(50):
            assert nonces.admit(f"n{i}", now=100.0, ttl_s=60.0)
        assert len(nonces._seen) <= 8

    def test_broker_rejects_replayed_request(self):
        """A captured request — header bytes and all — replayed against
        the broker gets 401 the second time (nonce replay)."""
        with _running(serve(port=0, auth_key=KEY)) as srv:
            header = sign_request(KEY, "GET", "/stats", b"")
            status, _ = _raw_request(
                srv.url, "GET", "/stats", {AUTH_HEADER: header}
            )
            assert status == 200
            status, _ = _raw_request(
                srv.url, "GET", "/stats", {AUTH_HEADER: header}
            )
            assert status == 401
            assert srv.broker.auth_rejects == 1

    def test_broker_rejects_stale_request(self):
        with _running(serve(port=0, auth_key=KEY)) as srv:
            header = sign_request(
                KEY, "GET", "/stats", b"", now=time.time() - 3600
            )
            status, _ = _raw_request(
                srv.url, "GET", "/stats", {AUTH_HEADER: header}
            )
            assert status == 401

    def test_duplicate_delivery_re_signs_and_passes(self):
        """Transport-level duplicate deliveries re-sign per attempt
        (fresh nonce), so the broker's replay rejection never fires on
        our own chaos machinery."""
        with _running(serve(port=0, auth_key=KEY)) as srv:
            transport = FaultyTransport(duplicate_rate=1.0)
            client = BrokerClient(
                srv.url, auth_key=KEY, transport=transport, identity="t"
            )
            client.create_queue("q")
            client.submit("q", b"p", task_id="t1")
            assert client.stats()["tasks"] == 1
            assert transport.injected["duplicate"] > 0
            assert srv.broker.auth_rejects == 0


# ----------------------------------------------------------------------
# one reconnect report per outage
# ----------------------------------------------------------------------


class _RefuseFirstN:
    """Refuse the first N delivery attempts, then pass everything."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, send, method, path, body, ctype):
        self.calls += 1
        if self.calls <= self.n:
            raise ConnectionRefusedError(f"injected (call {self.calls})")
        return send(method, path, body, ctype)


class TestReconnectSingleReport:
    def test_outage_spanning_failed_request_reports_once(self):
        """An outage long enough that one request exhausts its retry
        budget (raises) must still produce exactly ONE reconnect when a
        later request gets through — not one per reporting site."""
        from repro.core.resilience.retry import RetryPolicy

        seen = []
        with _running(serve(port=0)) as srv:
            client = BrokerClient(
                srv.url,
                transport=_RefuseFirstN(3),
                retry_policy=RetryPolicy(
                    max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.02
                ),
                identity="t",
                on_reconnect=lambda failures, outage_s: seen.append(failures),
            )
            with pytest.raises(OSError):
                client.create_queue("q")  # 2 attempts, both refused
            client.create_queue("q")  # 1 refusal, then success
            client.create_queue("q2")  # clean
            assert seen == [3]
            assert client.reconnects == 1

    def test_worker_outage_reports_one_reconnect_row(self):
        """End-to-end: a worker riding out refusals reports each outage
        exactly once (broker stats and WAL rows agree)."""
        with _running(serve(port=0)) as srv:
            worker = FleetWorker(
                srv.url, worker_id="w0", exit_on_idle_s=0.1, poll_s=0.02,
                transport=_RefuseFirstN(2),
            )
            worker.run()
            assert worker.reconnects == 1
            assert srv.broker.reconnects == 1


# ----------------------------------------------------------------------
# commit counting parses lines, never substring-scans
# ----------------------------------------------------------------------


class TestCommitCounting:
    def test_quoted_marker_does_not_count(self):
        broker = FleetBroker()
        broker.create_queue("q")
        broker.submit("q", b"p", task_id="t1")
        grant = broker.lease("w0", ["q"])
        sneaky = (
            b'error line quoting a record: "event": "commit" inside text\n'
            + json.dumps(
                {"event": "error", "detail": '{"event": "commit"}'}
            ).encode()
            + b"\n"
        )
        broker.heartbeat(grant["lease_id"], segment=sneaky, offset=0)
        data, commits = broker.journal("t1")
        assert data == sneaky and commits == 0
        # a real commit line still counts
        broker.heartbeat(
            grant["lease_id"], segment=COMMIT_LINE, offset=len(sneaky)
        )
        assert broker.journal("t1")[1] == 1


# ----------------------------------------------------------------------
# golden WAL bytes: the on-disk format is pinned
# ----------------------------------------------------------------------

GOLDEN_WAL = Path(__file__).parent / "data" / "broker_wal.golden.jsonl"


def _golden_script(state_dir: Path, monkeypatch) -> FleetBroker:
    """Drive every WAL-writing transition with fixed clocks and ids.

    Covers queue/register/submit (auto id, implicit queue, idempotent
    resubmit), lease, renew, segments (redelivery, reset), a crash
    and rehydration, expiries, resume grants,
    accepted / duplicate / stale-after-expiry completions, reconnect,
    auth reject and shutdown.  ``compact_bytes`` is tuned so exactly
    one ``snapshot`` record is written.  Returns the closed broker.
    """
    ids = itertools.count(1)
    monkeypatch.setattr(uuid, "uuid4", lambda: uuid.UUID(int=next(ids)))
    clock, wall = _Clock(), _Clock()
    wall.now = 1_000_000.0

    def tick(dt):
        clock.now += dt
        wall.now += dt

    def start():
        return FleetBroker(
            lease_ttl_s=5.0, state_dir=state_dir, clock=clock,
            wallclock=wall, compact_bytes=2700, auth_key=KEY,
        )

    broker = start()
    broker.create_queue("a")
    broker.register("w0", {"cpus": 2})
    broker.register("w1")
    t1 = broker.submit("a", b"\x00\xffpayload-one", trace="00-trace-1")
    broker.submit("b", b"payload-two", task_id="t2")
    broker.submit("b", b"payload-two", task_id="t2")
    broker.submit("a", b"payload-three", task_id="t3")
    g1 = broker.lease("w0")
    tick(1.0)
    broker.heartbeat(g1["lease_id"], segment=COMMIT_LINE, offset=0)
    broker.heartbeat(g1["lease_id"], segment=COMMIT_LINE, offset=0)
    g2 = broker.lease("w1", ["b"])
    broker.heartbeat(g2["lease_id"], segment=COMMIT_LINE * 2, offset=0)
    tick(2.0)
    broker.heartbeat(g1["lease_id"])
    broker.close()  # crash: no shutdown record
    tick(0.5)
    broker = start()
    tick(4.0)  # g2 expires; g1 was renewed and lives on
    g3 = broker.lease("w0", ["b"])
    broker.journal("t2", grant=True)
    broker.heartbeat(g1["lease_id"], segment=b'{"entry": "header"}\n',
                     reset=True, offset=0)
    broker.complete(t1, b"result-one", lease_id=g1["lease_id"],
                    worker="w0", exec_s=1.25)
    broker.complete(t1, b"result-one", lease_id=g1["lease_id"],
                    worker="w0", exec_s=1.25)
    tick(6.0)  # g3 expires; its holder still finishes t2
    broker.complete("t2", b"result-two", lease_id=g3["lease_id"],
                    worker="w0", exec_s=0.5)
    broker.lease("w1")
    broker.reconnect("w1", 2, 1.5)
    broker.check_auth("POST", "/submit?queue=a", b"", None)
    broker.close(shutdown=True)
    return broker


class TestGoldenWal:
    def test_wal_bytes_match_golden_fixture(self, tmp_path, monkeypatch):
        _golden_script(tmp_path, monkeypatch)
        written = (tmp_path / "broker.fleet.jsonl").read_bytes()
        events = [json.loads(line)["event"] for line in written.splitlines()]
        assert events.count("snapshot") == 1
        assert written == GOLDEN_WAL.read_bytes()

    def test_golden_fixture_rehydrates(self, tmp_path):
        (tmp_path / "broker.fleet.jsonl").write_bytes(GOLDEN_WAL.read_bytes())
        # Wall time of the fixture's last record: t3's lease is live.
        broker = FleetBroker(
            lease_ttl_s=5.0, state_dir=tmp_path, wallclock=lambda: 1_000_013.5
        )
        try:
            stats = broker.stats()
            assert stats["tasks"] == 3 and stats["done"] == 2
            assert stats["restarts"] == 2
            assert stats["expiries"] == 2 and stats["duplicates"] == 1
            assert stats["resume_grants"] == 1
            assert stats["reconnects"] == 1 and stats["auth_rejects"] == 1
            assert stats["workers"]["w0"]["completed"] == 2
            assert broker.result("t2") == ("done", b"result-two")
            assert stats["queues"]["a"] == {
                "queued": 0, "leased": 1, "done": 1, "submitted": 2,
            }
        finally:
            broker.close()


# ----------------------------------------------------------------------
# live state == replayed state, for random operation sequences
# ----------------------------------------------------------------------

_WORKERS = st.sampled_from(["w0", "w1"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("queue"), st.sampled_from(["a", "b"])),
        st.tuples(
            st.just("submit"), st.sampled_from(["a", "b"]),
            st.sampled_from([None, "t0", "t1", "t2"]),
        ),
        st.tuples(st.just("register"), _WORKERS),
        st.tuples(
            st.just("lease"), _WORKERS,
            st.sampled_from([None, ["a"], ["b"]]),
        ),
        st.tuples(
            st.just("heartbeat"), st.integers(0, 7),
            st.sampled_from([None, COMMIT_LINE, b'{"entry": "x"}\n']),
            st.booleans(), st.sampled_from([None, 0, 31, 500]),
        ),
        st.tuples(
            st.just("complete"), st.integers(0, 7), st.integers(0, 7),
        ),
        st.tuples(st.just("advance"), st.sampled_from([1.0, 3.0, 6.0])),
        st.tuples(st.just("journal"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _drive(broker: FleetBroker, clock: _Clock, wall: _Clock, ops) -> list:
    """Apply one random operation sequence to a live broker; returns
    the submitted task ids."""
    tasks: list[str] = []
    grants: list[dict] = []
    for op in ops:
        kind = op[0]
        if kind == "queue":
            broker.create_queue(op[1])
        elif kind == "submit":
            payload = f"payload-{len(tasks)}".encode()
            tasks.append(broker.submit(op[1], payload, task_id=op[2]))
        elif kind == "register":
            broker.register(op[1], {"slot": len(tasks)})
        elif kind == "lease":
            grant = broker.lease(op[1], op[2])
            if grant is not None:
                grants.append({**grant, "worker": op[1]})
        elif kind == "heartbeat" and grants:
            _, pick, segment, reset, offset = op
            broker.heartbeat(
                grants[pick % len(grants)]["lease_id"],
                segment=segment, reset=reset, offset=offset,
            )
        elif kind == "complete" and tasks:
            _, pick, holder = op
            grant = grants[holder % len(grants)] if grants else {}
            broker.complete(
                tasks[pick % len(tasks)], f"result-{pick}".encode(),
                lease_id=grant.get("lease_id"),
                worker=grant.get("worker", ""), exec_s=0.25 * pick,
            )
        elif kind == "advance":
            clock.now += op[1]
            wall.now += op[1]
        elif kind == "journal" and tasks:
            broker.journal(tasks[op[1] % len(tasks)], grant=True)
    return tasks


def _observed(broker: FleetBroker, tasks: list) -> dict:
    """Everything a client can see, then the order of the next leases."""
    stats = broker.stats()
    del stats["restarts"], stats["wal_seq"]
    task_ids = sorted(set(tasks))
    seen = {
        "stats": stats,
        "results": {tid: broker.result(tid) for tid in task_ids},
        "journals": {tid: broker.journal(tid) for tid in task_ids},
        "leases": [],
    }
    while (grant := broker.lease("probe")) is not None:
        del grant["lease_id"]
        seen["leases"].append(grant)
    return seen


class TestLiveEqualsReplay:
    @pytest.mark.parametrize("compact", [0, 1])
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=_OPS)
    # A lease overdue at restart expires at the next sweep, as it would
    # have live.
    @example(ops=[("submit", "a", None), ("lease", "w0", None),
                  ("advance", 6.0)])
    # With compaction, the expire record's snapshot holds the re-queued
    # task, not a half-expired lease.
    @example(ops=[("submit", "a", None), ("lease", "w0", None),
                  ("advance", 6.0), ("lease", "w0", None)])
    def test_rehydrated_broker_matches_live(self, tmp_path_factory, compact,
                                            ops):
        """Any operation sequence, replayed from the WAL (with or
        without snapshot compaction), rebuilds the live broker's state:
        same stats, results, streamed journals and lease order."""
        root = tmp_path_factory.mktemp("replay")
        clock, wall = _Clock(), _Clock()
        wall.now = 1_000_000.0

        def start(state_dir):
            return FleetBroker(
                lease_ttl_s=5.0, state_dir=state_dir, clock=clock,
                wallclock=wall, compact_bytes=compact,
            )

        live = start(root / "live")
        tasks = _drive(live, clock, wall, ops)
        (root / "copy").mkdir()
        (root / "copy" / "broker.fleet.jsonl").write_bytes(
            (root / "live" / "broker.fleet.jsonl").read_bytes()
        )
        replayed = start(root / "copy")
        try:
            assert _observed(replayed, tasks) == _observed(live, tasks)
        finally:
            live.close()
            replayed.close()
