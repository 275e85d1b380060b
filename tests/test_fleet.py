"""Tests for the distributed tuning fleet (ISSUE 8).

Covers the pinned pickle wire format (golden fingerprint + field-set
drift guard), the broker's lease state machine under an injected clock
(fair share, expiry re-issue, heartbeat renewal, first-writer-wins
duplicates), the HTTP surface (wire-mismatch 409 included), the worker
agent, ``RemoteExecutor`` trajectory parity against the local
``EvalEngine``, and — through real subprocesses — a loopback fleet of
two workers serving two concurrent sessions bitwise-identically to
single-process runs, surviving a SIGKILL'd worker mid-lease via lease
expiry with no duplicate commits.
"""

import contextlib
import dataclasses
import http.client
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.experiments.harness import SMOKE_SCALE, run_benchmark
from repro.experiments.parallel import Job, JobOutcome
from repro.core.resilience.retry import RetryPolicy
from repro.fleet import broker as broker_module
from repro.fleet.broker import FleetBroker, serve
from repro.fleet.client import BrokerClient, WireAuthError, WireMismatchError
from repro.fleet.executor import RemoteExecutor
from repro.fleet.schedule import SessionSpec, run_schedule
from repro.fleet.wire import (
    PINNED_FIELDS,
    WIRE_HEADER,
    check_wire_schema,
    dump,
    live_fields,
    load,
    wire_fingerprint,
)
from repro.fleet.worker import FleetWorker
from repro.obs import read_trace

BENCH = "spmv_ellpack"
SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _double(value: int) -> int:
    return value * 2


def _fleet_env(extra_path: str | None = None) -> dict:
    env = dict(os.environ)
    parts = [SRC_ROOT]
    if extra_path:
        parts.append(extra_path)
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------


class TestWireFormat:
    def test_pin_matches_live_dataclasses(self):
        """PINNED_FIELDS drifting from the runtime dataclasses must fail
        loudly here — update the pin AND bump WIRE_VERSION."""
        assert live_fields() == PINNED_FIELDS
        check_wire_schema()  # and the worker-side guard agrees

    def test_fingerprint_golden(self):
        # Any change to WIRE_VERSION or PINNED_FIELDS moves this digest.
        # If this fails you changed the wire format: bump WIRE_VERSION
        # in repro/fleet/wire.py and re-pin this golden value.
        assert wire_fingerprint() == "328960fe9baa593c"

    def test_job_roundtrip(self):
        job = Job(
            benchmark="b", method="m", repeat=2,
            fn=_double, kwargs={"value": 4},
        )
        back = load(dump(job))
        assert back == job
        assert back.fn(value=4) == 8

    def test_outcome_roundtrip(self):
        job = Job(
            benchmark="b", method="m", repeat=0,
            fn=_double, kwargs={"value": 1},
        )
        outcome = JobOutcome(
            job=job, value=2, error=None, queue_wait_s=0.5,
            exec_s=1.25, worker=1234, gt_cache="disk-hit", t_start=1.0,
        )
        back = load(dump(outcome))
        assert back.value == 2 and back.exec_s == 1.25
        assert back.job == job

    def test_eval_roundtrip(self):
        from repro.core.batch.engine import EvalJob, EvalOutcome

        job = EvalJob(order=0, step=7, config_index=13, fidelity=1)
        outcome = EvalOutcome(
            job=job, outcome=None, error="boom",
            queue_wait_s=0.0, exec_s=0.1, worker="w0",
        )
        back = load(dump(outcome))
        assert back.job.step == 7 and back.job.config_index == 13
        assert back.error == "boom"


# ----------------------------------------------------------------------
# broker core (injected clock — no sockets, no sleeps)
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBrokerCore:
    def _broker(self, ttl: float = 10.0):
        clock = FakeClock()
        return FleetBroker(lease_ttl_s=ttl, clock=clock), clock

    def test_submit_lease_complete_roundtrip(self):
        broker, _clock = self._broker()
        broker.register("w0", {"cpus": 2})
        task_id = broker.submit("q", b"payload")
        assert broker.result(task_id) == ("queued", None)
        grant = broker.lease("w0")
        assert grant["task_id"] == task_id
        assert grant["payload"] == b"payload"
        assert grant["attempt"] == 1
        assert broker.result(task_id) == ("leased", None)
        status = broker.complete(
            task_id, b"done", lease_id=grant["lease_id"], worker="w0",
            exec_s=1.5,
        )
        assert status == "accepted"
        assert broker.result(task_id) == ("done", b"done")
        stats = broker.stats()
        assert stats["queues"]["q"]["done"] == 1
        assert stats["workers"]["w0"]["completed"] == 1
        assert stats["workers"]["w0"]["busy_s"] == 1.5
        assert stats["expiries"] == 0 and stats["duplicates"] == 0

    def test_idle_lease_is_none(self):
        broker, _clock = self._broker()
        assert broker.lease("w0") is None
        broker.create_queue("empty")
        assert broker.lease("w0") is None

    def test_fair_share_alternates_sessions(self):
        """Leases interleave across queues instead of draining the
        first-submitted session."""
        broker, _clock = self._broker()
        for i in range(3):
            broker.submit("session.a", f"a{i}".encode())
        for i in range(3):
            broker.submit("session.b", f"b{i}".encode())
        order = [broker.lease(f"w{i}")["queue"] for i in range(6)]
        assert order == [
            "session.a", "session.b", "session.a",
            "session.b", "session.a", "session.b",
        ]

    def test_capability_filter_restricts_queues(self):
        broker, _clock = self._broker()
        broker.submit("a", b"1")
        broker.submit("b", b"2")
        grant = broker.lease("w0", queues=["b"])
        assert grant["queue"] == "b"
        assert broker.lease("w1", queues=["c"]) is None

    def test_expired_lease_is_reissued(self):
        """A SIGKILL'd worker costs one lease timeout, not the task."""
        broker, clock = self._broker(ttl=10.0)
        broker.register("dead", {})
        task_id = broker.submit("q", b"work")
        first = broker.lease("dead")
        clock.advance(10.1)  # the worker never heartbeats
        second = broker.lease("alive")
        assert second["task_id"] == task_id
        assert second["attempt"] == 2
        assert second["lease_id"] != first["lease_id"]
        stats = broker.stats()
        assert stats["expiries"] == 1
        assert stats["workers"]["dead"]["expired"] == 1
        # The re-queued task went to the FRONT: it does not wait behind
        # work submitted after it.
        broker.complete(task_id, b"ok", lease_id=second["lease_id"])
        assert broker.result(task_id) == ("done", b"ok")

    def test_heartbeat_extends_lease(self):
        broker, clock = self._broker(ttl=10.0)
        broker.submit("q", b"w")
        grant = broker.lease("w0")
        clock.advance(8.0)
        assert broker.heartbeat(grant["lease_id"]) is True
        clock.advance(8.0)  # 16s total — dead without the renewal
        assert broker.lease("w1") is None  # not re-issued
        assert broker.heartbeat(grant["lease_id"]) is True
        clock.advance(10.1)
        assert broker.heartbeat(grant["lease_id"]) is False  # expired now

    def test_first_writer_wins_on_duplicate_completion(self):
        """A stale leaseholder racing its re-issued replacement never
        double-commits: the second outcome is dropped."""
        broker, clock = self._broker(ttl=10.0)
        task_id = broker.submit("q", b"w")
        stale = broker.lease("w0")
        clock.advance(10.1)
        fresh = broker.lease("w1")
        assert fresh["task_id"] == task_id
        # The stale worker finishes late but first.
        assert broker.complete(
            task_id, b"from-stale", lease_id=stale["lease_id"], worker="w0"
        ) == "accepted"
        assert broker.complete(
            task_id, b"from-fresh", lease_id=fresh["lease_id"], worker="w1"
        ) == "duplicate"
        assert broker.result(task_id) == ("done", b"from-stale")
        assert broker.stats()["duplicates"] == 1

    def test_completion_removes_requeued_entry(self):
        """A stale completion also retracts the re-queued copy, so no
        other worker wastes a lease on finished work."""
        broker, clock = self._broker(ttl=10.0)
        task_id = broker.submit("q", b"w")
        stale = broker.lease("w0")
        clock.advance(10.1)
        broker.stats()  # trigger expiry scan: task back in the queue
        assert broker.complete(
            task_id, b"late", lease_id=stale["lease_id"], worker="w0"
        ) == "accepted"
        assert broker.lease("w1") is None  # nothing left to grant


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------


@pytest.fixture()
def broker_server(tmp_path):
    server = serve(port=0, lease_ttl_s=30.0, log_dir=tmp_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.broker.close()
    thread.join(timeout=5.0)


class TestBrokerHttp:
    def test_roundtrip_over_http(self, broker_server, tmp_path):
        client = BrokerClient(broker_server.url)
        ack = client.register("w0", {"cpus": 1})
        assert ack["lease_ttl_s"] == 30.0
        client.create_queue("q")
        assert client.lease("w0") is None
        task_id = client.submit("q", b"payload")
        grant = client.lease("w0")
        assert grant.task_id == task_id
        assert grant.payload == b"payload"
        assert grant.ttl_s == 30.0 and grant.attempt == 1
        assert client.heartbeat(grant.lease_id) is True
        assert client.complete(
            task_id, b"done", lease_id=grant.lease_id, worker="w0",
            exec_s=0.25,
        ) == "accepted"
        state, payload = client.result(task_id)
        assert (state, payload) == ("done", b"done")
        stats = client.stats()
        assert stats["queues"]["q"]["done"] == 1
        # Every transition landed in the fleet event log.
        log = (tmp_path / "broker.fleet.jsonl").read_text()
        for event in ("register", "submit", "lease", "renew", "complete"):
            assert f'"event": "{event}"' in log or f'"{event}"' in log

    def test_result_unknown_task_raises(self, broker_server):
        client = BrokerClient(broker_server.url)
        with pytest.raises(KeyError):
            client.result("no-such-task")

    def test_pending_result_reports_state(self, broker_server):
        client = BrokerClient(broker_server.url)
        task_id = client.submit("q", b"x")
        assert client.result(task_id) == ("queued", None)
        with pytest.raises(TimeoutError):
            client.wait_result(task_id, poll_s=0.01, timeout_s=0.05)

    def test_wire_mismatch_rejected_with_409(self, broker_server):
        host, port = broker_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(
                "POST", "/lease", body=b'{"worker_id": "w"}',
                headers={
                    WIRE_HEADER: "0000000000000000",
                    "Content-Type": "application/json",
                },
            )
            assert conn.getresponse().status == 409
        finally:
            conn.close()
        # And the client surfaces it as the dedicated error type.
        client = BrokerClient(broker_server.url)
        client._wire = "0000000000000000"
        with pytest.raises(WireMismatchError, match="same repro revision"):
            client.lease("w")

    def test_submit_without_queue_lands_in_default(self, broker_server):
        client = BrokerClient(broker_server.url)
        status, _, _data = client._request("POST", "/submit", b"x")
        assert status == 200
        assert "default" in client.stats()["queues"]


# ----------------------------------------------------------------------
# server-side waits and kept-alive connections
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _serving(**kwargs):
    """An in-process broker on a daemon thread (``serve`` kwargs)."""
    server = serve(**{"port": 0, **kwargs})
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.broker.close()
        thread.join(timeout=5.0)


def _in_thread(fn):
    """Run ``fn`` on a thread; returns (thread, box) where ``box`` gets
    ``value`` and ``took`` (seconds) once it returns."""
    box: dict = {}

    def run():
        start = time.monotonic()
        box["value"] = fn()
        box["took"] = time.monotonic() - start

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestWaitsAndKeepAlive:
    def test_waiting_lease_returns_on_submit(self, broker_server):
        client = BrokerClient(broker_server.url)
        client.create_queue("q")
        waiter = BrokerClient(broker_server.url)
        thread, box = _in_thread(lambda: waiter.lease("w0", wait_s=10.0))
        time.sleep(0.3)
        task_id = client.submit("q", b"x")
        thread.join(timeout=10.0)
        assert box["value"].task_id == task_id
        # Woken by the submit, not by the next once-a-second sweep.
        assert 0.25 <= box["took"] < 0.8

    def test_waiting_result_returns_on_complete(self, broker_server):
        client = BrokerClient(broker_server.url)
        task_id = client.submit("q", b"x")
        grant = client.lease("w0")
        waiter = BrokerClient(broker_server.url)
        thread, box = _in_thread(
            lambda: waiter.result(task_id, wait_s=10.0)
        )
        time.sleep(0.3)
        client.complete(task_id, b"done", lease_id=grant.lease_id)
        thread.join(timeout=10.0)
        assert box["value"] == ("done", b"done")
        # Woken by the completion, not by the next once-a-second sweep.
        assert 0.25 <= box["took"] < 0.8

    def test_result_wait_is_not_service_time(self, broker_server):
        """``fleet_request_latency_seconds`` observes what the broker
        worked on a request, not the time it held it in a wait."""
        client = BrokerClient(broker_server.url)
        task_id = client.submit("q", b"x")
        grant = client.lease("w0")
        timer = threading.Timer(
            0.3, client.complete, (task_id, b"done"),
            {"lease_id": grant.lease_id},
        )
        timer.start()
        waiter = BrokerClient(broker_server.url)
        start = time.monotonic()
        assert waiter.result(task_id, wait_s=10.0) == ("done", b"done")
        assert time.monotonic() - start >= 0.25
        timer.join()
        latency = broker_server.broker.request_latency["/result"].snapshot()
        assert latency["count"] == 1
        assert latency["sum"] < 0.1, latency

    def test_expired_lease_goes_to_waiting_worker(self):
        """A waiting worker sweeps expiries itself: the victim's lease
        expires and is re-granted with no other request arriving."""
        with _serving(lease_ttl_s=0.3) as srv:
            client = BrokerClient(srv.url)
            task_id = client.submit("q", b"x")
            first = client.lease("victim")  # never heartbeats
            survivor = BrokerClient(srv.url)
            start = time.monotonic()
            grant = survivor.lease("survivor", wait_s=10.0)
            took = time.monotonic() - start
            assert grant is not None and grant.task_id == task_id
            assert grant.attempt == 2 and grant.lease_id != first.lease_id
            assert took < 3.0  # TTL plus at most one expiry sweep
            assert srv.broker.expiries == 1

    def test_killed_waiting_worker_is_not_granted(self, broker_server):
        """A worker SIGKILL'd while its lease request is held must not
        take the next task with it (that task would sit out a TTL)."""
        ghost = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.fleet.client import BrokerClient; "
                "BrokerClient(sys.argv[1]).lease('ghost', wait_s=10.0)",
                broker_server.url,
            ],
            env=_fleet_env(),
        )
        try:
            time.sleep(1.0)  # the ghost's lease request is now held
        finally:
            ghost.kill()
            ghost.wait(timeout=10.0)
        time.sleep(0.2)
        client = BrokerClient(broker_server.url)
        task_id = client.submit("q", b"x")
        time.sleep(0.3)
        stats = client.stats()
        assert stats["leases"] == 0 and stats["queues"]["q"]["queued"] == 1
        grant = client.lease("survivor")
        assert grant.task_id == task_id and grant.attempt == 1

    def test_sigterm_wakes_waiters_and_drains_fast(self, tmp_path):
        log_dir = tmp_path / "fleet-log"
        log_dir.mkdir()
        proc, url = _start_broker(tmp_path, 30.0, log_dir)
        try:
            client = BrokerClient(url)
            task_id = client.submit("q", b"x")
            thread, box = _in_thread(
                lambda: client.result(task_id, wait_s=15.0)
            )
            time.sleep(0.5)  # the request is now held at the broker
            signalled = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10.0) == 0
            exited = time.monotonic() - signalled
            thread.join(timeout=10.0)
        finally:
            _stop(proc)
        assert box["value"] == ("queued", None)
        # Well under the wait, and under the 2 s drain bound a waiter
        # left blocked would run into.
        assert exited < 1.5, exited
        assert box["took"] < 0.5 + 1.5

    def test_dropped_idle_connection_is_not_an_outage(self, monkeypatch):
        """The broker closes an idle kept-alive connection: the next
        request goes again at once on a fresh connection, with no
        reconnect counted.  A broker that is really gone still counts
        one outage once it is back."""
        monkeypatch.setattr(broker_module._Handler, "timeout", 0.2)
        seen = []
        policy = RetryPolicy(
            max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.02
        )
        with _serving() as srv:
            port = srv.server_address[1]
            client = BrokerClient(
                srv.url, retry_policy=policy,
                on_reconnect=lambda *args: seen.append(args),
            )
            client.create_queue("q")
            (first,) = client._idle
            time.sleep(0.6)  # past the idle timeout: the broker closed it
            client.create_queue("q2")
            assert client._idle and client._idle[0] is not first
            assert client.reconnects == 0 and seen == []
        with pytest.raises(OSError):
            client.create_queue("q3")  # stale, then refused: an outage
        with _serving(port=port):
            client.create_queue("q4")
        assert client.reconnects == 1 and len(seen) == 1

    def test_tcp_nodelay_on_both_ends(self, broker_server):
        client = BrokerClient(broker_server.url)
        client.stats()
        (conn,) = client._idle
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        (served,) = broker_server._connections
        assert served.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_auth_reject_keeps_the_connection(self):
        key = b"fleet-test-shared-key"
        with _serving(auth_key=key) as srv:
            client = BrokerClient(srv.url, auth_key=b"not-the-key")
            with pytest.raises(WireAuthError):
                client.create_queue("q")
            (conn,) = client._idle
            client.auth_key = key
            client.create_queue("q")
            assert client._idle == [conn]  # the same connection carried it
            assert len(srv._connections) == 1
            assert "q" in client.stats()["queues"]


# ----------------------------------------------------------------------
# worker agent (in-process)
# ----------------------------------------------------------------------


class TestWorkerAgent:
    def test_serves_cell_task_and_exits_at_max_tasks(self, broker_server):
        client = BrokerClient(broker_server.url)
        job = Job(
            benchmark="none", method="ok", repeat=0,
            fn=_double, kwargs={"value": 21},
        )
        task_id = client.submit(
            "cells", dump({"kind": "cell", "job": job,
                           "submitted_at": time.time()})
        )
        worker = FleetWorker(
            broker_server.url, worker_id="w-test", poll_s=0.01, max_tasks=1
        )
        assert worker.run() == 0
        assert worker.tasks_done == 1
        outcome = load(client.wait_result(task_id, timeout_s=10.0))
        assert isinstance(outcome, JobOutcome)
        assert outcome.ok and outcome.value == 42

    def test_unknown_kind_surfaces_as_error_payload(self, broker_server):
        client = BrokerClient(broker_server.url)
        task_id = client.submit("cells", dump({"kind": "bogus"}))
        worker = FleetWorker(
            broker_server.url, worker_id="w-err", poll_s=0.01, max_tasks=1
        )
        assert worker.run() == 0
        result = load(client.wait_result(task_id, timeout_s=10.0))
        assert isinstance(result, dict)
        assert "unknown fleet task kind" in result["error"]
        assert result["worker"] == "w-err"

    def test_exit_on_idle(self, broker_server):
        worker = FleetWorker(
            broker_server.url, worker_id="w-idle", poll_s=0.01,
            exit_on_idle_s=0.05,
        )
        start = time.monotonic()
        assert worker.run() == 0
        assert worker.tasks_done == 0
        assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# RemoteExecutor: in-run evaluation fan-out parity
# ----------------------------------------------------------------------


def _hist(result):
    """NaN-tolerant bitwise history fingerprint (NaN compares as None)."""
    return [
        (
            r.step,
            r.config_index,
            int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives),
            r.valid,
            r.runtime_s,
        )
        for r in result.history
    ]


def _assert_bitwise_equal(a, b):
    assert _hist(a) == _hist(b)
    assert a.cs_indices == b.cs_indices
    assert np.array_equal(a.cs_values, b.cs_values)
    assert a.total_runtime_s == b.total_runtime_s


class TestRemoteExecutor:
    def test_fleet_run_bitwise_equals_local(self, broker_server):
        """An async tuning run whose evaluations travel broker → worker
        → broker commits the exact trajectory of the local thread pool."""
        from repro.benchsuite.registry import get_space
        from repro.hlsim.flow import HlsFlow

        space = get_space(BENCH)
        flow = HlsFlow.for_space(space)
        settings = MFBOSettings(
            n_init=(6, 4, 3), n_iter=4, n_mc_samples=16, candidate_pool=24,
            refit_every=2, seed=11, inflight_target=2,
        )
        local = CorrelatedMFBO(space, flow, settings).run()

        # The agent polls until the fixture tears the broker down (the
        # run's think time between evals rules out an idle-exit cutoff).
        worker = FleetWorker(
            broker_server.url, worker_id="w-eval", poll_s=0.01
        )
        threading.Thread(target=worker.run, daemon=True).start()
        fleet = CorrelatedMFBO(
            space, flow, settings,
            engine_factory=lambda opt: RemoteExecutor(
                opt, broker_server.url, benchmark=BENCH, poll_s=0.01
            ),
        ).run()
        _assert_bitwise_equal(local, fleet)
        stats = BrokerClient(broker_server.url).stats()
        assert stats["expiries"] == 0 and stats["duplicates"] == 0

    def test_requires_broker_and_benchmark(self):
        with pytest.raises(ValueError, match="broker URL"):
            RemoteExecutor(benchmark=BENCH)
        with pytest.raises(ValueError, match="benchmark"):
            RemoteExecutor(broker_url="http://127.0.0.1:1")


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------


class TestSessionSpec:
    def test_parse_full(self):
        spec = SessionSpec.parse("a=gemm:ours+random:2:7")
        assert spec == SessionSpec(
            name="a", benchmark="gemm", methods=("ours", "random"),
            repeats=2, base_seed=7,
        )
        assert spec.queue == "session.a"

    def test_parse_defaults(self):
        spec = SessionSpec.parse("spmv_ellpack:bt:1")
        assert spec.name == "spmv_ellpack.bt"
        assert spec.base_seed == 2021

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad session spec"):
            SessionSpec.parse("just-a-name")


# ----------------------------------------------------------------------
# loopback fleet: subprocess broker + workers
# ----------------------------------------------------------------------


def _start_broker(tmp_path, lease_ttl: float, log_dir: Path) -> tuple:
    port_file = tmp_path / "broker.port"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet.broker",
            "--host", "127.0.0.1", "--port", "0",
            "--lease-ttl", str(lease_ttl),
            "--log-dir", str(log_dir),
            "--port-file", str(port_file),
        ],
        env=_fleet_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read().decode() if proc.stdout else ""
            raise RuntimeError(f"broker did not start: {out}")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}"


def _start_worker(url: str, worker_id: str, extra_path=None, **flags):
    argv = [
        sys.executable, "-m", "repro.fleet.worker",
        "--broker", url, "--worker-id", worker_id, "--poll", "0.05",
    ]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return subprocess.Popen(
        argv, env=_fleet_env(extra_path),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


def _stop(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)


@pytest.mark.slow
class TestLoopbackFleet:
    def test_two_workers_two_sessions_bitwise(self, tmp_path):
        """The acceptance gate: a 2-worker loopback fleet multiplexing
        two concurrent sessions reproduces single-process numbers
        bitwise, sharing ground truth through the sharded gtcache.

        The fleet runs traced (scheduler, workers and cell spans) while
        the local runs do not, so the bitwise asserts also show tracing
        is neutral; nearly every worker and cell span must carry a
        scheduler trace id."""
        cache = tmp_path / "gtcache"
        log_dir = tmp_path / "fleet-log"
        log_dir.mkdir()
        trace_dir = tmp_path / "trace"
        specs = [
            SessionSpec(
                name="s1", benchmark=BENCH,
                methods=("fpl18", "dac19"), repeats=1,
            ),
            SessionSpec(
                name="s2", benchmark=BENCH,
                methods=("dac19",), repeats=1, base_seed=7,
            ),
        ]
        broker = workers = None
        try:
            broker, url = _start_broker(tmp_path, 30.0, log_dir)
            workers = [
                _start_worker(
                    url, f"w{i}", cache_dir=str(cache),
                    trace_dir=str(trace_dir),
                )
                for i in range(2)
            ]
            fleet = run_schedule(
                url, specs,
                scale=dataclasses.replace(SMOKE_SCALE, trace_spans=True),
                cache_dir=cache, trace_dir=trace_dir,
                poll_s=0.1, timeout_s=600.0,
            )
            stats = BrokerClient(url).stats()
        finally:
            _stop(*([broker] if broker else []), *(workers or []))

        assert stats["expiries"] == 0 and stats["duplicates"] == 0
        for spec in specs:
            local = run_benchmark(
                BENCH, methods=spec.methods, scale=SMOKE_SCALE,
                base_seed=spec.base_seed, cache_dir=cache,
            )
            remote = fleet[spec.name]
            assert set(remote) == set(spec.methods)
            for method in spec.methods:
                for a, b in zip(local[method], remote[method]):
                    assert a.seed == b.seed
                    assert a.adrs == b.adrs  # exact, not approx
                    assert a.runtime_s == b.runtime_s
                    _assert_bitwise_equal(a.result, b.result)

        # Ground truth landed once, in the sharded layout, shared by
        # both workers and both sessions.
        entries = list(cache.rglob("*.npz"))
        assert len(entries) == 1
        assert entries[0].parent.parent == cache  # <cache>/<shard>/x.npz

        # X-Repro-Trace held across processes: submit -> lease ->
        # execute -> cell.
        session_traces = {
            span.get("trace")
            for span in read_trace(trace_dir / "schedule.trace.jsonl", "span")
        } - {None}
        assert session_traces
        spans = [
            span
            for path in sorted(trace_dir.glob("*.jsonl"))
            if path.name != "schedule.trace.jsonl"
            for span in read_trace(path, "span")
        ]
        assert any(r["name"] == "execute" for r in spans)
        parented = sum(r.get("trace") in session_traces for r in spans)
        assert parented >= 0.95 * len(spans), (parented, len(spans))

        # The broker's event log drives the monitor's fleet view.
        from repro.obs.monitor import SweepState, render

        state = SweepState()
        state.refresh(log_dir)
        text = render(state, log_dir, tick=1)
        assert "fleet broker.fleet.jsonl" in text
        assert "queue session.s1" in text and "queue session.s2" in text
        assert "agent w0" in text and "agent w1" in text

    def test_sigkilled_worker_lease_expires_and_reissues(self, tmp_path):
        """SIGKILL mid-lease costs one lease timeout: the task re-issues
        to the surviving worker and completes exactly once."""
        helper_dir = tmp_path / "helpers"
        helper_dir.mkdir()
        marker = tmp_path / "started.marker"
        (helper_dir / "fleet_sleepy.py").write_text(
            "import os, time\n"
            "\n"
            "def sleepy(marker, duration):\n"
            "    first = not os.path.exists(marker)\n"
            "    if first:\n"
            "        open(marker, 'w').close()\n"
            "        time.sleep(duration)\n"
            "    return 'done'\n"
        )
        sys.path.insert(0, str(helper_dir))
        try:
            import fleet_sleepy
        finally:
            sys.path.remove(str(helper_dir))

        log_dir = tmp_path / "fleet-log"
        log_dir.mkdir()
        broker = victim = survivor = None
        try:
            broker, url = _start_broker(tmp_path, 1.0, log_dir)
            client = BrokerClient(url)
            job = Job(
                benchmark="none", method="sleepy", repeat=0,
                fn=fleet_sleepy.sleepy,
                kwargs={"marker": str(marker), "duration": 120.0},
            )
            task_id = client.submit(
                "q", dump({"kind": "cell", "job": job,
                           "submitted_at": time.time()})
            )
            victim = _start_worker(url, "victim", extra_path=str(helper_dir))
            deadline = time.monotonic() + 60.0
            while not marker.exists():
                assert time.monotonic() < deadline, "victim never leased"
                time.sleep(0.05)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10.0)

            survivor = _start_worker(
                url, "survivor", extra_path=str(helper_dir)
            )
            outcome = load(client.wait_result(task_id, timeout_s=60.0))
            stats = client.stats()
        finally:
            _stop(*(p for p in (broker, victim, survivor) if p))

        assert isinstance(outcome, JobOutcome) and outcome.value == "done"
        assert stats["expiries"] == 1  # exactly one lease timeout paid
        assert stats["duplicates"] == 0  # and nothing committed twice
        assert stats["workers"]["victim"]["expired"] == 1
        assert stats["workers"]["survivor"]["completed"] == 1
