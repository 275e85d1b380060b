"""Stdlib HTTP client for the fleet broker, hardened for crashes.

One :class:`BrokerClient` per process/thread role (worker loop,
executor, scheduler).  Each call opens a short-lived
``http.client.HTTPConnection`` — the broker is a threading server on a
loopback or rack-local link, so connection reuse buys nothing worth the
thread-safety bookkeeping.

Every request carries the wire fingerprint header; a ``409`` from the
broker (version skew between this process and the broker/workers)
raises :class:`WireMismatchError` immediately rather than letting a
mismatched peer exchange payloads.  When the client holds the shared
fleet key it also signs every request (``X-Repro-Auth``); a ``401``
raises :class:`WireAuthError` — both are *fatal*, never retried.

**Transient failures are retried.**  Connection refusals and dropped
responses (``OSError``/``http.client.HTTPException``) ride a bounded
exponential-backoff loop with *deterministic* jitter (seeded from the
client identity, so reruns back off identically); recovery fires the
``on_reconnect`` callback once with the failure count and outage
length.  Retries are safe because every mutating route is idempotent:
``/submit`` carries a client-generated task id, ``/complete`` is
first-writer-wins, and segment heartbeats carry stream offsets the
broker deduplicates on.

A ``transport`` hook wraps the single-shot sender — the seam where
:class:`repro.core.resilience.faults.FaultyTransport` injects
refusals, drops, latency and duplicate deliveries in the chaos bench.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import uuid
import zlib

from repro.fleet.wire import (
    AUTH_HEADER,
    TRACE_HEADER,
    WIRE_HEADER,
    sign_request,
    wire_fingerprint,
)

__all__ = [
    "BrokerClient",
    "BrokerError",
    "LeaseGrant",
    "WireAuthError",
    "WireMismatchError",
]

#: Exceptions worth retrying: the broker is briefly unreachable
#: (restarting) or the connection tore mid-exchange.
RETRIABLE = (OSError, http.client.HTTPException)


class BrokerError(RuntimeError):
    """The broker rejected a request (non-2xx beyond protocol cases)."""


class WireMismatchError(BrokerError):
    """Broker and this process disagree on the pickle wire schema."""


class WireAuthError(BrokerError):
    """The broker rejected this client's HMAC (missing or wrong key)."""


class LeaseGrant:
    """One granted lease: identity plus the opaque payload bytes.

    ``trace`` is the task's propagated ``"<trace_id>:<span_id>"``
    context (the scheduler's submit span), or ``None`` for untraced
    submissions.
    """

    __slots__ = (
        "task_id", "lease_id", "queue", "ttl_s", "attempt", "payload",
        "trace",
    )

    def __init__(
        self, task_id, lease_id, queue, ttl_s, attempt, payload, trace=None
    ):
        self.task_id = task_id
        self.lease_id = lease_id
        self.queue = queue
        self.ttl_s = ttl_s
        self.attempt = attempt
        self.payload = payload
        self.trace = trace


def _default_retry_policy():
    """Bounded backoff against a restarting broker (lazy import — the
    retry module pulls numpy, which monitor-adjacent users never need)."""
    from repro.core.resilience.retry import RetryPolicy

    return RetryPolicy(
        max_attempts=5,
        base_backoff_s=0.05,
        backoff_multiplier=2.0,
        max_backoff_s=2.0,
        jitter=0.25,
    )


class BrokerClient:
    """Talk to one broker at ``url`` (e.g. ``http://127.0.0.1:8947``).

    ``auth_key`` signs every request when set; ``retry_policy`` bounds
    the reconnect loop (``None`` → the default policy, ``False``-y
    ``max_attempts<=1`` → fail fast); ``transport`` intercepts the
    single-shot sender (fault injection); ``on_reconnect(failures,
    outage_s)`` fires after each recovered outage; ``identity`` seeds
    the deterministic backoff jitter.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 30.0,
        auth_key: bytes | None = None,
        retry_policy=None,
        transport=None,
        on_reconnect=None,
        identity: str = "",
    ):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported broker URL scheme in {url!r}")
        netloc = parsed.netloc or parsed.path
        self.host, _, port = netloc.partition(":")
        self.port = int(port or 80)
        self.timeout_s = timeout_s
        self.auth_key = auth_key
        self.transport = transport
        self.on_reconnect = on_reconnect
        self.reconnects = 0
        #: Formatted ``"<trace_id>:<span_id>"`` context stamped as
        #: ``X-Repro-Trace`` on every request while set (the scheduler
        #: points it at the active submit span).  Telemetry only.
        self.trace_context: str | None = None
        self._retry_policy = retry_policy
        self._wire = wire_fingerprint()
        self._rng = random.Random(
            zlib.crc32(f"{identity or netloc}".encode())
        )
        self._in_reconnect_hook = False
        # Outage bookkeeping persists *across* requests: an outage that
        # outlives one request's retry budget (the request raises, the
        # caller's loop retries later) is still a single outage, and
        # the reconnect hook fires exactly once when traffic recovers.
        self._outage_lock = threading.Lock()
        self._down_since: float | None = None
        self._down_failures = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _policy(self):
        if self._retry_policy is None:
            self._retry_policy = _default_retry_policy()
        return self._retry_policy

    def _send_once(
        self, method: str, path: str, body: bytes | None, ctype: str
    ):
        """One HTTP exchange: sign, send, classify protocol rejections.

        Signing happens here — per delivery attempt — so every retry
        or duplicated transport delivery carries a fresh timestamp and
        nonce and never trips the broker's replay rejection.
        """
        headers = {WIRE_HEADER: self._wire, "Content-Type": ctype}
        if self.trace_context:
            headers[TRACE_HEADER] = self.trace_context
        if self.auth_key is not None:
            headers[AUTH_HEADER] = sign_request(
                self.auth_key, method, path, body or b""
            )
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            if response.status == 409:
                detail = {}
                try:
                    detail = json.loads(data)
                except (ValueError, UnicodeDecodeError):
                    pass
                raise WireMismatchError(
                    "broker rejected wire fingerprint "
                    f"(want {detail.get('want')}, got {detail.get('got')}) — "
                    "broker and workers must run the same repro revision"
                )
            if response.status == 401:
                raise WireAuthError(
                    f"broker rejected request auth for {path!r} — "
                    "check --auth-key-file / $REPRO_FLEET_AUTH_KEY"
                )
            return response.status, dict(response.getheaders()), data
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        ctype: str = "application/octet-stream",
    ):
        """Send with bounded retries; fatal protocol errors pass through.

        A request that exhausts its retry budget raises, but the outage
        stays recorded on the client — when a *later* request finally
        gets through, the reconnect fires once for the whole outage.
        """
        policy = self._policy()
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.transport is not None:
                    out = self.transport(
                        self._send_once, method, path, body, ctype
                    )
                else:
                    out = self._send_once(method, path, body, ctype)
            except (WireMismatchError, WireAuthError):
                raise
            except RETRIABLE:
                with self._outage_lock:
                    if self._down_since is None:
                        self._down_since = time.monotonic()
                    self._down_failures += 1
                if attempt >= policy.max_attempts:
                    raise
                time.sleep(policy.backoff_s(attempt, self._rng))
                continue
            with self._outage_lock:
                recovered = self._down_since
                failures = self._down_failures
                self._down_since = None
                self._down_failures = 0
            if recovered is not None:
                self.reconnects += 1
                self._fire_reconnect(
                    failures, time.monotonic() - recovered
                )
            return out

    def _fire_reconnect(self, failures: int, outage_s: float) -> None:
        """Invoke the reconnect hook once, guarding against the hook's
        own requests recursing back here."""
        if self.on_reconnect is None or self._in_reconnect_hook:
            return
        self._in_reconnect_hook = True
        try:
            self.on_reconnect(failures, outage_s)
        except Exception:
            pass  # reporting must never take down the caller
        finally:
            self._in_reconnect_hook = False

    def _json_post(self, path: str, message: dict):
        status, headers, data = self._request(
            "POST", path, json.dumps(message).encode(), "application/json"
        )
        return status, headers, data

    # ------------------------------------------------------------------
    # broker API
    # ------------------------------------------------------------------

    def register(self, worker_id: str, capabilities: dict | None = None) -> dict:
        status, _, data = self._json_post(
            "/register",
            {"worker_id": worker_id, "capabilities": capabilities or {}},
        )
        if status != 200:
            raise BrokerError(f"register failed ({status}): {data!r}")
        return json.loads(data)

    def create_queue(self, queue: str) -> None:
        status, _, data = self._json_post("/queues", {"queue": queue})
        if status != 200:
            raise BrokerError(f"create_queue failed ({status}): {data!r}")

    def submit(
        self, queue: str, payload: bytes, task_id: str | None = None
    ) -> str:
        """Enqueue one payload under a client-generated task id.

        Generating the id here makes a retried submit (response lost to
        a broker crash) idempotent: the broker returns the existing
        task instead of queueing a twin.
        """
        task_id = task_id or uuid.uuid4().hex
        query = urllib.parse.urlencode(
            {"queue": queue, "task_id": task_id}
        )
        status, _, data = self._request("POST", f"/submit?{query}", payload)
        if status != 200:
            raise BrokerError(f"submit failed ({status}): {data!r}")
        return json.loads(data)["task_id"]

    def lease(
        self, worker_id: str, queues: list[str] | None = None
    ) -> LeaseGrant | None:
        status, headers, data = self._json_post(
            "/lease", {"worker_id": worker_id, "queues": queues}
        )
        if status != 200:
            raise BrokerError(f"lease failed ({status}): {data!r}")
        if headers.get("Content-Type") == "application/json":
            return None  # nothing to do
        return LeaseGrant(
            task_id=headers["X-Task-Id"],
            lease_id=headers["X-Lease-Id"],
            queue=headers["X-Queue"],
            ttl_s=float(headers["X-Lease-Ttl"]),
            attempt=int(headers["X-Attempt"]),
            payload=data,
            trace=headers.get(TRACE_HEADER) or None,
        )

    def heartbeat(
        self,
        lease_id: str,
        segment: bytes | None = None,
        reset: bool = False,
        offset: int | None = None,
    ) -> bool:
        """Renew one lease, optionally shipping new cell-journal bytes.

        ``offset`` is the segment's start position in the worker's
        stream (bytes acknowledged since the last reset) — the broker
        uses it to drop re-delivered bytes when a retry or duplicate
        transport delivery lands twice.
        """
        if segment is None and not reset:
            status, _, _data = self._json_post(
                "/heartbeat", {"lease_id": lease_id}
            )
            return status == 200
        query = urllib.parse.urlencode({
            "lease_id": lease_id,
            "reset": "1" if reset else "0",
            "offset": "" if offset is None else str(int(offset)),
        })
        status, _, _data = self._request(
            "POST", f"/heartbeat?{query}", segment or b""
        )
        return status == 200

    def fetch_journal(
        self, task_id: str, grant: bool = False
    ) -> tuple[bytes, int]:
        """``(streamed_journal_bytes, commits)`` buffered for one task."""
        query = urllib.parse.urlencode(
            {"task_id": task_id, "grant": "1" if grant else "0"}
        )
        status, headers, data = self._request("GET", f"/journal?{query}")
        if status != 200:
            raise BrokerError(f"journal failed ({status}): {data!r}")
        return data, int(headers.get("X-Commits", 0))

    def report_reconnect(
        self, worker: str, failures: int, outage_s: float
    ) -> None:
        """Tell the broker one outage was survived (fleet-journal row)."""
        self._json_post(
            "/reconnect",
            {
                "worker": worker,
                "failures": int(failures),
                "outage_s": float(outage_s),
            },
        )

    def complete(
        self,
        task_id: str,
        payload: bytes,
        lease_id: str | None = None,
        worker: str = "",
        exec_s: float = 0.0,
    ) -> str:
        query = urllib.parse.urlencode(
            {
                "task_id": task_id,
                "lease_id": lease_id or "",
                "worker": worker,
                "exec_s": f"{exec_s:.6f}",
            }
        )
        status, _, data = self._request("POST", f"/complete?{query}", payload)
        if status != 200:
            raise BrokerError(f"complete failed ({status}): {data!r}")
        return json.loads(data)["status"]

    def result(self, task_id: str) -> tuple[str, bytes | None]:
        """``(state, payload_or_None)``; raises ``KeyError`` on unknown."""
        status, headers, data = self._request(
            "GET", f"/result?task_id={urllib.parse.quote(task_id)}"
        )
        if status == 404:
            raise KeyError(task_id)
        if status == 202:
            return json.loads(data)["state"], None
        if status != 200:
            raise BrokerError(f"result failed ({status}): {data!r}")
        return headers.get("X-State", "done"), data

    def wait_result(
        self,
        task_id: str,
        poll_s: float = 0.05,
        timeout_s: float | None = None,
    ) -> bytes:
        """Block until one task's outcome lands (polling)."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            _state, payload = self.result(task_id)
            if payload is not None:
                return payload
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"task {task_id} not completed within {timeout_s}s"
                )
            time.sleep(poll_s)

    def stats(self) -> dict:
        status, _, data = self._request("GET", "/stats")
        if status != 200:
            raise BrokerError(f"stats failed ({status}): {data!r}")
        return json.loads(data)

    def healthz(self) -> dict:
        """Unauthenticated liveness probe (WAL seq, uptime, restarts,
        WAL-fsync age)."""
        status, _, data = self._request("GET", "/healthz")
        if status != 200:
            raise BrokerError(f"healthz failed ({status}): {data!r}")
        return json.loads(data)

    def metrics_text(self) -> str:
        """Unauthenticated ``/metrics`` Prometheus exposition body."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise BrokerError(f"metrics failed ({status}): {data!r}")
        return data.decode("utf-8", "replace")

    def shutdown(self) -> None:
        try:
            self._json_post("/shutdown", {})
        except RETRIABLE:
            pass  # broker already gone — that is the goal
