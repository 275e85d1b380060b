"""Fleet wire format: pickled payloads behind a pinned schema guard.

Broker, workers and schedulers exchange :class:`repro.experiments.
parallel.Job` / ``JobOutcome`` and :class:`repro.core.batch.engine.
EvalJob` / ``EvalOutcome`` objects as pickles (the Job/JobOutcome layer
is pickle-clean by construction — the process-pool engine has shipped
them across processes since PR 2).  Pickle is fine between our own
trusted processes on a private network, but it is *silently* wrong
under version skew: an old worker can unpickle a new ``Job`` whose
semantics changed and corrupt a sweep without a single exception.

The guard: :data:`PINNED_FIELDS` pins the dataclass field sets of every
type that crosses the wire, and :func:`wire_fingerprint` hashes the pin
together with :data:`WIRE_VERSION`.  Every worker sends the fingerprint
when registering (and every HTTP request carries it in the
``X-Repro-Wire`` header); the broker rejects a mismatch with ``409``.
Because the pin is a *literal* — not introspected at runtime — the
broker stays stdlib-only, and the golden test
(``tests/test_fleet.py``) fails whenever the live dataclasses drift
from the pin, forcing a deliberate :data:`WIRE_VERSION` bump.

Changing any pinned field set MUST bump ``WIRE_VERSION``.

**Authenticated wire.**  Next to the fingerprint, every request can
carry a shared-key HMAC in ``X-Repro-Auth``, formatted
``<timestamp>:<nonce>:<mac>``: HMAC-SHA256 of a canonical request
digest (method, path+query, the wire fingerprint, the timestamp, the
random per-request nonce, and the body — length-framed so no field can
masquerade as another).  Verification is constant-time and the server
additionally rejects stale timestamps (outside
:data:`AUTH_FRESHNESS_S`) and nonces it has already accepted within
the freshness window (:class:`NonceCache`), so a captured request —
``/shutdown``, ``/submit`` — cannot be replayed verbatim later.  A
broker started with a key rejects failures with ``401`` (surfaced
client-side as ``WireAuthError``); health probes stay open so monitors
and CI readiness checks need no key.  Keys load from
``--auth-key-file`` or the ``REPRO_FLEET_AUTH_KEY`` /
``REPRO_FLEET_AUTH_KEY_FILE`` environment variables
(:func:`load_auth_key`), identically on broker, worker, scheduler and
client.

**Threat model.**  The MAC proves the sender holds the fleet key and
the request was built within the freshness window; it does not
encrypt, and two brokers sharing one key cannot tell each other's
traffic apart — a fresh request signed for broker A verifies on
broker B within the window.  Run one key per fleet (the intended
deployment) and the wire defends against cross-fleet traffic,
key-less tampering, and verbatim replay; it is not a substitute for
network-level isolation against an active in-path attacker.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import time

__all__ = [
    "AUTH_FRESHNESS_S",
    "AUTH_HEADER",
    "AUTH_KEY_ENV",
    "AUTH_KEY_FILE_ENV",
    "MAX_WAIT_S",
    "NonceCache",
    "PINNED_FIELDS",
    "TRACE_HEADER",
    "WIRE_HEADER",
    "WIRE_VERSION",
    "dump",
    "live_fields",
    "load",
    "load_auth_key",
    "request_mac",
    "sign_request",
    "verify_request_auth",
    "wire_fingerprint",
]

#: Bump whenever a pinned type gains/loses/renames a field, or its
#: semantics change incompatibly.  v2: survivability protocol —
#: client-generated task ids on /submit (idempotent retry), journal
#: segments on /heartbeat, /journal resume fetch, HMAC auth.
WIRE_VERSION = 2

#: HTTP header carrying the wire fingerprint on every fleet request.
WIRE_HEADER = "X-Repro-Wire"

#: HTTP header carrying ``<timestamp>:<nonce>:<mac>`` when a shared
#: key is set.
AUTH_HEADER = "X-Repro-Auth"

#: HTTP header carrying the fleet trace context,
#: ``"<trace_id>:<parent_span_id>"`` — stamped by the scheduler on
#: ``/submit``, stored against the task, echoed on the ``/lease``
#: response and adopted by the worker so every cell's spans parent
#: into the originating session.  Pure telemetry: optional, additive
#: (no :data:`WIRE_VERSION` bump) and outside the request MAC — a
#: stripped or altered context degrades the merged timeline, never
#: the work.
TRACE_HEADER = "X-Repro-Trace"

#: Signed-timestamp acceptance window, seconds either side of the
#: verifier's clock.  Wide enough for rack-local clock drift and a
#: broker restart mid-request; narrow enough that a captured request
#: goes stale quickly.
AUTH_FRESHNESS_S = 120.0

#: Longest server-side wait one ``/lease`` or ``/result`` request may
#: ask for.  The broker clamps every requested wait to it, below the
#: client's default 30 s socket timeout, so a request blocked at the
#: broker never reads as a dead broker.
MAX_WAIT_S = 20.0

#: Environment fallbacks for the shared key (value, or a file path).
AUTH_KEY_ENV = "REPRO_FLEET_AUTH_KEY"
AUTH_KEY_FILE_ENV = "REPRO_FLEET_AUTH_KEY_FILE"

#: The dataclass field sets (in declaration order) of every type that
#: crosses the broker.  A pure literal so the broker never imports
#: numpy; kept honest by the golden test against :func:`live_fields`.
PINNED_FIELDS: dict[str, tuple[str, ...]] = {
    "Job": ("benchmark", "method", "repeat", "fn", "kwargs"),
    "JobOutcome": (
        "job",
        "value",
        "error",
        "queue_wait_s",
        "exec_s",
        "worker",
        "gt_cache",
        "t_start",
    ),
    "EvalJob": ("order", "step", "config_index", "fidelity"),
    "EvalOutcome": (
        "job",
        "outcome",
        "error",
        "queue_wait_s",
        "exec_s",
        "worker",
    ),
    "ResilientOutcome": (
        "result",
        "requested",
        "fidelity",
        "attempts",
        "degraded",
        "failed",
        "wasted_runtime_s",
        "failures",
    ),
}

#: Fixed pickle protocol so mixed-Python fleets agree on the framing.
PICKLE_PROTOCOL = 4


def wire_fingerprint() -> str:
    """Hex digest of the wire version plus every pinned field set."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"wire-v{WIRE_VERSION}".encode())
    for name in sorted(PINNED_FIELDS):
        h.update(name.encode())
        for field in PINNED_FIELDS[name]:
            h.update(b"." + field.encode())
    return h.hexdigest()


def load_auth_key(path: str | None = None) -> bytes | None:
    """The shared fleet key, or ``None`` (open wire, trusted network).

    Priority: explicit ``path`` (``--auth-key-file``), then the
    ``REPRO_FLEET_AUTH_KEY`` value, then a path in
    ``REPRO_FLEET_AUTH_KEY_FILE``.  Surrounding whitespace is stripped
    so a trailing newline in the key file is harmless.
    """
    if path:
        return _read_key_file(path)
    value = os.environ.get(AUTH_KEY_ENV)
    if value:
        return value.strip().encode()
    file_path = os.environ.get(AUTH_KEY_FILE_ENV)
    if file_path:
        return _read_key_file(file_path)
    return None


def _read_key_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        key = handle.read().strip()
    if not key:
        raise ValueError(f"auth key file {path!r} is empty")
    return key


def request_mac(
    key: bytes, method: str, path: str, body: bytes, ts: str, nonce: str
) -> str:
    """Hex HMAC of the canonical request digest under ``key``.

    The digest length-frames every field (method, path+query, wire
    fingerprint, timestamp, nonce, body), so no concatenation
    ambiguity lets one request authenticate as another, and neither
    the timestamp nor the nonce can be swapped without invalidating
    the MAC.
    """
    h = hashlib.blake2b(digest_size=32)
    for part in (
        method.encode(),
        path.encode(),
        wire_fingerprint().encode(),
        ts.encode(),
        nonce.encode(),
        body or b"",
    ):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return hmac.new(key, h.digest(), hashlib.sha256).hexdigest()


def sign_request(
    key: bytes,
    method: str,
    path: str,
    body: bytes,
    now: float | None = None,
    nonce: str | None = None,
) -> str:
    """The full ``X-Repro-Auth`` value: ``<timestamp>:<nonce>:<mac>``.

    Called per *delivery attempt* (inside the client's single-shot
    sender), so every retry or duplicated transport delivery carries a
    fresh timestamp and nonce and is never mistaken for a replay.
    """
    ts = f"{time.time() if now is None else now:.3f}"
    nonce = nonce or os.urandom(8).hex()
    return f"{ts}:{nonce}:{request_mac(key, method, path, body, ts, nonce)}"


class NonceCache:
    """Accepted-nonce memory bounding verbatim replay server-side.

    Remembers each accepted ``(nonce, expiry)`` for the freshness
    window; a second request reusing an accepted nonce is a replay and
    fails verification.  Expired entries are pruned on every check and
    the cache is capped (oldest-expiry eviction) so a chatty fleet
    cannot grow it without bound.  Not thread-safe on its own — the
    broker calls it under its state lock.
    """

    def __init__(self, capacity: int = 16384):
        self.capacity = int(capacity)
        self._seen: dict[str, float] = {}

    def admit(self, nonce: str, now: float, ttl_s: float) -> bool:
        """``True`` and remember the nonce, or ``False`` on a replay."""
        expired = [n for n, exp in self._seen.items() if exp <= now]
        for n in expired:
            del self._seen[n]
        if nonce in self._seen:
            return False
        if len(self._seen) >= self.capacity:
            for n, _exp in sorted(self._seen.items(), key=lambda kv: kv[1])[
                : len(self._seen) - self.capacity + 1
            ]:
                del self._seen[n]
        self._seen[nonce] = now + ttl_s
        return True


def verify_request_auth(
    key: bytes,
    method: str,
    path: str,
    body: bytes,
    header: str | None,
    now: float | None = None,
    freshness_s: float = AUTH_FRESHNESS_S,
    nonces: NonceCache | None = None,
) -> bool:
    """Verify one request's ``X-Repro-Auth`` header.

    Checks, in order: the MAC (constant-time, covering the claimed
    timestamp and nonce), timestamp freshness against the verifier's
    clock, and — when ``nonces`` is given — that the nonce has not been
    accepted before within the window.
    """
    ts, sep_a, rest = (header or "").partition(":")
    nonce, sep_b, mac = rest.partition(":")
    if not (sep_a and sep_b and ts and nonce and mac):
        return False
    want = request_mac(key, method, path, body, ts, nonce)
    if not hmac.compare_digest(want, mac):
        return False
    try:
        stamped = float(ts)
    except ValueError:
        return False
    clock = time.time() if now is None else now
    if abs(clock - stamped) > freshness_s:
        return False
    if nonces is not None and not nonces.admit(nonce, clock, freshness_s):
        return False
    return True


def live_fields() -> dict[str, tuple[str, ...]]:
    """The *actual* field sets of the pinned dataclasses.

    Imports the runtime (numpy and all) — called by workers at startup
    and by the golden test, never by the broker.
    """
    import dataclasses

    from repro.core.batch.engine import EvalJob, EvalOutcome
    from repro.core.resilience.retry import ResilientOutcome
    from repro.experiments.parallel import Job, JobOutcome

    return {
        cls.__name__: tuple(
            f.name for f in dataclasses.fields(cls)
        )
        for cls in (Job, JobOutcome, EvalJob, EvalOutcome, ResilientOutcome)
    }


def check_wire_schema() -> None:
    """Raise ``RuntimeError`` when the live dataclasses drift from the pin.

    Workers call this before registering so a worker built from a
    different revision refuses to serve rather than silently
    mis-interpreting payloads.
    """
    live = live_fields()
    if live != PINNED_FIELDS:
        drift = {
            name: (PINNED_FIELDS.get(name), live.get(name))
            for name in sorted(set(PINNED_FIELDS) | set(live))
            if PINNED_FIELDS.get(name) != live.get(name)
        }
        raise RuntimeError(
            "fleet wire schema drift — bump repro.fleet.wire.WIRE_VERSION "
            f"and re-pin PINNED_FIELDS; drifted: {drift}"
        )


def dump(obj: object) -> bytes:
    """Serialize one payload for the wire."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def load(data: bytes) -> object:
    """Deserialize one payload off the wire (trusted peers only)."""
    return pickle.loads(data)
