"""Distributed tuning fleet: broker, workers, scheduler.

The fleet takes both fan-out layers of the runtime off the single box:

- :mod:`repro.fleet.broker` — a stdlib-only work-queue broker
  (``python -m repro.fleet.broker``): named job queues, worker
  registration with capabilities, heartbeat-renewed lease TTLs, and
  re-issue of expired leases.  A SIGKILL'd worker costs one lease
  timeout, not a run — re-execution is bitwise-safe by construction.
- :mod:`repro.fleet.worker` — the worker agent
  (``python -m repro.fleet.worker``): leases tasks, runs experiment
  cells through the same :func:`repro.experiments.parallel._invoke`
  wrapper the process pool uses, and in-run flow evaluations through
  the same retry policy / deterministic jitter stream
  :class:`repro.core.batch.engine.EvalEngine` uses, then streams the
  pickled outcome back.
- :mod:`repro.fleet.executor` — :class:`RemoteExecutor`, a drop-in for
  the in-run :class:`~repro.core.batch.engine.EvalEngine` (same
  submit/wait/close contract), so the BO loop (``run_async_loop``,
  in every mode) evaluates on the fleet while the modeled commit
  order keeps trajectories bitwise identical to local runs.
- :mod:`repro.fleet.schedule` — the multi-session scheduler
  (``python -m repro.fleet.schedule``): multiplexes many concurrent
  tuning sessions over one fleet (fair-share lease dispatch lives in
  the broker) over a shared, sharded ground-truth cache.

Everything speaks the pickle wire format of :mod:`repro.fleet.wire`;
version skew between broker and workers fails loudly at registration
instead of corrupting a sweep.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "BrokerClient",
    "FleetBroker",
    "FleetWorker",
    "RemoteExecutor",
    "SessionSpec",
    "WalWriter",
    "read_wal",
]

# Lazy exports (PEP 562): the broker/monitor side imports without
# numpy or scipy (numpy loads with the first front it folds); the
# worker/executor side pulls the full runtime.
__getattr__ = lazy_exports(globals(), {
    "repro.fleet.client": ("BrokerClient",),
    "repro.fleet.broker": ("FleetBroker",),
    "repro.fleet.worker": ("FleetWorker",),
    "repro.fleet.executor": ("RemoteExecutor",),
    "repro.fleet.schedule": ("SessionSpec",),
    "repro.fleet.wal": ("WalWriter", "read_wal"),
})
