"""RemoteExecutor: the in-run evaluation fan-out, off the box.

:class:`RemoteExecutor` satisfies the same ``submit``/``wait``/
``close`` contract as :class:`repro.core.batch.engine.EvalEngine`, so
the BO loop (:func:`repro.core.batch.async_engine.run_async_loop`, in
every mode) accepts it unchanged through the optimizer's
``engine_factory`` hook::

    from repro.fleet.executor import RemoteExecutor

    opt = CorrelatedMFBO(
        space, flow, settings=settings,
        engine_factory=lambda opt: RemoteExecutor(
            opt, "http://broker:8947", benchmark="gemm"
        ),
    )

Trajectory bitwise-parity with local runs holds by construction:

- the proposal order / modeled-commit model never consults wall time,
  so *where* an evaluation ran cannot reach the trajectory — only its
  :class:`ResilientOutcome` can;
- the worker reproduces the outcome exactly: the same flow model
  (deterministic per configuration), the same retry policy, and the
  same per-job jitter stream keyed by ``(seed, step, config_index)``;
- outcomes are folded in the loop's modeled order, exactly as with the
  local thread pool.

``close()`` leaves nothing orphaned: unfinished remote tasks keep
running on their workers and complete into the broker's result store,
but this session stops polling them.
"""

from __future__ import annotations

import time
import uuid

from repro.core.batch.engine import EvalJob, EvalOutcome
from repro.fleet.client import BrokerClient
from repro.fleet.wire import dump, load
from repro.hlsim.reports import ALL_FIDELITIES

__all__ = ["RemoteExecutor"]


class RemoteExecutor:
    """Ship :class:`EvalJob`\\ s to a fleet broker; poll outcomes back.

    Built either from an optimizer (``RemoteExecutor(opt, url,
    benchmark=...)`` — takes seed and retry policy from it) or
    explicitly via keyword arguments.  Each executor owns one
    session-scoped queue (``eval.<benchmark>.<uuid>``) so concurrent
    tuning sessions on one broker never steal each other's leases and
    the broker's fair-share dispatch balances across them.
    """

    def __init__(
        self,
        opt=None,
        broker_url: str = "",
        benchmark: str = "",
        seed: int | None = None,
        retry_policy=None,
        queue: str | None = None,
        poll_s: float = 0.02,
        result_timeout_s: float | None = None,
        auth_key: bytes | None = None,
        transport=None,
    ):
        if opt is not None:
            seed = opt.settings.seed if seed is None else seed
            retry_policy = retry_policy or opt._retry_policy
        if not broker_url:
            raise ValueError("RemoteExecutor needs a broker URL")
        if not benchmark:
            raise ValueError(
                "RemoteExecutor needs the benchmark name its workers "
                "should build the evaluation context from"
            )
        self.client = BrokerClient(
            broker_url,
            auth_key=auth_key,
            transport=transport,
            identity=f"executor.{benchmark}",
        )
        self.benchmark = benchmark
        self.seed = int(seed or 0)
        self.retry_policy = retry_policy
        self.poll_s = poll_s
        self.result_timeout_s = result_timeout_s
        self.queue = queue or f"eval.{benchmark}.{uuid.uuid4().hex[:8]}"
        self.client.create_queue(self.queue)
        self._submitted: dict[int, float] = {}  # step -> submit time
        self._in_flight: dict = {f: 0 for f in ALL_FIDELITIES}
        self._closed = False

    # ------------------------------------------------------------------
    # EvalEngine contract
    # ------------------------------------------------------------------

    def in_flight_snapshot(self) -> dict[str, int]:
        return {
            f.short_name: self._in_flight[f] for f in ALL_FIDELITIES
        }

    def submit(self, job: EvalJob) -> str:
        """Queue one evaluation on the fleet; the handle is the task id."""
        if self._closed:
            raise RuntimeError("RemoteExecutor is closed")
        payload = dump(
            {
                "kind": "eval",
                "benchmark": self.benchmark,
                "job": job,
                "seed": self.seed,
                "retry_policy": self.retry_policy,
            }
        )
        task_id = self.client.submit(self.queue, payload)
        self._submitted[job.step] = time.perf_counter()
        self._in_flight[job.fidelity] += 1
        return task_id

    def wait(self, job: EvalJob, handle: str) -> EvalOutcome:
        """Block (polling) until the fleet lands this job's outcome."""
        payload = self.client.wait_result(
            handle, poll_s=self.poll_s, timeout_s=self.result_timeout_s
        )
        self._in_flight[job.fidelity] -= 1
        submitted = self._submitted.pop(job.step, None)
        result = load(payload)
        if isinstance(result, dict):  # agent-level crash, not eval-level
            return EvalOutcome(
                job=job,
                outcome=None,
                error=result.get("error", "fleet worker failed"),
                queue_wait_s=0.0,
                exec_s=0.0,
                worker=result.get("worker", "?"),
            )
        if submitted is not None:
            # Round-trip latency minus on-worker time = queue wait.
            total = time.perf_counter() - submitted
            result.queue_wait_s = max(0.0, total - result.exec_s)
        return result

    def close(self, drain_s: float | None = None) -> None:
        """Stop polling; in-flight remote work finishes server-side."""
        self._closed = True

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
