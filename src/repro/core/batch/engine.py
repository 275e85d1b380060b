"""Flow-evaluation engine: a worker pool behind a submit/wait contract.

The BO loop (:func:`repro.core.batch.async_engine.run_async_loop`)
submits each proposal as it is made and waits on whichever evaluation
it commits next, while the optimizer stays deterministic:

- **Per-worker flow clones.**  ``HlsFlow``'s LRU report cache is a
  plain ``OrderedDict`` (not thread-safe), so each worker thread lazily
  builds its own flow via ``type(flow)(kernel, schema, device)`` —
  value-identical because reports are deterministic per configuration.
  Tests can inject a ``flow_factory`` instead.
- **Completion-order-independent folding.**  :meth:`EvalEngine.wait`
  blocks on the job the *caller* names, so the loop folds outcomes in
  its own modeled order no matter which worker finishes first — the
  committed datasets, traces and final Pareto set for a fixed seed do
  not depend on worker timing.
- **Resilience.**  Worker-side evaluations run under the optimizer's
  :class:`repro.core.resilience.retry.RetryPolicy` — crashes are
  retried with backoff, retry exhaustion degrades the request down the
  fidelity ladder, and a total failure either commits through the
  punishment path or (``punish_on_failure=False``) re-raises as
  :class:`FlowEvalError` at commit time, in proposal order.  A
  per-evaluation ``timeout_s`` resubmits the job under the same
  attempt budget (threads cannot be killed, so a timed-out attempt is
  abandoned, not interrupted) and degrades fidelity when the budget
  runs out.  Exceptions outside the policy's ``retry_on`` classes stay
  fatal and carry their traceback to the commit site.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass

import numpy as np

from repro.core.batch.workers import resolve_worker_count
from repro.core.resilience.retry import (
    AttemptFailure,
    ResilientOutcome,
    RetryPolicy,
    evaluate_with_policy,
)
from repro.hlsim.flow import _stable_seed
from repro.hlsim.reports import ALL_FIDELITIES, Fidelity, FlowResult
from repro.obs.spans import NULL_SPANS

__all__ = [
    "EvalJob",
    "EvalOutcome",
    "FlowEvalError",
    "EvalEngine",
    "parallel_fidelity_sweep",
]


class FlowEvalError(RuntimeError):
    """A flow evaluation failed beyond what the retry policy absorbs."""


@dataclass(frozen=True)
class EvalJob:
    """One pending flow evaluation, identified by its proposal slot."""

    order: int
    step: int
    config_index: int
    fidelity: Fidelity


@dataclass
class EvalOutcome:
    """The realized (or failed) evaluation of one :class:`EvalJob`.

    ``outcome`` is the worker's :class:`ResilientOutcome` (retry and
    degradation accounting included); ``error`` is the traceback of a
    *fatal* exception — one the retry policy does not cover — and
    implies ``outcome is None``.
    """

    job: EvalJob
    outcome: ResilientOutcome | None
    error: str | None
    queue_wait_s: float
    exec_s: float
    worker: str

    @property
    def ok(self) -> bool:
        return self.error is None and not (
            self.outcome is not None and self.outcome.failed
        )

    @property
    def result(self) -> FlowResult | None:
        return self.outcome.result if self.outcome is not None else None

    @property
    def attempts(self) -> int:
        return self.outcome.attempts if self.outcome is not None else 1


class EvalEngine:
    """A pool of flow workers with per-fidelity in-flight bookkeeping.

    ``workers`` is clamped to the visible CPUs with a warning (pass
    ``clamp=False`` to take the count literally — tests use this to
    exercise real thread interleaving on small machines).  With one
    worker and no timeout, evaluations run inline on the calling thread
    against the *original* flow object, so the single-worker path
    shares the optimizer's own report cache exactly.
    """

    def __init__(
        self,
        space,
        flow,
        workers: int = 1,
        timeout_s: float | None = None,
        flow_factory=None,
        clamp: bool = True,
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
        spans=NULL_SPANS,
        drain_s: float = 5.0,
    ):
        if clamp:
            workers = resolve_worker_count(workers, label="eval_workers")
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.drain_s = drain_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.seed = seed
        self.spans = spans
        self._space = space
        self._flow = flow
        if flow_factory is None:
            # Prefer the flow's own clone hook — wrapper flows (fault
            # injection, instrumentation) reconstruct themselves through
            # it; the legacy constructor call only fits bare HlsFlows.
            clone = getattr(flow, "clone", None)
            flow_factory = clone if callable(clone) else (
                lambda: type(flow)(flow.kernel, flow.schema, flow.device)
            )
        self._flow_factory = flow_factory
        self._executor: ThreadPoolExecutor | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._in_flight = {f: 0 for f in ALL_FIDELITIES}
        # Futures not yet done — what close() drains before cancelling
        # (an abandoned worker mid-``flow_eval`` would orphan gtcache
        # ``.tmp`` files on interpreter exit).
        self._outstanding: set[Future] = set()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def in_flight_snapshot(self) -> dict[str, int]:
        """Per-fidelity count of evaluations currently on the pool."""
        with self._lock:
            return {f.short_name: self._in_flight[f] for f in ALL_FIDELITIES}

    def _track(self, fidelity: Fidelity, by: int) -> None:
        with self._lock:
            self._in_flight[fidelity] += by

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _worker_flow(self):
        flow = getattr(self._local, "flow", None)
        if flow is None:
            flow = self._flow_factory()
            self._local.flow = flow
        return flow

    def _job_rng(self, job: EvalJob) -> np.random.Generator:
        """Deterministic per-job backoff-jitter stream.

        Keyed by (seed, step, config) — not by worker — so retry timing
        draws are identical no matter which thread picks the job up.
        """
        return np.random.default_rng(
            _stable_seed("retry", self.seed, job.step, job.config_index)
        )

    def _run_one(self, job: EvalJob, submitted_at: float, fidelity: Fidelity):
        queue_wait = time.perf_counter() - submitted_at
        flow = self._worker_flow()
        start = time.perf_counter()
        try:
            with self.spans.span(
                "flow_eval", cat="eval", step=job.step,
                config_index=job.config_index, fidelity=fidelity.short_name,
            ):
                outcome = evaluate_with_policy(
                    flow,
                    self._space[job.config_index],
                    fidelity,
                    self.retry_policy,
                    rng=self._job_rng(job),
                )
            error = None
        except Exception:
            outcome = None
            error = traceback.format_exc()
        finally:
            self._track(fidelity, -1)
        exec_s = time.perf_counter() - start
        return (
            outcome, error, queue_wait, exec_s,
            threading.current_thread().name,
        )

    def _submit(self, job: EvalJob, fidelity: Fidelity | None = None) -> Future:
        fidelity = job.fidelity if fidelity is None else fidelity
        self._track(fidelity, +1)
        future = self._executor.submit(
            self._run_one, job, time.perf_counter(), fidelity
        )
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        return future

    def submit(self, job: EvalJob) -> "EvalOutcome | Future":
        """Start one job, returning a handle for :meth:`wait`.

        With one worker and no timeout the evaluation runs inline on
        the calling thread (sharing the optimizer's flow and its report
        cache exactly) and the handle *is* the finished
        :class:`EvalOutcome`; otherwise it is the pool future.
        """
        if self.workers == 1 and self.timeout_s is None:
            return self._evaluate_inline(job)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="eval"
            )
        return self._submit(job)

    def wait(self, job: EvalJob, handle: "EvalOutcome | Future") -> EvalOutcome:
        """Block until ``handle`` resolves (timeout-resubmit ladder included)."""
        if isinstance(handle, EvalOutcome):
            return handle
        return self._collect(job, handle)

    def _evaluate_inline(self, job: EvalJob) -> EvalOutcome:
        start = time.perf_counter()
        try:
            with self.spans.span(
                "flow_eval", cat="eval", step=job.step,
                config_index=job.config_index,
                fidelity=job.fidelity.short_name,
            ):
                outcome = evaluate_with_policy(
                    self._flow,
                    self._space[job.config_index],
                    job.fidelity,
                    self.retry_policy,
                    rng=self._job_rng(job),
                )
            error = None
        except Exception:
            outcome = None
            error = traceback.format_exc()
        return EvalOutcome(
            job=job,
            outcome=outcome,
            error=error,
            queue_wait_s=0.0,
            exec_s=time.perf_counter() - start,
            worker=threading.current_thread().name,
        )

    def _collect(self, job: EvalJob, future: Future) -> EvalOutcome:
        """Await one job, resubmitting on timeout under the retry policy.

        A timed-out attempt is charged the fidelity's nominal stage
        time (the abandoned worker really did burn it); the attempt
        budget and the fidelity-degradation ladder are shared with
        worker-side crash handling, so a hang and a crash cost the same
        number of retries.
        """
        policy = self.retry_policy
        fidelity = job.fidelity
        timeouts = 0
        level_timeouts = 0
        wasted = 0.0
        failures: list[AttemptFailure] = []
        while True:
            try:
                outcome, error, queue_wait, exec_s, worker = future.result(
                    timeout=self.timeout_s
                )
            except FutureTimeoutError:
                future.cancel()  # no-op if already running; keeps queues tidy
                timeouts += 1
                level_timeouts += 1
                wasted += float(self._flow.stage_time(fidelity))
                failures.append(
                    AttemptFailure(
                        fidelity=fidelity,
                        attempt=timeouts,
                        error=(
                            f"flow evaluation timed out "
                            f"(timeout_s={self.timeout_s})"
                        ),
                        backoff_s=0.0,
                    )
                )
                if level_timeouts < policy.max_attempts:
                    future = self._submit(job, fidelity)
                    continue
                if policy.degrade_fidelity and fidelity > Fidelity.HLS:
                    fidelity = Fidelity(int(fidelity) - 1)
                    level_timeouts = 0
                    future = self._submit(job, fidelity)
                    continue
                return EvalOutcome(
                    job=job,
                    outcome=ResilientOutcome(
                        result=None,
                        requested=job.fidelity,
                        fidelity=job.fidelity,
                        attempts=timeouts,
                        degraded=False,
                        failed=True,
                        wasted_runtime_s=wasted,
                        failures=failures,
                    ),
                    error=None,
                    queue_wait_s=0.0,
                    exec_s=float(self.timeout_s or 0.0) * timeouts,
                    worker="",
                )
            if outcome is not None and timeouts:
                # Merge timeout-side accounting into the worker's view;
                # ``requested`` stays the job's original fidelity even
                # though resubmissions may have asked for less.
                outcome = ResilientOutcome(
                    result=outcome.result,
                    requested=job.fidelity,
                    fidelity=outcome.fidelity,
                    attempts=outcome.attempts + timeouts,
                    degraded=outcome.failed is False
                    and outcome.fidelity != job.fidelity,
                    failed=outcome.failed,
                    wasted_runtime_s=outcome.wasted_runtime_s + wasted,
                    failures=failures + outcome.failures,
                )
            return EvalOutcome(
                job=job,
                outcome=outcome,
                error=error,
                queue_wait_s=queue_wait,
                exec_s=exec_s,
                worker=worker,
            )

    def close(self, drain_s: float | None = None) -> None:
        """Shut the pool down after a bounded graceful drain.

        Queued-but-unstarted futures are cancelled outright; futures
        already *running* get up to ``drain_s`` seconds (engine default
        when ``None``) to finish — an abandoned worker mid-``flow_eval``
        would orphan gtcache ``.tmp`` files on interpreter exit.  Only
        then does the hard ``cancel_futures`` shutdown fire.
        """
        if self._executor is None:
            return
        drain_s = self.drain_s if drain_s is None else drain_s
        for future in list(self._outstanding):
            future.cancel()  # no-op for the ones already running
        remaining = {f for f in self._outstanding if not f.done()}
        if remaining and drain_s > 0:
            futures_wait(remaining, timeout=drain_s)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None

    def __enter__(self) -> "EvalEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# standalone sweep helper (fig. 5 driver)
# ----------------------------------------------------------------------


def parallel_fidelity_sweep(space, flow=None, workers: int = 1):
    """Chunked, order-preserving parallel version of ``fidelity_sweep``.

    Reports are deterministic per configuration, so splitting the space
    across per-thread flow clones returns matrices ``==`` the
    sequential sweep's.  Falls back to the sequential sweep at one
    worker (or for tiny spaces where threads cannot pay for themselves).
    """
    import numpy as np

    from repro.hlsim.flow import HlsFlow, fidelity_sweep

    flow = flow or HlsFlow.for_space(space)
    workers = resolve_worker_count(workers, label="eval_workers")
    n = len(space)
    if workers == 1 or n < 2 * workers:
        return fidelity_sweep(space, flow)

    configs = space.configs

    def sweep_chunk(lo: int, hi: int):
        local = type(flow)(flow.kernel, flow.schema, flow.device)
        chunk = {f: [] for f in ALL_FIDELITIES}
        for config in configs[lo:hi]:
            reports = local.reports(config)
            for fidelity in ALL_FIDELITIES:
                chunk[fidelity].append(reports[int(fidelity)].objectives())
        return chunk

    bounds = [
        (i * n // workers, (i + 1) * n // workers) for i in range(workers)
    ]
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="sweep"
    ) as pool:
        chunks = list(pool.map(lambda b: sweep_chunk(*b), bounds))
    rows = {f: [] for f in ALL_FIDELITIES}
    for chunk in chunks:
        for fidelity in ALL_FIDELITIES:
            rows[fidelity].extend(chunk[fidelity])
    return {f: np.vstack(rows[f]) for f in ALL_FIDELITIES}
