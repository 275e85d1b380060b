"""The one way an experiment driver runs its cell grid.

The paper's evaluation protocol (Sec. V, Table I) is embarrassingly
parallel: every (benchmark × method × repeat) cell is an independent
run with its own deterministic seed (:func:`repro.experiments.harness.
method_seed`).  Every driver (``table1``, ``fig5``, ``fig8``,
``ablations``) builds its cells as a list of :class:`Job` and hands it
to :func:`run_jobs`, at any ``--workers``: one worker runs the cells
inline, more fan them out over a ``ProcessPoolExecutor``.  Both modes
go through the same wrapper and produce the same numbers:

- every job carries its own seed, whatever process runs it;
- each job's ADRS/runtime are computed with the same code
  (:func:`repro.experiments.harness.run_method`);
- outcomes land, and are aggregated, in job *submission* order, never
  completion order;
- per-job trace files are named per (benchmark, method, seed), so
  concurrent writers never collide.

A job exception does not abort the sweep: the failing job's identity
and traceback are captured in its :class:`JobOutcome` and the remaining
jobs run to completion; :func:`raise_failures` turns failures into one
``RuntimeError`` listing every failed job.

Sweeps are interruptible and resumable: with a ``snapshot_dir``, every
completed cell's value is pickled atomically as it lands, and a
``resume=True`` rerun restores finished cells from their snapshots
(``gt_cache == "snapshot"`` in the job trace) instead of recomputing —
so ``SIGTERM``-ing a 100-cell sweep at cell 60 costs 60 cells, not 100.
``SIGTERM`` is converted to a clean ``SystemExit`` via
:func:`repro.core.resilience.signals.terminate_on_signals`, worker
processes are terminated promptly (no orphan pool), and atomic snapshot
writes never leave ``.tmp`` debris behind.

Worker-level timing (queue wait, execution time, worker pid, ground-
truth cache hit/miss) is recorded as ``event == "job"`` lines of the
:mod:`repro.obs.trace` schema (:data:`repro.obs.trace.JOB_TRACE_FIELDS`).
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import multiprocessing

from repro.core.batch.workers import mark_pool_worker, resolve_worker_count
from repro.core.resilience.signals import terminate_on_signals
from repro.fleet.wal import durable_replace
from repro.hlsim.gtcache import GT_SNAPSHOT
from repro.experiments.harness import (
    BenchmarkContext,
    ExperimentScale,
    MethodRun,
    method_seed,
    run_method,
)
from repro.obs.trace import (
    JOB_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
)


@dataclass(frozen=True)
class Job:
    """One unit of parallel work, identified by (benchmark, method, repeat).

    ``fn`` must be a module-level callable (picklable under every
    multiprocessing start method); ``kwargs`` are its keyword arguments.
    """

    benchmark: str
    method: str
    repeat: int
    fn: Callable[..., Any] = field(compare=False)
    kwargs: Mapping[str, Any] = field(default_factory=dict, compare=False)

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.benchmark, self.method, self.repeat)


@dataclass
class JobOutcome:
    """What one job produced, plus its worker-level timing."""

    job: Job
    value: Any = None
    error: str | None = None
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    worker: int = 0  # worker process id
    gt_cache: str = "unknown"  # "computed" | "disk-hit" | "unknown"
    t_start: float | None = None  # epoch second the job began executing

    @property
    def ok(self) -> bool:
        return self.error is None


def _invoke(job: Job, submitted_at: float) -> JobOutcome:
    """Run one job in the current process (worker-side wrapper).

    Exceptions are captured as a formatted traceback so a crashing job
    surfaces its identity without poisoning the pool.
    """
    t_start = time.time()
    queue_wait = max(0.0, t_start - submitted_at)
    started = time.perf_counter()
    value: Any = None
    error: str | None = None
    try:
        value = job.fn(**job.kwargs)
    except Exception:
        error = traceback.format_exc()
    exec_s = time.perf_counter() - started
    ctx = BenchmarkContext.peek(job.benchmark)
    return JobOutcome(
        job=job,
        value=value,
        error=error,
        queue_wait_s=queue_wait,
        exec_s=exec_s,
        worker=os.getpid(),
        gt_cache=getattr(ctx, "gt_source", "unknown"),
        t_start=t_start,
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap workers that inherit warm caches),
    spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def prewarm_contexts(
    names: tuple[str, ...] | list[str],
    cache_dir: str | Path | None,
) -> None:
    """Build benchmark contexts (ground truth) once, in this process.

    Called before the pool starts: with ``fork`` the workers inherit
    the warm in-memory contexts for free; with ``spawn`` (or across
    invocations) they load the persisted ground truth from
    ``cache_dir`` instead of recomputing the exhaustive sweep.
    """
    for name in dict.fromkeys(names):  # de-dup, keep order
        BenchmarkContext.get(name, cache_dir=cache_dir)


def snapshot_path(snapshot_dir: str | Path, job: Job) -> Path:
    """Where one cell's completed value is persisted."""
    return (
        Path(snapshot_dir)
        / f"{job.benchmark}.{job.method}.r{job.repeat}.snapshot.pkl"
    )


def _load_snapshot(path: Path) -> Any:
    """Unpickle a cell snapshot; a corrupt one is deleted, not trusted."""
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    except Exception:
        path.unlink(missing_ok=True)
        return None


def _save_snapshot(path: Path, value: Any) -> None:
    """Atomic, fsync'd pickle write (:func:`repro.fleet.wal.durable_replace`)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    durable_replace(path, lambda out: pickle.dump(value, out))


def run_jobs(
    jobs: list[Job],
    workers: int = 1,
    trace_path: str | Path | None = None,
    cache_dir: str | Path | None = None,
    prewarm: bool = True,
    snapshot_dir: str | Path | None = None,
    resume: bool = False,
    on_land: Callable[[JobOutcome], None] | None = None,
) -> list[JobOutcome]:
    """Execute jobs, possibly in parallel; outcomes in submission order.

    ``workers`` is clamped to ``[1, visible CPUs]`` with a warning
    (``--workers 0`` or an oversubscribed count degrades, never
    crashes); one worker runs everything inline (same wrapper, same
    outcome records, same snapshots and job trace as a pool).
    Failures never abort the sweep; inspect ``outcome.error`` or call
    :func:`raise_failures`.  ``on_land`` sees every outcome — restored,
    computed or failed — in submission order as it lands, so a
    progress line streams at any worker count.

    With ``snapshot_dir``, each successful cell is pickled as it
    completes; ``resume=True`` restores previously snapshotted cells
    (``gt_cache == "snapshot"``) and only runs the remainder.  Cell
    values are deterministic per (benchmark, method, seed), so a
    resumed sweep aggregates to the same numbers as an uninterrupted
    one.  ``SIGTERM`` during the sweep raises ``SystemExit`` at the
    next bookkeeping point and terminates worker processes promptly.
    """
    workers = resolve_worker_count(workers, label="workers")
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    if snapshot_dir is not None and resume:
        for index, job in enumerate(jobs):
            path = snapshot_path(snapshot_dir, job)
            if path.is_file():
                value = _load_snapshot(path)
                if value is not None:
                    outcomes[index] = JobOutcome(
                        job=job, value=value, gt_cache=GT_SNAPSHOT
                    )
    pending = [
        (index, job)
        for index, job in enumerate(jobs)
        if outcomes[index] is None
    ]
    if prewarm and pending:
        prewarm_contexts([job.benchmark for _, job in pending], cache_dir)

    reported = 0

    def report() -> None:
        """Hand the landed prefix of ``outcomes`` to ``on_land``."""
        nonlocal reported
        while reported < len(jobs) and outcomes[reported] is not None:
            if on_land is not None:
                on_land(outcomes[reported])
            reported += 1

    def land(index: int, outcome: JobOutcome) -> None:
        outcomes[index] = outcome
        if snapshot_dir is not None and outcome.ok:
            _save_snapshot(snapshot_path(snapshot_dir, outcome.job),
                           outcome.value)
        report()

    report()  # cells restored ahead of the first pending one
    if workers <= 1 or len(pending) <= 1:
        with terminate_on_signals():
            for index, job in pending:
                land(index, _invoke(job, time.time()))
    else:
        # The workers fill the cores, so each scores its acquisition
        # inline rather than on a helper thread.
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=_pool_context(),
            initializer=mark_pool_worker,
        )
        try:
            with terminate_on_signals():
                futures = {
                    pool.submit(_invoke, job, time.time()): index
                    for index, job in pending
                }
                for future, index in futures.items():
                    try:
                        outcome = future.result()
                    except Exception as exc:  # pool crash (e.g. OOM kill)
                        outcome = JobOutcome(
                            job=jobs[index],
                            error=f"worker process failed: {exc!r}",
                        )
                    land(index, outcome)
        except BaseException:
            # Interrupted (signal / KeyboardInterrupt) or broken:
            # drop queued work and kill workers now rather than
            # waiting out their current cells.
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in list((pool._processes or {}).values()):
                proc.terminate()
            raise
        else:
            pool.shutdown(wait=True)
    if trace_path is not None:
        _write_job_trace(trace_path, outcomes, workers)
    return outcomes


def raise_failures(outcomes: list[JobOutcome]) -> None:
    """Raise one ``RuntimeError`` naming every failed job (if any)."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    summary = "; ".join(
        "/".join(map(str, o.job.key)) for o in failed
    )
    details = "\n\n".join(
        f"--- {'/'.join(map(str, o.job.key))} ---\n{o.error}" for o in failed
    )
    raise RuntimeError(
        f"{len(failed)} of {len(outcomes)} jobs failed: {summary}\n{details}"
    )


def job_trace_path(trace_dir: str | Path | None, name: str) -> Path | None:
    """A driver's job trace, ``{trace_dir}/{name}.jobs.jsonl`` (or none)."""
    return Path(trace_dir) / f"{name}.jobs.jsonl" if trace_dir else None


def _write_job_trace(
    path: str | Path, outcomes: list[JobOutcome], workers: int
) -> None:
    """One ``event == "job"`` line per job, in submission order."""
    # A fully restored sweep runs no cell, so nothing else made the dir.
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with JsonlTraceWriter(path) as writer:
        for outcome in outcomes:
            record = {
                "v": TRACE_SCHEMA_VERSION,
                "event": "job",
                "benchmark": outcome.job.benchmark,
                "method": outcome.job.method,
                "repeat": outcome.job.repeat,
                "workers": workers,
                "worker": outcome.worker,
                "queue_wait_s": outcome.queue_wait_s,
                "exec_s": outcome.exec_s,
                "t_start": outcome.t_start,
                "gt_cache": outcome.gt_cache,
                "ok": outcome.ok,
                "error": (
                    outcome.error.strip().splitlines()[-1]
                    if outcome.error
                    else None
                ),
            }
            assert set(record) == set(JOB_TRACE_FIELDS)
            writer.write(record)


# ----------------------------------------------------------------------
# harness job functions (module-level: picklable under spawn)
# ----------------------------------------------------------------------


def run_method_job(
    benchmark: str,
    method: str,
    scale: ExperimentScale,
    seed: int,
    trace_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> MethodRun:
    """Worker body for one (benchmark, method, seed) experiment cell."""
    ctx = BenchmarkContext.get(benchmark, cache_dir=cache_dir)
    return run_method(
        ctx, method, scale, seed, trace_dir=trace_dir,
        journal_dir=journal_dir, resume=resume,
    )


def method_jobs(
    benchmarks: tuple[str, ...],
    methods: tuple[str, ...],
    scale: ExperimentScale,
    base_seed: int,
    trace_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> list[Job]:
    """The full job list of a Table-1-style sweep, in aggregation order."""
    jobs = []
    for benchmark in benchmarks:
        for method in methods:
            for repeat in range(scale.n_repeats):
                jobs.append(
                    Job(
                        benchmark=benchmark,
                        method=method,
                        repeat=repeat,
                        fn=run_method_job,
                        kwargs=dict(
                            benchmark=benchmark,
                            method=method,
                            scale=scale,
                            seed=method_seed(base_seed, method, repeat),
                            trace_dir=trace_dir,
                            cache_dir=cache_dir,
                            journal_dir=journal_dir,
                            resume=resume,
                        ),
                    )
                )
    return jobs


def _group_method_runs(
    benchmarks: tuple[str, ...],
    methods: tuple[str, ...],
    outcomes: list[JobOutcome],
) -> dict[str, dict[str, list[MethodRun]]]:
    """Outcomes -> {benchmark: {method: [runs in repeat order]}}."""
    grouped: dict[str, dict[str, list[MethodRun]]] = {
        b: {m: [] for m in methods} for b in benchmarks
    }
    for outcome in outcomes:
        if outcome.ok:
            grouped[outcome.job.benchmark][outcome.job.method].append(
                outcome.value
            )
    return grouped


def print_method_run(outcome: JobOutcome) -> None:
    """The per-cell result line of a :class:`MethodRun` job.

    ``  bench/method repeat r: ADRS=… time=…h [worker …]`` — the format
    ``python -m repro.obs.report --log`` parses.  Failed cells print
    nothing here; :func:`raise_failures` names them after the sweep.
    """
    if not outcome.ok:
        return
    run: MethodRun = outcome.value
    print(
        f"  {outcome.job.benchmark}/{outcome.job.method} "
        f"repeat {outcome.job.repeat}: ADRS={run.adrs:.4f} "
        f"time={run.runtime_s / 3600:.2f}h "
        f"[worker {outcome.worker}, wait {outcome.queue_wait_s:.2f}s, "
        f"gt {outcome.gt_cache}]",
        flush=True,
    )
