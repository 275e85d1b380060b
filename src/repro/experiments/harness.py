"""Experiment harness: run every method on every benchmark, score ADRS.

The harness owns the evaluation protocol of paper Sec. V:

- ground truth is the *post-implementation* objective matrix of the
  entire pruned design space (the simulator makes this affordable; the
  authors likewise exhaustively characterized their spaces to compute
  the "real Pareto set");
- each method returns a learned Pareto set of configuration indices;
  ADRS (Eq. (11)) is computed between the *true* implementation-fidelity
  values of those configurations and the real Pareto front — identical
  scoring for every method;
- runtime is the simulated tool time each method paid.

Scales: ``PAPER_SCALE`` mirrors the paper's setup (10 repeats, 8 initial
points, 40 BO steps, 48-point training sets); ``SMALL_SCALE`` (default
for the command-line drivers) and ``SMOKE_SCALE`` (tests, pytest
benchmarks) shrink repeats and budgets so everything runs offline in
minutes and seconds respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines.ann import MLPRegressor
from repro.baselines.boosting import GradientBoostingRegressor
from repro.baselines.common import run_offline_regression
from repro.baselines.dac19 import run_dac19
from repro.baselines.fpl18 import fpl18_settings
from repro.baselines.random_search import run_random_search
from repro.benchsuite.registry import benchmark_names, get_space
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.core.pareto import pareto_front
from repro.core.result import OptimizationResult
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow
from repro.hlsim.gtcache import load_or_compute_ground_truth
from repro.metrics.adrs import adrs
from repro.obs.trace import JsonlTraceWriter


@dataclass(frozen=True)
class ExperimentScale:
    """Budget knobs shared by all methods in one experiment."""

    n_repeats: int = 3
    n_iter: int = 30
    n_init: tuple[int, int, int] = (8, 6, 4)
    n_mc_samples: int = 64
    candidate_pool: int | None = 192
    refit_every: int = 1
    n_train: int = 48
    dac19_sets: int = 7
    ann_epochs: int = 1500
    bt_estimators: int = 120
    bt_depth: int = 3
    bt_learning_rate: float = 0.2
    # In-run batch mode (repro.core.batch): candidates proposed per BO
    # round and flow workers evaluating them.  1/1 keeps the sequential
    # loop (bitwise-identical results).
    batch_size: int = 1
    eval_workers: int = 1
    # Async pipeline (repro.core.batch.async_engine): commit-as-completed
    # with an adaptive in-flight target (``async_engine=True``) or a
    # pinned one (``inflight_target``, implies async).  Deterministic on
    # a modeled clock; ``inflight_target=1`` is bitwise the sequential
    # loop.
    async_engine: bool = False
    inflight_target: int | None = None
    # Resilience knobs (repro.core.resilience): flow-crash retry budget
    # per fidelity, base backoff between attempts, and whether retry
    # exhaustion degrades down the fidelity ladder instead of failing.
    retry_max_attempts: int = 3
    retry_backoff_s: float = 0.0
    degrade_on_failure: bool = True
    # Telemetry (repro.obs.spans): record nested spans into the per-run
    # trace file.  Off by default; spans only read clocks, so enabling
    # them does not change selections.
    trace_spans: bool = False

    def bo_settings(
        self,
        seed: int,
        journal_path: str | Path | None = None,
        resume: bool = False,
    ) -> MFBOSettings:
        """Settings for one BO run; ``journal_path`` enables crash-safe
        checkpointing and ``resume=True`` replays an existing journal."""
        return MFBOSettings(
            n_init=self.n_init,
            n_iter=self.n_iter,
            n_mc_samples=self.n_mc_samples,
            candidate_pool=self.candidate_pool,
            refit_every=self.refit_every,
            batch_size=self.batch_size,
            eval_workers=self.eval_workers,
            async_engine=self.async_engine,
            inflight_target=self.inflight_target,
            retry_max_attempts=self.retry_max_attempts,
            retry_backoff_s=self.retry_backoff_s,
            degrade_on_failure=self.degrade_on_failure,
            trace_spans=self.trace_spans,
            journal_path=str(journal_path) if journal_path else None,
            resume_from=(
                str(journal_path) if journal_path and resume else None
            ),
            seed=seed,
        )


#: The paper's experimental setup (Sec. V-B).
PAPER_SCALE = ExperimentScale(
    n_repeats=10,
    n_iter=40,
    n_init=(8, 6, 4),
    n_mc_samples=96,
    candidate_pool=256,
    n_train=48,
    dac19_sets=7,
    ann_epochs=3000,
)

#: Offline-friendly default: same protocol, smaller budgets.
SMALL_SCALE = ExperimentScale()

#: Seconds-scale budgets for tests and pytest benchmarks.
SMOKE_SCALE = ExperimentScale(
    n_repeats=1,
    n_iter=6,
    n_init=(6, 4, 3),
    n_mc_samples=24,
    candidate_pool=48,
    refit_every=2,
    n_train=16,
    dac19_sets=2,
    ann_epochs=300,
    bt_estimators=40,
)


class BenchmarkContext:
    """A benchmark's space, flow and exhaustive ground truth (cached).

    Two cache layers keep the exhaustive sweep rare: a per-process
    memo (``_cache``) and, when ``cache_dir`` is given, the persistent
    on-disk store of :mod:`repro.hlsim.gtcache` shared across processes
    and invocations.  ``gt_source`` records where this context's ground
    truth came from (``"computed"`` or ``"disk-hit"``) — surfaced in
    the parallel engine's per-job trace records.
    """

    _cache: dict[str, "BenchmarkContext"] = {}

    def __init__(
        self,
        name: str,
        space: DesignSpace,
        cache_dir: str | Path | None = None,
    ):
        self.name = name
        self.space = space
        self.flow = HlsFlow.for_space(space)
        self.Y_true, self.valid, self.gt_source = (
            load_or_compute_ground_truth(space, self.flow, cache_dir)
        )
        self.true_front = pareto_front(self.Y_true[self.valid])

    @classmethod
    def get(
        cls, name: str, cache_dir: str | Path | None = None
    ) -> "BenchmarkContext":
        if name not in cls._cache:
            cls._cache[name] = cls(name, get_space(name), cache_dir=cache_dir)
        return cls._cache[name]

    @classmethod
    def peek(cls, name: str) -> "BenchmarkContext | None":
        """The already-built context for a benchmark, if any."""
        return cls._cache.get(name)

    @classmethod
    def clear_cache(cls) -> None:
        cls._cache.clear()

    def score(self, result: OptimizationResult) -> float:
        """ADRS of a method's learned Pareto set against ground truth."""
        learned_idx = result.pareto_indices()
        if not learned_idx:
            raise ValueError(f"{result.method}: empty learned Pareto set")
        learned_true = self.Y_true[learned_idx]
        return adrs(self.true_front, learned_true)


@dataclass
class MethodRun:
    """One (method, repeat) outcome."""

    method: str
    seed: int
    adrs: float
    runtime_s: float
    result: OptimizationResult


#: Runners take (context, scale, seed) plus optional keyword-only
#: ``tracer`` (a :class:`JsonlTraceWriter`), ``journal_path`` and
#: ``resume``; runners without a per-step loop (or without a journal)
#: simply ignore them.
MethodRunner = Callable[..., OptimizationResult]


def _run_ours(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    optimizer = CorrelatedMFBO(
        ctx.space, ctx.flow,
        settings=scale.bo_settings(seed, journal_path, resume),
        method_name="ours", tracer=tracer,
    )
    return optimizer.run()


def _run_fpl18(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    settings = fpl18_settings(scale.bo_settings(seed, journal_path, resume))
    optimizer = CorrelatedMFBO(
        ctx.space, ctx.flow, settings=settings, method_name="fpl18",
        tracer=tracer,
    )
    return optimizer.run()


def _run_ann(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    rng = np.random.default_rng(seed)
    return run_offline_regression(
        ctx.space,
        ctx.flow,
        regressor_factory=lambda _obj: MLPRegressor(
            hidden=(32, 32),
            epochs=scale.ann_epochs,
            rng=np.random.default_rng(rng.integers(2**31)),
        ),
        method_name="ann",
        rng=rng,
        n_train=scale.n_train,
    )


def _run_bt(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    rng = np.random.default_rng(seed)
    return run_offline_regression(
        ctx.space,
        ctx.flow,
        regressor_factory=lambda _obj: GradientBoostingRegressor(
            n_estimators=scale.bt_estimators,
            max_depth=scale.bt_depth,
            learning_rate=scale.bt_learning_rate,
            rng=np.random.default_rng(rng.integers(2**31)),
        ),
        method_name="bt",
        rng=rng,
        n_train=scale.n_train,
    )


def _run_dac19(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    return run_dac19(
        ctx.space,
        ctx.flow,
        rng=np.random.default_rng(seed),
        n_sets=scale.dac19_sets,
        set_size=scale.n_train,
    )


def _run_random(
    ctx: BenchmarkContext, scale: ExperimentScale, seed: int,
    tracer: JsonlTraceWriter | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> OptimizationResult:
    return run_random_search(
        ctx.space, ctx.flow, rng=np.random.default_rng(seed),
        n_evals=scale.n_train,
    )


#: Table I methods in column order, plus the random-search reference.
METHOD_RUNNERS: dict[str, MethodRunner] = {
    "ours": _run_ours,
    "fpl18": _run_fpl18,
    "ann": _run_ann,
    "bt": _run_bt,
    "dac19": _run_dac19,
    "random": _run_random,
}

TABLE1_METHODS: tuple[str, ...] = ("ours", "fpl18", "ann", "bt", "dac19")


def method_seed(base_seed: int, method: str, repeat: int) -> int:
    """Deterministic, decorrelated seed per (method, repeat).

    Uses CRC32 rather than ``hash()`` so seeds are stable across
    processes (Python salts string hashes per interpreter run).
    """
    import zlib

    ss = np.random.SeedSequence(
        [base_seed, zlib.crc32(method.encode()) & 0x7FFFFFFF, repeat]
    )
    return int(ss.generate_state(1)[0])


def journal_path_for(
    journal_dir: str | Path, benchmark: str, method: str, seed: int
) -> Path:
    """Canonical per-cell journal file name (one BO run, one journal)."""
    return Path(journal_dir) / f"{benchmark}.{method}.seed{seed}.journal.jsonl"


def run_method(
    ctx: BenchmarkContext,
    method: str,
    scale: ExperimentScale,
    seed: int,
    trace_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> MethodRun:
    """Run one method once and score it.

    With ``trace_dir`` set, per-step JSONL traces are written to
    ``{trace_dir}/{benchmark}.{method}.seed{seed}.jsonl`` (methods
    without a per-step loop produce no trace file).  With
    ``journal_dir`` set, BO methods checkpoint every committed
    evaluation to ``{benchmark}.{method}.seed{seed}.journal.jsonl``;
    ``resume=True`` replays an existing journal instead of restarting —
    bitwise identical to an uninterrupted run.
    """
    try:
        runner = METHOD_RUNNERS[method]
    except KeyError:
        raise KeyError(
            f"unknown method {method!r}; available: {sorted(METHOD_RUNNERS)}"
        ) from None
    journal_path = None
    if journal_dir is not None:
        journal_dir = Path(journal_dir)
        journal_dir.mkdir(parents=True, exist_ok=True)
        journal_path = journal_path_for(journal_dir, ctx.name, method, seed)
    if trace_dir is None:
        result = runner(
            ctx, scale, seed, journal_path=journal_path, resume=resume
        )
    else:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{ctx.name}.{method}.seed{seed}.jsonl"
        with JsonlTraceWriter(path) as tracer:
            result = runner(
                ctx, scale, seed, tracer=tracer,
                journal_path=journal_path, resume=resume,
            )
        if tracer.lines_written == 0:
            path.unlink(missing_ok=True)  # method does not trace
    return MethodRun(
        method=method,
        seed=seed,
        adrs=ctx.score(result),
        runtime_s=result.total_runtime_s,
        result=result,
    )


def _run_method_grid(
    names: tuple[str, ...],
    methods: tuple[str, ...],
    scale: ExperimentScale,
    base_seed: int,
    verbose: bool,
    trace_dir: str | Path | None,
    trace_name: str,
    workers: int,
    cache_dir: str | Path | None,
    journal_dir: str | Path | None,
    resume: bool,
) -> dict[str, dict[str, list[MethodRun]]]:
    """Every (benchmark, method, repeat) cell through
    :func:`repro.experiments.parallel.run_jobs`, grouped in repeat order.

    ``journal_dir`` holds both the BO methods' per-cell run journals and
    the finished cells' snapshots; the job trace goes to
    ``{trace_dir}/{trace_name}.jobs.jsonl``.
    """
    from repro.experiments.parallel import (
        _group_method_runs,
        method_jobs,
        print_method_run,
        raise_failures,
        run_jobs,
    )

    jobs = method_jobs(
        names, methods, scale, base_seed,
        trace_dir=trace_dir, cache_dir=cache_dir,
        journal_dir=journal_dir, resume=resume,
    )
    outcomes = run_jobs(
        jobs, workers=workers,
        trace_path=(
            Path(trace_dir) / f"{trace_name}.jobs.jsonl" if trace_dir else None
        ),
        cache_dir=cache_dir, snapshot_dir=journal_dir, resume=resume,
        on_land=print_method_run if verbose else None,
    )
    raise_failures(outcomes)
    return _group_method_runs(names, methods, outcomes)


def run_benchmark(
    name: str,
    methods: tuple[str, ...] = TABLE1_METHODS,
    scale: ExperimentScale = SMALL_SCALE,
    base_seed: int = 2021,
    verbose: bool = False,
    trace_dir: str | Path | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> dict[str, list[MethodRun]]:
    """All repeats of all methods on one benchmark.

    The (method, repeat) cells run through
    :func:`repro.experiments.parallel.run_jobs`: inline at one worker,
    over a process pool at more, with the same numbers either way.
    ``cache_dir`` enables the persistent ground-truth cache;
    ``journal_dir``/``resume`` enable per-cell run journals (BO
    methods) and cell snapshots so an interrupted sweep picks up where
    it stopped.  A failing cell does not stop the others; one
    ``RuntimeError`` names every failed cell after the sweep.
    """
    return _run_method_grid(
        (name,), methods, scale, base_seed, verbose, trace_dir, name,
        workers, cache_dir, journal_dir, resume,
    )[name]


@dataclass
class Table1Row:
    """One benchmark's row of Table I (raw, un-normalized values)."""

    benchmark: str
    adrs_mean: dict[str, float] = field(default_factory=dict)
    adrs_std: dict[str, float] = field(default_factory=dict)
    runtime_mean: dict[str, float] = field(default_factory=dict)


def summarize_benchmark(
    name: str, runs: dict[str, list[MethodRun]]
) -> Table1Row:
    row = Table1Row(benchmark=name)
    for method, method_runs in runs.items():
        scores = np.array([r.adrs for r in method_runs])
        times = np.array([r.runtime_s for r in method_runs])
        row.adrs_mean[method] = float(scores.mean())
        row.adrs_std[method] = float(scores.std())
        row.runtime_mean[method] = float(times.mean())
    return row


def run_table1(
    benchmarks: tuple[str, ...] | None = None,
    methods: tuple[str, ...] = TABLE1_METHODS,
    scale: ExperimentScale = SMALL_SCALE,
    base_seed: int = 2021,
    verbose: bool = False,
    trace_dir: str | Path | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> list[Table1Row]:
    """Reproduce Table I: every method on every benchmark.

    All (benchmark, method, repeat) cells of the table form one job
    list (the best load balance at ``workers > 1``); rows aggregate in
    benchmark order, so every ADRS/runtime number is the same at any
    worker count.  The other arguments are :func:`run_benchmark`'s.
    """
    names = tuple(benchmarks) if benchmarks else tuple(benchmark_names())
    grouped = _run_method_grid(
        names, methods, scale, base_seed, verbose, trace_dir, "table1",
        workers, cache_dir, journal_dir, resume,
    )
    return [summarize_benchmark(name, grouped[name]) for name in names]
