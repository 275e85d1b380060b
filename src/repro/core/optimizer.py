"""The correlated multi-objective multi-fidelity BO loop (Algorithm 2).

The optimizer owns the paper's full method: tree-pruned design space in,
candidate Pareto set *CS* out.  Every iteration it

1. refits one surrogate stack (per-fidelity correlated multi-objective
   GPs chained non-linearly across fidelities, Fig. 7),
2. evaluates the cost-penalized expected improvement of Pareto
   hypervolume (PEIPV, Eq. (10)) of every unevaluated configuration at
   every fidelity,
3. runs the (simulated) FPGA flow on the single best (config, fidelity)
   pair, pays its simulated runtime, punishes invalid designs 10× the
   observed worst, and feeds the new reports back into every fidelity's
   training set up to the one that was run.

Ablation switches (``correlated``, ``nonlinear``, ``cost_aware``) turn
the same loop into the FPL18 baseline and the paper's implicit design
alternatives — all methods share encodings, spaces and flow, as the
paper requires for fairness.

Hot path.  One BO step is a single cached upward sweep: all fidelities
are scored over one shared candidate pool, so with
``cache_predictions`` the stack computes each level's GP posterior
exactly once per step (bit-for-bit identical to the uncached sweep —
see :mod:`repro.core.multifidelity`), and candidate bookkeeping uses
maintained boolean masks instead of per-step Python rebuilds.
``warm_start`` additionally seeds every hyperparameter refit from the
previous step's optimum with no random restarts, which changes the
optimization trajectory slightly but cuts refit time severalfold
(``benchmarks/bench_optimizer_hotpath.py`` regression-tests both the
speedup and the cached sweep's exactness).  Pass a ``tracer`` to stream
a structured per-step JSONL trace (:mod:`repro.obs.trace`).

One loop.  Steps 1–3 run inside
:func:`repro.core.batch.async_engine.run_async_loop`, a propose/commit
pipeline whose settings select the mode: one evaluation in flight by
default (the sequential Algorithm 2), a round barrier of ``batch_size``
greedy Kriging-believer proposals, or commit-as-completed with
``async_engine``/``inflight_target``.  Evaluations run on
``eval_workers`` flow workers and are committed in a modeled order, so
a fixed seed gives the same trajectory whatever the worker timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import linalg
from repro.core.acquisition import eipv_mc, penalized_eipv
from repro.core.batch.async_engine import replay_async, run_async_loop
from repro.core.multifidelity import (
    LinearMultiFidelityStack,
    NonlinearMultiFidelityStack,
)
from repro.core.pareto import (
    default_reference,
    pareto_front,
    pareto_mask,
)
from repro.core.resilience import journal as run_journal
from repro.core.resilience.retry import (
    RetryPolicy,
    evaluate_with_policy,
    failed_flow_result,
)
from repro.core.result import OptimizationResult, StepRecord
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow, _stable_seed
from repro.hlsim.reports import ALL_FIDELITIES, NUM_OBJECTIVES, Fidelity
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TRACE_SCHEMA_VERSION, JsonlTraceWriter


@dataclass
class MFBOSettings:
    """Knobs of Algorithm 2 (paper defaults: 8 initial points, 40 steps)."""

    n_init: tuple[int, int, int] = (8, 6, 4)
    n_iter: int = 40
    n_mc_samples: int = 64
    candidate_pool: int | None = 256
    refit_every: int = 1
    invalid_penalty: float = 10.0
    reference_margin: float = 1.1
    correlated: bool = True
    nonlinear: bool = True
    cost_aware: bool = True
    # Run the believed-Pareto candidates up to IMPL before reporting
    # (paying their flow time).  Any deployable flow must implement its
    # chosen design; the paper's Fig. 8 plots its learned points at
    # their true positions, which presumes exactly this step.
    final_verification: bool = True
    n_restarts: int = 1
    max_opt_iter: int = 60
    # Hot-path switches.  ``cache_predictions`` memoizes the per-step
    # fidelity sweep (bitwise-exact — same selections, less work);
    # ``warm_start`` seeds refits from the previous optimum with no
    # restarts (different but equally valid hyperparameter trajectory).
    cache_predictions: bool = True
    warm_start: bool = True
    # ``incremental`` lets fixed-hyperparameter refits (the commits
    # between true refits, and batch-mode fantasy conditionings) extend
    # the previous Cholesky factor instead of refactorizing
    # (:mod:`repro.core.linalg`) — bitwise-equivalent factors up to
    # roundoff at the last ulp, regression-bounded at 1e-10 and
    # trajectory-tested against the full-refit reference.
    incremental: bool = True
    # Loop modes (:mod:`repro.core.batch.async_engine`).  By default
    # one evaluation is in flight at a time: the sequential loop.
    # ``batch_size=q>1`` runs a round barrier: q greedy Kriging-believer
    # proposals (qPEIPV), evaluated on ``eval_workers`` flow workers and
    # committed in proposal order.  Async mode keeps evaluations in
    # flight without a barrier, commits each outcome the moment its
    # *modeled* completion time arrives (deterministic — wall timing
    # never shapes the trajectory) and immediately re-proposes against
    # the remaining pending set's Kriging-believer fantasies.
    # ``async_engine=True`` enables it with the adaptive controller
    # (in-flight target grows while fantasies keep moving the Pareto
    # front, shrinks toward 1 when they stop, capped at
    # ``eval_workers``); ``inflight_target`` pins the target instead
    # (and implies async mode).  ``inflight_target=1`` is the
    # sequential loop — regression-tested.
    batch_size: int = 1
    eval_workers: int = 1
    eval_timeout_s: float | None = None
    async_engine: bool = False
    inflight_target: int | None = None
    # Resilience (:mod:`repro.core.resilience`).  Flow evaluations are
    # retried up to ``retry_max_attempts`` times with exponential
    # backoff (``retry_backoff_s`` base, deterministic jitter from a
    # dedicated run-seeded stream — the acquisition RNG is untouched);
    # on exhaustion the request degrades to the next-lower fidelity
    # (``degrade_on_failure``) and, failing even HLS, commits through
    # the invalid-design punishment path (``punish_on_failure``)
    # instead of aborting the run.  ``journal_path`` appends every
    # commit to a crash-safe JSONL journal; ``resume_from`` replays one
    # for a bitwise-identical continuation of a killed run (when set
    # and ``journal_path`` is not, the journal continues in place).
    retry_max_attempts: int = 3
    retry_backoff_s: float = 0.0
    retry_backoff_mult: float = 2.0
    retry_max_backoff_s: float = 30.0
    retry_jitter: float = 0.25
    degrade_on_failure: bool = True
    punish_on_failure: bool = True
    journal_path: str | None = None
    resume_from: str | None = None
    # Telemetry (:mod:`repro.obs.spans`).  Spans (fit / predict /
    # acquire / flow_eval per fidelity, ...) always time the run into
    # ``metrics``; ``trace_spans`` additionally writes them, with
    # (pid, tid) attribution, into the run's JSONL trace for Perfetto
    # export (a no-op without a ``tracer``).  Spans read clocks only —
    # never the RNG — so enabling them cannot change selections
    # (regression-tested).
    trace_spans: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.n_init) != len(ALL_FIDELITIES):
            raise ValueError("n_init needs one entry per fidelity")
        lo = min(self.n_init)
        if lo < 2:
            raise ValueError("each fidelity needs at least 2 initial points")
        if any(a < b for a, b in zip(self.n_init, self.n_init[1:])):
            raise ValueError(
                "initial sets must nest: n_hls >= n_syn >= n_impl (paper "
                "Sec. III-D: X_impl ⊆ X_syn ⊆ X_hls)"
            )
        if self.n_iter < 0:
            raise ValueError("n_iter must be non-negative")
        if self.invalid_penalty <= 1.0:
            raise ValueError("invalid_penalty must exceed 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.inflight_target is not None and self.inflight_target < 1:
            raise ValueError("inflight_target must be at least 1")
        if self.use_async_engine and self.batch_size > 1:
            raise ValueError(
                "async mode has no rounds: batch_size must stay 1 "
                "(use inflight_target / eval_workers to size the pipeline)"
            )
        if self.eval_timeout_s is not None and self.eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be at least 1")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")

    def retry_policy(self) -> RetryPolicy:
        """The evaluation-side :class:`RetryPolicy` these settings imply."""
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            base_backoff_s=self.retry_backoff_s,
            backoff_multiplier=self.retry_backoff_mult,
            max_backoff_s=self.retry_max_backoff_s,
            jitter=self.retry_jitter,
            degrade_fidelity=self.degrade_on_failure,
            punish_on_failure=self.punish_on_failure,
        )

    @property
    def use_async_engine(self) -> bool:
        return self.async_engine or self.inflight_target is not None

    @property
    def inflight_cap(self) -> int | None:
        """The in-flight target's upper bound; ``None`` for sync runs.

        Journaled in the resume fingerprint: the bound (requested
        ``eval_workers``) shapes async trajectories, while sync runs
        keep worker count a wall-clock-only knob.
        """
        if not self.use_async_engine:
            return None
        return max(1, int(self.eval_workers))


@dataclass
class _FidelityData:
    """Observations collected at one fidelity.

    ``index_set`` mirrors ``indices`` for O(1) membership tests (the
    list alone made :meth:`contains` O(n) and the run O(n²));
    ``punished_rows`` tracks which rows hold punished (invalid-design)
    values so they can be re-scaled when the observed worst grows.
    """

    indices: list[int] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)
    index_set: set[int] = field(default_factory=set)
    punished_rows: list[int] = field(default_factory=list)

    def contains(self, index: int) -> bool:
        return index in self.index_set

    def add(self, index: int, y: np.ndarray, punished: bool = False) -> None:
        if punished:
            self.punished_rows.append(len(self.values))
        self.indices.append(index)
        self.values.append(np.asarray(y, dtype=float))
        self.index_set.add(index)

    def matrix(self) -> np.ndarray:
        return np.vstack(self.values)


class CorrelatedMFBO:
    """Algorithm 2: correlated multi-objective multi-fidelity BO."""

    def __init__(
        self,
        space: DesignSpace,
        flow: HlsFlow,
        settings: MFBOSettings | None = None,
        method_name: str = "ours",
        tracer: JsonlTraceWriter | None = None,
        engine_factory=None,
    ):
        self.space = space
        self.flow = flow
        self.settings = settings or MFBOSettings()
        self.method_name = method_name
        self.tracer = tracer
        # Optional ``opt -> engine`` hook: builds the evaluation engine
        # the BO loop drives instead of the default in-process
        # EvalEngine (e.g. repro.fleet.executor.RemoteExecutor).  The
        # loop closes whatever this returns.
        self.engine_factory = engine_factory
        self.spans = SpanRecorder(
            tracer if self.settings.trace_spans else None
        )
        self.metrics = self.spans.metrics
        self.rng = np.random.default_rng(self.settings.seed)
        self._data = {f: _FidelityData() for f in ALL_FIDELITIES}
        self._eval_mask = {
            f: np.zeros(len(space), dtype=bool) for f in ALL_FIDELITIES
        }
        self._cs: dict[int, tuple[np.ndarray, Fidelity, bool]] = {}
        self._punished_cs: set[int] = set()
        self._exhausted: set[int] = set()  # configs run at IMPL
        self._runtime = 0.0
        self._history: list[StepRecord] = []
        self._worst_seen: np.ndarray | None = None
        self._stack = self._build_stack()
        self._retry_policy = self.settings.retry_policy()
        # Backoff jitter draws come from a dedicated run-seeded stream:
        # using ``self.rng`` would perturb the acquisition trajectory of
        # any run that hits a retry, breaking clean-vs-faulty parity.
        self._retry_rng = np.random.default_rng(
            _stable_seed("retry", self.settings.seed)
        )
        self._journal: run_journal.RunJournal | None = None
        self._journal_phase = "init"
        self._replaying = False
        self._verify_attempted: set[int] = set()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _build_stack(self):
        s = self.settings
        if s.nonlinear:
            return NonlinearMultiFidelityStack(
                n_fidelities=len(ALL_FIDELITIES),
                n_tasks=NUM_OBJECTIVES,
                n_restarts=s.n_restarts,
                max_opt_iter=s.max_opt_iter,
                rng=self.rng,
                correlated=s.correlated,
                cache_predictions=s.cache_predictions,
                incremental=s.incremental,
            )
        if s.correlated:
            raise ValueError(
                "a linear *correlated* stack is not implemented; the paper "
                "compares non-linear correlated (ours) against linear "
                "independent (FPL18)"
            )
        return LinearMultiFidelityStack(
            n_fidelities=len(ALL_FIDELITIES),
            n_tasks=NUM_OBJECTIVES,
            n_restarts=s.n_restarts,
            max_opt_iter=s.max_opt_iter,
            rng=self.rng,
            cache_predictions=s.cache_predictions,
            incremental=s.incremental,
        )

    def _initial_design(self) -> None:
        """Nested random initial sets X_impl ⊆ X_syn ⊆ X_hls (line 4)."""
        n_hls, n_syn, n_impl = self.settings.n_init
        n_hls = min(n_hls, len(self.space))
        n_syn = min(n_syn, n_hls)
        n_impl = min(n_impl, n_syn)
        hls_idx = self.space.sample_indices(self.rng, n_hls)
        order = self.rng.permutation(n_hls)
        syn_idx = [hls_idx[i] for i in order[:n_syn]]
        impl_idx = syn_idx[:n_impl]
        syn_set, impl_set = set(syn_idx), set(impl_idx)
        for idx in hls_idx:
            if idx in impl_set:
                fidelity = Fidelity.IMPL
            elif idx in syn_set:
                fidelity = Fidelity.SYN
            else:
                fidelity = Fidelity.HLS
            self._evaluate(idx, fidelity, acquisition=float("nan"), step=-1)

    # ------------------------------------------------------------------
    # evaluation bookkeeping
    # ------------------------------------------------------------------

    def _evaluate(
        self, index: int, fidelity: Fidelity, acquisition: float, step: int
    ) -> None:
        """Run the flow up to ``fidelity`` under the retry policy and
        fold whatever it yields (possibly degraded or punished) in."""
        with self.spans.span(
            "flow_eval", cat="eval", step=step, config_index=index,
            fidelity=fidelity.short_name,
        ):
            outcome = evaluate_with_policy(
                self.flow,
                self.space[index],
                fidelity,
                self._retry_policy,
                rng=self._retry_rng,
            )
        self._fold_outcome(index, fidelity, outcome, acquisition, step)

    def _fold_outcome(
        self, index: int, requested: Fidelity, outcome, acquisition: float,
        step: int,
    ) -> None:
        """Commit a :class:`ResilientOutcome` (shared with the engine)."""
        self._trace_faults(step, index, outcome.failures)
        if outcome.failed:
            if not self._retry_policy.punish_on_failure:
                from repro.core.batch.engine import FlowEvalError

                last = outcome.failures[-1].error if outcome.failures else "?"
                raise FlowEvalError(
                    f"evaluation of config {index} at "
                    f"{requested.short_name} (step {step}) exhausted "
                    f"{outcome.attempts} attempts: {last}"
                )
            self._trace_degrade(step, index, requested, None, outcome.attempts)
            self._commit(
                index,
                requested,
                failed_flow_result(requested),
                acquisition,
                step,
                requested=requested,
                failed=True,
                attempts=outcome.attempts,
                wasted_runtime_s=outcome.wasted_runtime_s,
            )
            return
        if outcome.degraded:
            self._trace_degrade(
                step, index, requested, outcome.fidelity, outcome.attempts
            )
        self._commit(
            index,
            outcome.fidelity,
            outcome.result,
            acquisition,
            step,
            requested=requested,
            degraded=outcome.degraded,
            attempts=outcome.attempts,
            wasted_runtime_s=outcome.wasted_runtime_s,
        )

    def _commit(
        self,
        index: int,
        fidelity,
        result,
        acquisition: float,
        step: int,
        *,
        requested: Fidelity | None = None,
        degraded: bool = False,
        failed: bool = False,
        attempts: int = 1,
        wasted_runtime_s: float = 0.0,
    ) -> None:
        """Fold an already-computed :class:`FlowResult` into the datasets.

        Split out of :meth:`_evaluate` so the BO loop can run flows on
        worker threads and still commit results on the main thread in
        its modeled order (completion-order independence).  Non-finite
        objectives in an otherwise-valid report are treated as invalid
        (the punishment path) — a garbage tool report must never reach
        a GP fit or the Pareto front.  Every commit is appended to the
        run journal (when enabled) with the RNG state captured *now*,
        which is what makes kill-and-resume bitwise.
        """
        requested = Fidelity(requested if requested is not None else fidelity)
        self._runtime += result.total_runtime_s + wasted_runtime_s
        top_report = result.highest
        valid = top_report.valid and bool(
            np.all(np.isfinite(top_report.objectives()))
        )
        for report in result.reports:
            if self._data[report.stage].contains(index):
                continue
            y = report.objectives()
            finite = bool(np.all(np.isfinite(y)))
            punished = not (report.valid and finite)
            if punished:
                y = self._punished_value()
            self._data[report.stage].add(index, y, punished=punished)
            self._eval_mask[report.stage][index] = True
            if not punished:
                self._track_worst(y)
        y_top = (
            top_report.objectives() if valid else self._punished_value()
        )
        self._cs[index] = (y_top, fidelity, valid)
        if valid:
            self._punished_cs.discard(index)
        else:
            self._punished_cs.add(index)
        if fidelity == Fidelity.IMPL:
            self._exhausted.add(index)
        if failed:
            # Every fidelity (down to HLS) is exhausted for this config:
            # retire it from the candidate pool so the acquisition never
            # proposes the known-broken evaluation again.
            self._exhausted.add(index)
            self._eval_mask[Fidelity.IMPL][index] = True
        self._history.append(
            StepRecord(
                step=step,
                config_index=index,
                fidelity=fidelity,
                acquisition=acquisition,
                runtime_s=result.total_runtime_s + wasted_runtime_s,
                objectives=y_top,
                valid=valid,
                requested_fidelity=requested,
                degraded=degraded,
                failed=failed,
                attempts=attempts,
            )
        )
        if self._journal is not None and not self._replaying:
            self._journal.write(
                run_journal.commit_record(
                    phase=self._journal_phase,
                    step=step,
                    config_index=index,
                    fidelity=fidelity,
                    requested_fidelity=requested,
                    acquisition=acquisition,
                    result=result,
                    rng_state=self.rng.bit_generator.state,
                    degraded=degraded,
                    failed=failed,
                    attempts=attempts,
                    wasted_runtime_s=wasted_runtime_s,
                )
            )

    def _trace_faults(self, step: int, index: int, failures) -> None:
        if self.tracer is None or not failures:
            return
        for f in failures:
            self.tracer.write(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "event": "fault",
                    "step": step,
                    "config_index": index,
                    "fidelity": f.fidelity.short_name,
                    "attempt": f.attempt,
                    "error": f.error,
                    "backoff_s": f.backoff_s,
                }
            )

    def _trace_degrade(
        self,
        step: int,
        index: int,
        requested: Fidelity,
        fidelity: Fidelity | None,
        attempts: int,
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.write(
            {
                "v": TRACE_SCHEMA_VERSION,
                "event": "degrade",
                "step": step,
                "config_index": index,
                "requested_fidelity": requested.short_name,
                "fidelity": fidelity.short_name if fidelity else None,
                "action": "degrade" if fidelity is not None else "punish",
                "attempts": attempts,
            }
        )

    def _track_worst(self, y: np.ndarray) -> None:
        if self._worst_seen is None:
            self._worst_seen = np.array(y, dtype=float)
            changed = True
        else:
            grown = np.maximum(self._worst_seen, y)
            changed = bool(np.any(grown > self._worst_seen))
            self._worst_seen = grown
        if changed:
            self._refresh_punishments()

    def _punished_value(self) -> np.ndarray:
        """10× the current worst valid values (paper Sec. IV-C)."""
        if self._worst_seen is None:
            return np.full(NUM_OBJECTIVES, 1e6)
        return self._worst_seen * self.settings.invalid_penalty

    def _refresh_punishments(self) -> None:
        """Re-scale every punished observation to the current worst.

        Punished values were previously snapshotted at evaluation time,
        so an early invalid design kept the ``1e6`` sentinel (or a tiny
        early worst) forever — poisoning every later GP fit and
        inflating the hypervolume reference box.  Recomputing them
        whenever the observed worst grows keeps all punished entries on
        the paper's intended ``penalty × worst_seen`` scale.
        """
        p = self._punished_value()
        for fidelity in ALL_FIDELITIES:
            data = self._data[fidelity]
            for row in data.punished_rows:
                data.values[row] = p
        for idx in self._punished_cs:
            _y, fid, _valid = self._cs[idx]
            self._cs[idx] = (p, fid, False)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> OptimizationResult:
        plan = self._prepare_journal()
        s = self.settings
        if self.tracer is not None:
            record = {
                "v": TRACE_SCHEMA_VERSION,
                "event": "run_start",
                "kernel": self.space.kernel.name,
                "method": self.method_name,
                "n_iter": s.n_iter,
                "seed": s.seed,
                "cache_predictions": s.cache_predictions,
                "warm_start": s.warm_start,
                "batch_size": s.batch_size,
                "eval_workers": s.eval_workers,
                "async_engine": s.use_async_engine,
                "inflight_target": s.inflight_target,
            }
            if plan is not None:
                record["resumed"] = True
            self.tracer.write(record)
        try:
            with self.spans.span(
                "run", cat="run",
                kernel=self.space.kernel.name, method=self.method_name,
            ):
                resume_state = None
                if plan is not None:
                    with self.spans.span("replay", cat="phase"):
                        resume_state = replay_async(self, plan)
                    loop_done = plan.loop_done
                else:
                    self._journal_phase = "init"
                    with self.spans.span("init", cat="phase"):
                        self._initial_design()
                    loop_done = False
                self._journal_phase = "loop"
                if not loop_done:
                    engine = (
                        self.engine_factory(self)
                        if self.engine_factory is not None
                        else None
                    )
                    run_async_loop(self, resume=resume_state, engine=engine)
                if s.final_verification:
                    self._journal_phase = "verify"
                    with self.spans.span("verify", cat="phase"):
                        self._verify_pareto_candidates()
        finally:
            if self._journal is not None:
                self._journal.close()
        return self._result()

    # ------------------------------------------------------------------
    # journal / resume
    # ------------------------------------------------------------------

    def _expected_init(self) -> int:
        """Commits a complete initial design writes (space-clamped)."""
        return min(self.settings.n_init[0], len(self.space))

    def _prepare_journal(self) -> "run_journal.AsyncReplayPlan | None":
        """Open the run journal, building a replay plan when resuming.

        ``resume_from`` without an existing journal file (or with one
        whose initial design never completed) degrades to a fresh run —
        the natural first launch of a resumable command.
        """
        s = self.settings
        resume_from = Path(s.resume_from) if s.resume_from else None
        journal_path = Path(s.journal_path) if s.journal_path else resume_from
        plan = None
        if resume_from is not None and resume_from.is_file():
            records = run_journal.read_journal(resume_from)
            if records:
                plan = run_journal.build_async_replay_plan(
                    records, s, expected_init=self._expected_init()
                )
                if not plan.init_records:
                    plan = None
        if journal_path is None:
            return None
        if plan is not None:
            records = plan.kept_records + [
                {
                    "v": run_journal.JOURNAL_SCHEMA_VERSION,
                    "event": "resume",
                    "replayed": plan.replayed,
                    "dropped": plan.dropped,
                    "next_step": plan.next_step,
                }
            ]
            self._journal = run_journal.RunJournal.continue_from(
                journal_path, records
            )
        else:
            self._journal = run_journal.RunJournal.create(
                journal_path,
                {
                    "v": run_journal.JOURNAL_SCHEMA_VERSION,
                    "event": "header",
                    "kernel": self.space.kernel.name,
                    "method": self.method_name,
                    "seed": s.seed,
                    "fingerprint": run_journal.settings_fingerprint(s),
                },
            )
        return plan

    def _verify_pareto_candidates(self) -> None:
        """Run the believed-Pareto candidates up to IMPL (line 16 epilogue).

        Candidates already measured at IMPL keep their reports; the
        others are re-run from scratch (their full flow time is paid)
        and their CS entries replaced by implementation-fidelity values
        — including the 10×-worst punishment if they turn out invalid.

        Iterated to a fixed point: replacing a candidate's value with
        its IMPL measurement can demote it and promote a previously
        dominated, still-unverified configuration into the front, so a
        single sweep over the initial Pareto mask is not enough.  Each
        round implements at least one new candidate, so the loop
        terminates.  ``_verify_attempted`` guards the same guarantee
        under fidelity degradation: a candidate whose IMPL verification
        degraded to a lower fidelity stays below IMPL forever, and
        without the guard the fixed point would re-request it every
        round (the set is seeded from the journal on resume so the
        guard itself resumes bitwise).
        """
        attempted = self._verify_attempted
        while True:
            values = np.vstack([y for (y, _f, _v) in self._cs.values()])
            indices = list(self._cs)
            mask = pareto_mask(values)
            pending = [
                idx
                for idx, keep in zip(indices, mask)
                if keep
                and self._cs[idx][1] != Fidelity.IMPL
                and idx not in attempted
            ]
            if not pending:
                return
            for idx in pending:
                attempted.add(idx)
                self._evaluate(
                    idx, Fidelity.IMPL, acquisition=float("nan"),
                    step=self.settings.n_iter,
                )

    def _fit_stack(self, optimize: bool) -> None:
        datasets: list[tuple[np.ndarray, np.ndarray] | None] = []
        for fidelity in ALL_FIDELITIES:
            data = self._data[fidelity]
            if len(data.indices) < 2:
                # Persistent tool faults can starve a fidelity below
                # the stack's 2-point fit minimum (degradation walks
                # its requests down the ladder; outright failures
                # punish only the requested level).  Mark it for
                # chaining below instead of crashing the fit.  Clean
                # runs always hold >= 2 points per level (``n_init``
                # validation), so this never fires for them.
                datasets.append(None)
                continue
            X = self.space.features[data.indices]
            datasets.append((X, data.matrix()))
        populated = [i for i, d in enumerate(datasets) if d is not None]
        if not populated:
            counts = {
                f.short_name: len(self._data[f].indices)
                for f in ALL_FIDELITIES
            }
            raise RuntimeError(
                "every fidelity is starved below the 2-point fit minimum "
                f"(observation counts: {counts}); the surrogate stack "
                "cannot be fit — the fault load left no usable data at "
                "any level"
            )
        for level, dataset in enumerate(datasets):
            if dataset is not None:
                continue
            # Chain a starved level on the nearest populated level —
            # preferring the one below (the level GP then learns
            # roughly the identity correction, the best unbiased guess
            # with next to no evidence), else the nearest one above:
            # punished commits land only at the *requested* fidelity,
            # so persistent all-stage faults can starve the levels
            # below the requests too.
            lower = [i for i in populated if i < level]
            upper = [i for i in populated if i > level]
            source = lower[-1] if lower else upper[0]
            datasets[level] = datasets[source]
        prefix = "fit" if optimize else "commit"
        with linalg.metered(self.metrics, prefix):
            self._stack.fit(
                datasets,
                optimize=optimize,
                warm_start=self.settings.warm_start,
            )

    def _front_and_reference(self) -> tuple[np.ndarray, np.ndarray]:
        values = [y for (y, _f, valid) in self._cs.values() if valid]
        if not values:
            values = [y for (y, _f, _v) in self._cs.values()]
        Y = np.vstack(values)
        front = pareto_front(Y)
        ref = default_reference(Y, margin=self.settings.reference_margin)
        return front, ref

    def _candidate_pool(
        self, exclude: set[int] | None = None
    ) -> np.ndarray:
        """Shared candidate pool: configs not yet exhausted at IMPL.

        One subsample serves every fidelity's scan (the IMPL-eligible
        set is the superset of all of them under the nesting invariant),
        so the per-fidelity PEIPV comparison runs on common candidates
        and common random numbers.  ``exclude`` additionally masks out
        the configurations pending evaluation; when empty or None the
        rng consumption is identical to the unparameterized call.
        """
        mask = ~self._eval_mask[Fidelity.IMPL]
        if exclude:
            mask = mask.copy()
            mask[list(exclude)] = False
        pool = np.flatnonzero(mask)
        limit = self.settings.candidate_pool
        if limit is not None and pool.size > limit:
            pool = self.rng.choice(pool, size=limit, replace=False)
        return pool

    def _scan_best(
        self,
        pool: np.ndarray,
        front: np.ndarray,
        ref: np.ndarray,
        boxes,
    ) -> tuple[int, Fidelity, float] | None:
        """Per-fidelity argmax of PEIPV over ``pool``, then the global max.

        All fidelities are scored over one shared candidate matrix: the
        needed fidelities are predicted in one batched bottom-up sweep
        (:meth:`predict_levels` — each chain level computed exactly
        once, results bitwise identical to per-level ``predict``); a
        fidelity's already-evaluated configurations are masked out of
        its argmax rather than re-pooled.
        """
        X = self.space.features[pool]
        stack = self._stack
        stack.begin_step()
        hits0, misses0 = stack.cache_hits, stack.cache_misses
        t_impl = self.flow.stage_time(Fidelity.IMPL)
        eligibility: dict[Fidelity, np.ndarray] = {}
        for fidelity in ALL_FIDELITIES:
            eligible = ~self._eval_mask[fidelity][pool]
            if eligible.any():
                eligibility[fidelity] = eligible
        if not eligibility:
            return None
        with self.spans.span(
            "predict", cat="predict",
            fidelity=",".join(f.short_name for f in eligibility),
        ):
            predictions = stack.predict_levels(
                [int(f) for f in eligibility], X
            )
        best: tuple[int, Fidelity, float] | None = None
        for fidelity, eligible in eligibility.items():
            means, covs = predictions[int(fidelity)]
            with self.spans.span(
                "acquire", cat="acquire", fidelity=fidelity.short_name
            ):
                scores = eipv_mc(
                    means,
                    covs,
                    front,
                    ref,
                    rng=self.rng,
                    n_samples=self.settings.n_mc_samples,
                    boxes=boxes,
                )
                if self.settings.cost_aware:
                    scores = penalized_eipv(
                        scores, t_impl, self.flow.stage_time(fidelity)
                    )
            scores = np.where(eligible, scores, -np.inf)
            k = int(np.argmax(scores))
            score = float(scores[k])
            if best is None or score > best[2]:
                best = (int(pool[k]), fidelity, score)
        self.metrics.incr("cache_hits", stack.cache_hits - hits0)
        self.metrics.incr("cache_misses", stack.cache_misses - misses0)
        return best

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def _result(self) -> OptimizationResult:
        indices = sorted(self._cs)
        values = np.vstack([self._cs[i][0] for i in indices]) if indices else (
            np.empty((0, NUM_OBJECTIVES))
        )
        fidelities = [self._cs[i][1] for i in indices]
        counts = {
            f.short_name: len(self._data[f].indices) for f in ALL_FIDELITIES
        }
        return OptimizationResult(
            kernel_name=self.space.kernel.name,
            method=self.method_name,
            cs_indices=indices,
            cs_values=values,
            cs_fidelities=fidelities,
            history=self._history,
            total_runtime_s=self._runtime,
            evaluation_counts=counts,
        )
