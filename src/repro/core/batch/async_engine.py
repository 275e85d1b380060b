"""The BO loop (Algorithm 2) as one propose/commit pipeline.

:func:`run_async_loop` is the optimizer's only loop driver.  It keeps a
*target* number of evaluations in flight: each proposal fits the
stack, picks the (configuration, fidelity) with the highest PEIPV
against the pending set's Kriging-believer fantasies and submits it;
each commit folds one outcome in through the optimizer's ``_commit``
path.  The settings pick how proposals and commits interleave:

- **default** — an in-flight target fixed at 1: fit, pick, evaluate,
  commit.  This is the paper's sequential Algorithm 2.
- **round barrier** (``batch_size=q>1``) — fill up to ``q`` proposals
  (greedy qPEIPV: each pick is conditioned on the previous picks'
  believer values), drain them all in proposal order, then fill again.
  Whether a round is still filling follows from the pending set and
  ``next_step % q`` alone, so a resumed run can tell too.
- **commit-as-completed** (``async_engine``/``inflight_target``) — the
  pipeline never waits on a barrier: each commit is immediately
  followed by a replacement proposal, and with ``async_engine`` the
  in-flight target adapts.

**Determinism contract.**  The commit order is defined on a *modeled*
clock, not the wall: each proposal's completion time is
``sim_now + flow.stage_time(fidelity)`` where ``sim_now`` is the
modeled clock when it was proposed, and the next commit is the pending
evaluation with the smallest ``(eta, step)`` (a round barrier commits
in ``step`` order).  Wall-clock worker timing therefore never shapes
the trajectory — a forced completion-order shuffle commits identically
(regression-tested).  The adaptive controller's upper bound uses the
**requested** ``eval_workers`` (never the CPU-clamped count), so
trajectories are machine-independent and a 1-CPU CI runner reproduces
them bitwise.

**Fantasy lifecycle across interleaved commits.**  Every proposal
records its believer values (:func:`repro.core.batch.qeipv.believer_fantasies`)
at proposal time and keeps them verbatim while pending.  Before each
proposal the stack is (re)fit on the real data when commits have
landed since the last fit — ``optimize`` keyed off the *committed
count*, so the refit cadence is the same in every mode — and then
ephemerally conditioned (``fit(optimize=False, ephemeral=True)``) on
the current pending set's recorded fantasies.  A commit mid-pipeline
thus never perturbs the other slots' fantasy values; only the
conditioning is rebuilt, from the new durable state.

**Adaptive batch controller.**  After each selection the controller
compares the fantasy-extended Pareto front's hypervolume with and
without the new believer point: while fantasies keep moving the front
the in-flight target grows (up to ``eval_workers``); when they stop it
shrinks toward 1.  A fixed ``inflight_target`` (or a round barrier)
disables adaptation.

**Crash safety.**  Every proposal is journaled (with its fantasies,
modeled ETA and post-selection RNG state) *before* submission and
every commit after folding, so any journal prefix is a consistent
snapshot: :func:`replay_async` rebuilds the exact optimizer state —
including the ephemeral fantasy conditioning — and the resumed loop
resubmits the journaled pending set, making kill-and-resume bitwise in
every mode (``tests/test_resilience.py``, ``tests/test_async.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import linalg
from repro.core.batch.engine import EvalEngine, EvalJob, FlowEvalError
from repro.core.batch.qeipv import _fantasized_datasets, believer_fantasies
from repro.core.pareto import dominated_boxes, hypervolume, pareto_front
from repro.core.resilience import journal as run_journal
from repro.hlsim.reports import ALL_FIDELITIES, Fidelity
from repro.obs.timing import Metrics
from repro.obs.trace import TRACE_SCHEMA_VERSION

__all__ = [
    "AsyncState",
    "PendingEval",
    "HV_GAIN_RTOL",
    "replay_async",
    "run_async_loop",
]

#: Relative fantasy-hypervolume gain below which a proposal counts as
#: "not moving the front" and the in-flight target shrinks.
HV_GAIN_RTOL = 1e-3


@dataclass
class PendingEval:
    """One in-flight evaluation: proposal metadata frozen at selection.

    ``fantasy``/``fantasy_levels`` are the believer values recorded at
    proposal time — they survive interleaved commits verbatim (the
    conditioning is rebuilt from them, never re-predicted).  ``eta_s``
    is the modeled completion time on the simulation clock; the commit
    order is min ``(eta_s, step)``, never wall time.  ``t_start`` is
    the wall clock (``perf_counter``) the proposal began at — trace
    timing only.
    """

    step: int
    config_index: int
    fidelity: Fidelity
    acquisition: float
    fantasy: np.ndarray
    fantasy_levels: dict[Fidelity, np.ndarray]
    eta_s: float
    pool_size: int
    t_start: float = field(default_factory=time.perf_counter)
    job: EvalJob | None = None
    handle: object | None = None


@dataclass
class AsyncState:
    """The pipeline's trajectory-shaping state (resume restores it)."""

    pending: list[PendingEval] = field(default_factory=list)
    committed: int = 0
    next_step: int = 0
    #: Modeled clock: the latest ETA committed so far.
    sim_s: float = 0.0
    target: int = 1
    #: Committed count the stack was last *really* fit at.
    fitted_at: int = -1
    #: Pending steps the current ephemeral fantasy conditioning covers
    #: (``None`` right after a real fit).
    conditioned: tuple[int, ...] | None = None


def _initial_target(settings) -> int:
    if settings.batch_size > 1:
        return settings.batch_size
    return min(settings.inflight_target or 1, settings.inflight_cap or 1)


def _adaptive(settings) -> bool:
    return settings.async_engine and settings.inflight_target is None


def _update_target(state: AsyncState, settings, hv_before, hv_after) -> None:
    """Grow while fantasies move the front, shrink toward 1 otherwise."""
    gain = float(hv_after) - float(hv_before)
    if gain > HV_GAIN_RTOL * max(abs(float(hv_before)), 1e-12):
        state.target = min(state.target + 1, settings.inflight_cap or 1)
    else:
        state.target = max(1, state.target - 1)


def _filling(state: AsyncState, settings) -> bool:
    """Whether the loop proposes again before its next commit.

    A round barrier fills an empty pipeline, or a round that has not
    reached a multiple of ``q`` proposals yet; both inputs are
    journaled, so a resumed run knows whether it was filling or
    draining.
    """
    if state.next_step >= settings.n_iter:
        return False
    if len(state.pending) >= state.target:
        return False
    q = settings.batch_size
    return q == 1 or not state.pending or state.next_step % q != 0


def _next_commit(state: AsyncState, settings) -> PendingEval:
    if settings.batch_size > 1:
        return min(state.pending, key=lambda p: p.step)
    return min(state.pending, key=lambda p: (p.eta_s, p.step))


def _ensure_fit(opt, state: AsyncState) -> None:
    """Real fit on new commits, then fantasy-condition on the pending set.

    Shared between the live loop and :func:`replay_async` so both
    produce the same fit sequence (warm-started hyperparameter
    trajectories are path-dependent).  ``optimize`` is keyed off the
    committed count: at an in-flight target of 1 that is the step.
    """
    settings = opt.settings
    if state.fitted_at != state.committed:
        optimize = (state.committed % settings.refit_every) == 0
        with opt.metrics.timed("fit_s"), opt.spans.span(
            "fit", cat="fit", step=state.next_step, optimize=optimize
        ):
            opt._fit_stack(optimize=optimize)
        state.fitted_at = state.committed
        state.conditioned = None
    key = tuple(p.step for p in state.pending)
    if key and state.conditioned != key:
        _condition_on_pending(opt, state.pending)
        state.conditioned = key


def _condition_on_pending(opt, pending: list[PendingEval]) -> None:
    """Ephemerally condition the stack on the recorded fantasies."""
    fantasy_X = {f: [] for f in ALL_FIDELITIES}
    fantasy_Y = {f: [] for f in ALL_FIDELITIES}
    for p in pending:
        x_row = np.asarray(opt.space.features[p.config_index], dtype=float)
        for level, y in p.fantasy_levels.items():
            fantasy_X[level].append(x_row)
            fantasy_Y[level].append(np.asarray(y, dtype=float))
    with opt.metrics.timed("fit_s"), linalg.metered(opt.metrics, "fantasy"):
        opt._stack.fit(
            _fantasized_datasets(opt, fantasy_X, fantasy_Y),
            optimize=False,
            warm_start=opt.settings.warm_start,
            ephemeral=True,
        )


def _fantasy_front(opt, pending: list[PendingEval]):
    """Real front/reference, plus the front extended by pending fantasies."""
    front, ref = opt._front_and_reference()
    fantasy_front = front
    for p in pending:
        fantasy_front = pareto_front(
            np.vstack([fantasy_front, p.fantasy[None, :]])
        )
    return front, ref, fantasy_front


def _propose_one(opt, state: AsyncState) -> PendingEval | None:
    """Fit → fantasy-condition → scan → journal one proposal.

    Returns ``None`` when the candidate pool is dry.  The dryness
    check reads only the evaluation masks — no fit, no RNG draw — so a
    dry attempt between journaled records leaves no unjournaled state
    behind (replay identity depends on this).
    """
    settings = opt.settings
    start = time.perf_counter()
    before = opt.metrics.snapshot() if opt.tracer is not None else None
    pending_configs = {p.config_index for p in state.pending}
    mask = ~opt._eval_mask[Fidelity.IMPL]
    if pending_configs:
        mask = mask.copy()
        mask[list(pending_configs)] = False
    if not mask.any():
        return None
    _ensure_fit(opt, state)
    _front, ref, fantasy_front = _fantasy_front(opt, state.pending)
    with opt.metrics.timed("hvi_s"):
        boxes = dominated_boxes(fantasy_front, ref)
    pool = opt._candidate_pool(exclude=pending_configs)
    choice = opt._scan_best(pool, fantasy_front, ref, boxes)
    if choice is None:
        # Unreachable for a non-empty pool (every pooled configuration
        # is IMPL-eligible by construction) — guarded for safety.
        return None
    index, fidelity, score = choice
    with linalg.metered(opt.metrics, "fantasy"):
        fantasy, fantasy_levels = believer_fantasies(opt, index, fidelity)
    hv_after = None
    if _adaptive(settings) or opt.tracer is not None:
        # The hypervolumes feed only the controller and the trace.
        hv_before = hypervolume(fantasy_front, ref)
        hv_after = hypervolume(
            pareto_front(np.vstack([fantasy_front, fantasy[None, :]])), ref
        )
        if _adaptive(settings):
            _update_target(state, settings, hv_before, hv_after)
    pend = PendingEval(
        step=state.next_step,
        config_index=index,
        fidelity=fidelity,
        acquisition=score,
        fantasy=fantasy,
        fantasy_levels=fantasy_levels,
        eta_s=state.sim_s + float(opt.flow.stage_time(fidelity)),
        pool_size=int(pool.size),
        t_start=start,
    )
    if opt._journal is not None:
        # Journaled *before* submission: a crash in between resubmits
        # the proposal on resume instead of losing it.
        opt._journal.write(
            run_journal.propose_record(
                step=pend.step,
                config_index=pend.config_index,
                fidelity=pend.fidelity,
                acquisition=pend.acquisition,
                fantasy=pend.fantasy,
                fantasy_levels=pend.fantasy_levels,
                eta_s=pend.eta_s,
                sim_s=state.sim_s,
                target=state.target,
                pool_size=pend.pool_size,
                rng_state=opt.rng.bit_generator.state,
            )
        )
    state.pending.append(pend)
    state.next_step += 1
    if opt.tracer is not None:
        _trace_proposal(opt, state, pend, before, time.perf_counter() - start)
        _trace_inflight(opt, state, float(hv_after))
    return pend


def _submit(engine: EvalEngine, pend: PendingEval) -> None:
    pend.job = EvalJob(
        order=pend.step,
        step=pend.step,
        config_index=pend.config_index,
        fidelity=pend.fidelity,
    )
    pend.handle = engine.submit(pend.job)


def _drain_one(opt, state: AsyncState, engine: EvalEngine) -> None:
    """Commit the pending evaluation next in modeled (or step) order."""
    pend = _next_commit(state, opt.settings)
    with opt.spans.span(
        "inflight_wait", cat="eval", step=pend.step,
        config_index=pend.config_index, fidelity=pend.fidelity.short_name,
    ):
        outcome = engine.wait(pend.job, pend.handle)
    if outcome.error is not None:
        raise FlowEvalError(
            f"evaluation of config {pend.config_index} at "
            f"{pend.fidelity.short_name} (step {pend.step}) failed on "
            f"worker {outcome.worker or '?'}:\n{outcome.error}"
        )
    with opt.spans.span("commit", cat="step", step=pend.step):
        opt.metrics.add_time("eval_s", outcome.exec_s)
        opt._fold_outcome(
            pend.config_index,
            pend.fidelity,
            outcome.outcome,
            acquisition=pend.acquisition,
            step=pend.step,
        )
        state.sim_s = max(state.sim_s, pend.eta_s)
        state.committed += 1
        state.pending.remove(pend)
        if opt.tracer is not None:
            _trace_commit(opt, pend, outcome, state)
            _front, ref, fantasy_front = _fantasy_front(opt, state.pending)
            _trace_inflight(
                opt, state, float(hypervolume(fantasy_front, ref))
            )


def run_async_loop(
    opt, resume: AsyncState | None = None, engine=None
) -> None:
    """The propose/commit pipeline: Algorithm 2's loop in every mode.

    Drives a :class:`repro.core.optimizer.CorrelatedMFBO` whose initial
    design is already evaluated (or replayed).  Proposes while
    :func:`_filling` allows, then commits one evaluation — the fill is
    retried after every commit because lower-fidelity configurations
    return to the candidate pool when they leave the pending set.
    Exits when a fill attempt finds the pool dry *and* nothing is
    pending.  ``engine`` injects any object honoring the
    :class:`repro.core.batch.engine.EvalEngine` submit/wait/close
    contract (e.g. a fleet ``RemoteExecutor``); the loop owns it and
    closes it on exit.
    """
    settings = opt.settings
    spans = opt.spans
    if engine is None:
        engine = EvalEngine(
            opt.space,
            opt.flow,
            workers=settings.eval_workers,
            timeout_s=settings.eval_timeout_s,
            retry_policy=opt._retry_policy,
            seed=settings.seed,
            spans=opt.spans,
        )
    state = resume if resume is not None else AsyncState(
        target=_initial_target(settings)
    )
    try:
        for pend in state.pending:
            _submit(engine, pend)  # resume: relaunch journaled in-flight work
        while True:
            while _filling(state, settings):
                with spans.span(
                    "propose", cat="acquire", step=state.next_step
                ):
                    pend = _propose_one(opt, state)
                if pend is None:
                    break
                _submit(engine, pend)
            if not state.pending:
                break
            _drain_one(opt, state, engine)
    finally:
        engine.close()


def replay_async(opt, plan: run_journal.AsyncReplayPlan) -> AsyncState:
    """Re-derive a journaled run's state, bitwise.

    Walks the journal in live order: commits replay through the
    ordinary ``_commit`` path (no journal writes, no flow runs),
    proposals re-run the *fit sequence* the live loop performed before
    them (:func:`_ensure_fit`, including the ephemeral fantasy
    conditioning rebuilt from the journaled believer values) and then
    hard-restore the captured post-selection RNG state.  Returns the
    :class:`AsyncState` the resumed live loop continues from (its
    pending set still needs resubmission — :func:`run_async_loop` does
    that).
    """
    state = AsyncState(target=_initial_target(opt.settings))
    opt._replaying = True
    try:
        opt._journal_phase = "init"
        for record in plan.init_records:
            opt._commit(**run_journal.commit_kwargs(record))
        if plan.init_records:
            opt.rng.bit_generator.state = plan.init_records[-1]["rng_state"]
        opt._journal_phase = "loop"
        for record in plan.loop_records:
            if record["event"] == "propose":
                _ensure_fit(opt, state)
                decoded = run_journal.propose_kwargs(record)
                state.pending.append(
                    PendingEval(
                        step=decoded["step"],
                        config_index=decoded["config_index"],
                        fidelity=decoded["fidelity"],
                        acquisition=decoded["acquisition"],
                        fantasy=np.asarray(decoded["fantasy"], dtype=float),
                        fantasy_levels={
                            level: np.asarray(y, dtype=float)
                            for level, y in decoded["fantasy_levels"].items()
                        },
                        eta_s=decoded["eta_s"],
                        pool_size=decoded["pool_size"],
                    )
                )
                state.next_step += 1
                state.target = decoded["target"]
            else:
                opt._commit(**run_journal.commit_kwargs(record))
                step = int(record["step"])
                pend = next(p for p in state.pending if p.step == step)
                state.sim_s = max(state.sim_s, pend.eta_s)
                state.committed += 1
                state.pending.remove(pend)
            opt.rng.bit_generator.state = record["rng_state"]
        if plan.verify_records:
            opt._journal_phase = "verify"
            for record in plan.verify_records:
                opt._commit(**run_journal.commit_kwargs(record))
            opt.rng.bit_generator.state = plan.verify_records[-1]["rng_state"]
    finally:
        opt._replaying = False
    opt._verify_attempted = set(plan.verify_attempted)
    if opt.tracer is not None:
        opt.tracer.write(
            {
                "v": TRACE_SCHEMA_VERSION,
                "event": "resume",
                "journal": str(opt._journal.path) if opt._journal else None,
                "replayed": plan.replayed,
                "dropped": plan.dropped,
                "next_step": plan.next_step,
            }
        )
    return state


# ----------------------------------------------------------------------
# trace emission (schema v8)
# ----------------------------------------------------------------------


def _trace_proposal(
    opt, state: AsyncState, pend: PendingEval, before: dict, select_s: float
) -> None:
    delta = Metrics.delta(before, opt.metrics.snapshot())
    opt.tracer.write(
        {
            "v": TRACE_SCHEMA_VERSION,
            "event": "proposal",
            "step": pend.step,
            "config_index": pend.config_index,
            "fidelity": pend.fidelity.short_name,
            "acquisition": pend.acquisition,
            "fantasy": [float(v) for v in pend.fantasy],
            "pool_size": pend.pool_size,
            "eta_s": pend.eta_s,
            "target": state.target,
            "fit_s": delta.get("fit_s", 0.0),
            "predict_s": delta.get("predict_s", 0.0),
            "hvi_s": delta.get("hvi_s", 0.0),
            "select_s": select_s,
            "cache_hits": int(delta.get("cache_hits", 0)),
            "cache_misses": int(delta.get("cache_misses", 0)),
        }
    )


def _trace_inflight(opt, state: AsyncState, fantasy_hv: float) -> None:
    in_flight = {f.short_name: 0 for f in ALL_FIDELITIES}
    for p in state.pending:
        in_flight[p.fidelity.short_name] += 1
    opt.tracer.write(
        {
            "v": TRACE_SCHEMA_VERSION,
            "event": "inflight",
            "committed": state.committed,
            "n_pending": len(state.pending),
            "in_flight": in_flight,
            "target": state.target,
            "fantasy_hv": fantasy_hv,
            "sim_s": state.sim_s,
        }
    )


def _trace_commit(opt, pend: PendingEval, outcome, state: AsyncState) -> None:
    record = opt._history[-1]
    opt.tracer.write(
        {
            "v": TRACE_SCHEMA_VERSION,
            "event": "commit",
            "step": pend.step,
            "config_index": pend.config_index,
            "fidelity": record.fidelity.short_name,
            "valid": record.valid,
            "objectives": [float(v) for v in record.objectives],
            "fantasy": [float(v) for v in pend.fantasy],
            "flow_runtime_s": record.runtime_s,
            "queue_wait_s": outcome.queue_wait_s,
            "exec_s": outcome.exec_s,
            "worker": outcome.worker,
            "attempts": record.attempts,
            "requested_fidelity": pend.fidelity.short_name,
            "degraded": record.degraded,
            "failed": record.failed,
            "wasted_runtime_s": outcome.outcome.wasted_runtime_s
            if outcome.outcome is not None
            else 0.0,
            "inflight": len(state.pending),
            "step_s": time.perf_counter() - pend.t_start,
        }
    )
