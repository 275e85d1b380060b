"""Tests for the batch subsystem (repro.core.batch)."""

import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.batch.async_engine import (
    AsyncState,
    _propose_one,
    run_async_loop,
)
from repro.core.batch.engine import (
    EvalEngine,
    EvalJob,
    FlowEvalError,
    parallel_fidelity_sweep,
)
from repro.core.batch.qeipv import _fantasized_datasets, believer_fantasies
from repro.core.batch.workers import resolve_worker_count
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings, _FidelityData
from repro.core.resilience.retry import RetryPolicy
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow, fidelity_sweep
from repro.hlsim.ir import (
    Array,
    ArrayAccess,
    FidelityProfile,
    Kernel,
    Loop,
    OpCounts,
)
from repro.hlsim.reports import ALL_FIDELITIES, Fidelity
from repro.obs.trace import (
    COMMIT_TRACE_FIELDS,
    INFLIGHT_TRACE_FIELDS,
    PROPOSAL_TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    read_trace,
)


def batch_kernel():
    loop = Loop(
        name="L",
        trip_count=256,
        body=OpCounts(add=2, mul=1, load=2, store=1),
        accesses=(ArrayAccess("A", index_loop="L", reads=2.0, writes=1.0),),
        unroll_factors=(1, 2, 4, 8),
        pipeline_site=True,
        ii_candidates=(1, 2, 4),
    )
    extra = Loop(
        name="E",
        trip_count=128,
        body=OpCounts(load=1, store=1),
        accesses=(ArrayAccess("B", index_loop="E", reads=1.0, writes=1.0),),
        unroll_factors=(1, 2, 4),
        pipeline_site=True,
        ii_candidates=(1,),
    )
    return Kernel(
        name="batch-kernel",
        arrays=(
            Array("A", depth=1024, partition_factors=(1, 2, 4, 8)),
            Array("B", depth=512, partition_factors=(1, 2, 4)),
        ),
        loops=(loop, extra),
        fidelity=FidelityProfile(
            irregularity=0.4, noise=0.01, t_hls=10.0, t_syn=50.0, t_impl=120.0
        ),
    )


@pytest.fixture(scope="module")
def space():
    return DesignSpace.from_kernel(batch_kernel())


@pytest.fixture()
def flow(space):
    return HlsFlow.for_space(space)


def quick_settings(**overrides):
    defaults = dict(
        n_init=(6, 4, 3), n_iter=5, n_mc_samples=24, candidate_pool=32,
        refit_every=2, seed=0,
    )
    defaults.update(overrides)
    return MFBOSettings(**defaults)


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


def _evaluate(engine, jobs):
    """Submit every job, then wait on each in proposal order."""
    handles = [engine.submit(job) for job in jobs]
    return [engine.wait(job, handle) for job, handle in zip(jobs, handles)]


def _bypass_clamp(monkeypatch):
    """Let tests run real thread pools on single-CPU machines."""
    monkeypatch.setattr(
        "repro.core.batch.engine.resolve_worker_count",
        lambda workers, label="workers": max(1, int(workers)),
    )


class TestSettings:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            MFBOSettings(batch_size=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="eval_timeout_s"):
            MFBOSettings(eval_timeout_s=0.0)


class TestQ1Parity:
    def test_bitwise_parity_with_sequential(self, space):
        seq = CorrelatedMFBO(
            space, HlsFlow.for_space(space), quick_settings()
        ).run()
        bat = CorrelatedMFBO(
            space,
            HlsFlow.for_space(space),
            quick_settings(batch_size=1, eval_workers=1),
        ).run()
        assert _hist(seq) == _hist(bat)
        assert seq.cs_indices == bat.cs_indices
        assert np.array_equal(seq.cs_values, bat.cs_values)
        assert seq.cs_fidelities == bat.cs_fidelities
        assert seq.total_runtime_s == bat.total_runtime_s
        assert seq.evaluation_counts == bat.evaluation_counts

    @pytest.mark.parametrize("seed", [3, 11])
    def test_parity_holds_across_seeds(self, space, seed):
        seq = CorrelatedMFBO(
            space, HlsFlow.for_space(space), quick_settings(seed=seed, n_iter=4)
        ).run()
        bat = CorrelatedMFBO(
            space,
            HlsFlow.for_space(space),
            quick_settings(seed=seed, n_iter=4),
        ).run()
        assert _hist(seq) == _hist(bat)
        assert seq.cs_indices == bat.cs_indices


class _StubStack:
    """Predicts ``level + 1`` for every objective (hand-computable)."""

    def predict(self, level, X):
        means = np.full((X.shape[0], 2), float(level) + 1.0)
        return means, None

    def predict_levels(self, levels, X):
        return {int(level): self.predict(level, X) for level in levels}


class TestFantasization:
    def _fake_opt(self):
        opt = SimpleNamespace()
        opt._stack = _StubStack()
        opt._data = {f: _FidelityData() for f in ALL_FIDELITIES}
        opt.space = SimpleNamespace(
            features=np.arange(20, dtype=float).reshape(10, 2)
        )
        return opt

    @staticmethod
    def _accumulate(opt, index, fidelity, fX, fY):
        """Fold one pick's believer values in, as the loop's fantasy
        conditioning does."""
        fantasy, fantasy_levels = believer_fantasies(opt, index, fidelity)
        for level, y in fantasy_levels.items():
            fX[level].append(
                np.asarray(opt.space.features[index], dtype=float)
            )
            fY[level].append(y)
        return fantasy

    def test_levels_filled_up_to_fidelity(self):
        opt = self._fake_opt()
        opt._data[Fidelity.HLS].add(7, np.array([1.0, 2.0]))
        fX = {f: [] for f in ALL_FIDELITIES}
        fY = {f: [] for f in ALL_FIDELITIES}
        x = opt.space.features[7:8]
        fantasy = self._accumulate(opt, 7, Fidelity.SYN, fX, fY)
        # The proposal's fantasy is the believer value at the chosen
        # fidelity (stub posterior mean = level + 1).
        assert np.array_equal(fantasy, [2.0, 2.0])
        # HLS already holds a real observation of config 7: no fantasy.
        assert fX[Fidelity.HLS] == []
        # SYN gets the believer value.
        assert len(fX[Fidelity.SYN]) == 1
        assert np.array_equal(fX[Fidelity.SYN][0], x[0])
        assert np.array_equal(fY[Fidelity.SYN][0], [2.0, 2.0])
        # IMPL is above the chosen fidelity: untouched.
        assert fX[Fidelity.IMPL] == []

    def test_fantasies_accumulate_across_picks(self):
        opt = self._fake_opt()
        opt._data[Fidelity.HLS].add(7, np.array([1.0, 2.0]))
        opt._data[Fidelity.SYN].add(7, np.array([3.0, 4.0]))
        fX = {f: [] for f in ALL_FIDELITIES}
        fY = {f: [] for f in ALL_FIDELITIES}
        self._accumulate(opt, 7, Fidelity.IMPL, fX, fY)
        self._accumulate(opt, 3, Fidelity.SYN, fX, fY)
        assert [len(fX[f]) for f in ALL_FIDELITIES] == [1, 1, 1]
        datasets = _fantasized_datasets(opt, fX, fY)
        X_hls, Y_hls = datasets[int(Fidelity.HLS)]
        # Real row first, then the fantasy row (config 3 at level HLS).
        assert X_hls.shape == (2, 2) and Y_hls.shape == (2, 2)
        assert np.array_equal(Y_hls[0], [1.0, 2.0])
        assert np.array_equal(X_hls[1], opt.space.features[3])
        assert np.array_equal(Y_hls[1], [1.0, 1.0])
        X_impl, Y_impl = datasets[int(Fidelity.IMPL)]
        # IMPL has no real data: only config 7's believer value.
        assert X_impl.shape == (1, 2)
        assert np.array_equal(Y_impl[0], [3.0, 3.0])

    def test_fantasy_is_posterior_mean(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        opt._initial_design()
        proposal = _propose_one(opt, AsyncState())
        x = space.features[proposal.config_index : proposal.config_index + 1]
        means, _ = opt._stack.predict(int(proposal.fidelity), x)
        assert np.array_equal(proposal.fantasy, means[0])

    def test_round_proposals_distinct(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings(batch_size=4))
        opt._initial_design()
        state = AsyncState(target=4)
        proposals = [_propose_one(opt, state) for _ in range(4)]
        assert proposals == state.pending
        indices = [p.config_index for p in proposals]
        assert len(set(indices)) == 4
        assert [p.step for p in proposals] == [0, 1, 2, 3]


class _SleepyFlow(HlsFlow):
    """Real flow with per-config sleeps and completion-order logging."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delays: dict[int, float] = {}
        self.completed: list[int] = []
        self.attempts: dict[int, int] = {}
        self._space_ref = None
        self._lock = threading.Lock()

    def bind(self, space, delays):
        self._space_ref = space
        self.delays = delays
        return self

    def _index_of(self, config) -> int:
        for i in range(len(self._space_ref)):
            if self._space_ref[i].values == config.values:
                return i
        raise KeyError(config.values)

    def run(self, config, upto=Fidelity.IMPL):
        index = self._index_of(config)
        with self._lock:
            attempt = self.attempts.get(index, 0) + 1
            self.attempts[index] = attempt
        delay = self.delays.get(index, 0.0)
        if delay:
            time.sleep(delay)
        with self._lock:  # HlsFlow's LRU cache is not thread-safe
            result = super().run(config, upto=upto)
            self.completed.append(index)
        return result


class _BoomFlow(HlsFlow):
    """Raises on one designated configuration index."""

    boom_index = None
    _space_ref = None

    def run(self, config, upto=Fidelity.IMPL):
        if (
            self.boom_index is not None
            and self._space_ref[self.boom_index].values == config.values
        ):
            raise RuntimeError("flow exploded")
        return super().run(config, upto=upto)


class TestEvalEngine:
    def test_outcomes_in_proposal_order_despite_completion_order(
        self, space, monkeypatch
    ):
        _bypass_clamp(monkeypatch)
        sleepy = _SleepyFlow.for_space(space).bind(
            space, {0: 0.4, 1: 0.2, 2: 0.0}
        )
        jobs = [
            EvalJob(order=i, step=i, config_index=i, fidelity=Fidelity.HLS)
            for i in range(3)
        ]
        with EvalEngine(
            space, sleepy, workers=3, clamp=False,
            flow_factory=lambda: sleepy,
        ) as engine:
            outcomes = _evaluate(engine, jobs)
        # Workers finished in reverse order...
        assert sleepy.completed == [2, 1, 0]
        # ...but outcomes fold back in proposal order, values intact.
        assert [o.job.order for o in outcomes] == [0, 1, 2]
        clean = HlsFlow.for_space(space)
        for i, outcome in enumerate(outcomes):
            assert outcome.ok and outcome.attempts == 1
            expected = clean.run(space[i], upto=Fidelity.HLS)
            assert outcome.result.total_runtime_s == expected.total_runtime_s
        assert all(v == 0 for v in engine.in_flight_snapshot().values())

    def test_inline_single_worker_shares_flow_cache(self, space, flow):
        engine = EvalEngine(space, flow, workers=1)
        (outcome,) = _evaluate(
            engine,
            [EvalJob(order=0, step=0, config_index=4, fidelity=Fidelity.SYN)]
        )
        assert outcome.ok and outcome.worker
        assert space[4].values in flow._cache  # ran on the original flow

    def test_crash_surfaced_with_traceback(self, space, monkeypatch):
        """Exceptions outside ``retry_on`` stay fatal with a traceback."""
        _bypass_clamp(monkeypatch)
        boom = _BoomFlow.for_space(space)
        boom.boom_index = 1
        boom._space_ref = space
        jobs = [
            EvalJob(order=i, step=i, config_index=i, fidelity=Fidelity.HLS)
            for i in range(3)
        ]
        with EvalEngine(
            space, boom, workers=2, clamp=False, flow_factory=lambda: boom,
            retry_policy=RetryPolicy(retry_on=()),
        ) as engine:
            outcomes = _evaluate(engine, jobs)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "flow exploded" in outcomes[1].error
        assert "Traceback" in outcomes[1].error

    def test_crash_retried_then_exhausted_under_policy(
        self, space, monkeypatch
    ):
        """Covered crashes burn the attempt budget, then fail cleanly."""
        _bypass_clamp(monkeypatch)
        boom = _BoomFlow.for_space(space)
        boom.boom_index = 1
        boom._space_ref = space
        with EvalEngine(
            space, boom, workers=2, clamp=False, flow_factory=lambda: boom,
            retry_policy=RetryPolicy(max_attempts=2),
        ) as engine:
            (outcome,) = _evaluate(
                engine,
                [EvalJob(order=0, step=0, config_index=1,
                         fidelity=Fidelity.HLS)]
            )
        assert outcome.error is None  # absorbed, not fatal
        assert not outcome.ok
        assert outcome.outcome.failed
        assert outcome.attempts == 2
        assert all(
            "flow exploded" in f.error for f in outcome.outcome.failures
        )

    def test_timeout_retries_once_then_succeeds(self, space, monkeypatch):
        _bypass_clamp(monkeypatch)
        sleepy = _SleepyFlow.for_space(space).bind(space, {5: 1.0})

        def run_with_flaky_hang(config, upto=Fidelity.IMPL):
            index = sleepy._index_of(config)
            with sleepy._lock:
                attempt = sleepy.attempts.get(index, 0) + 1
                sleepy.attempts[index] = attempt
            if index == 5 and attempt == 1:
                time.sleep(1.0)  # hang only on the first attempt
            with sleepy._lock:
                return HlsFlow.run(sleepy, config, upto=upto)

        sleepy.run = run_with_flaky_hang
        with EvalEngine(
            space, sleepy, workers=2, timeout_s=0.3, clamp=False,
            flow_factory=lambda: sleepy,
        ) as engine:
            (outcome,) = _evaluate(
                engine,
                [EvalJob(order=0, step=0, config_index=5,
                         fidelity=Fidelity.HLS)]
            )
        assert outcome.ok
        assert outcome.attempts == 2

    def test_timeout_budget_exhaustion_fails_the_job(
        self, space, monkeypatch
    ):
        _bypass_clamp(monkeypatch)
        sleepy = _SleepyFlow.for_space(space).bind(space, {5: 10.0})
        with EvalEngine(
            space, sleepy, workers=2, timeout_s=0.1, clamp=False,
            flow_factory=lambda: sleepy,
            retry_policy=RetryPolicy(max_attempts=2, degrade_fidelity=False),
        ) as engine:
            (outcome,) = _evaluate(
                engine,
                [EvalJob(order=0, step=0, config_index=5,
                         fidelity=Fidelity.HLS)]
            )
        assert not outcome.ok
        assert outcome.error is None  # timeouts are policy territory
        assert outcome.outcome.failed
        assert outcome.attempts == 2
        assert all(
            "timed out" in f.error for f in outcome.outcome.failures
        )

    def test_crash_raises_at_commit_in_batch_loop(self, space):
        boom = _BoomFlow.for_space(space)
        boom._space_ref = space
        settings = quick_settings(
            batch_size=2, n_iter=3,
            retry_max_attempts=1, punish_on_failure=False,
        )
        opt = CorrelatedMFBO(space, boom, settings)
        opt._initial_design()  # boom_index unset: initial design succeeds
        # Whatever the loop proposes first will explode.
        class _AlwaysBoom(_BoomFlow):
            def run(self, config, upto=Fidelity.IMPL):
                raise RuntimeError("flow exploded")

        opt.flow = _AlwaysBoom.for_space(space)
        with pytest.raises(FlowEvalError, match="flow exploded"):
            run_async_loop(opt)


class TestCompletionOrderIndependence:
    def test_eval_workers_do_not_change_committed_results(
        self, space, monkeypatch, tmp_path
    ):
        _bypass_clamp(monkeypatch)

        def run_traced(eval_workers, name):
            path = tmp_path / f"{name}.jsonl"
            with JsonlTraceWriter(path) as tracer:
                result = CorrelatedMFBO(
                    space,
                    HlsFlow.for_space(space),
                    quick_settings(
                        batch_size=3, eval_workers=eval_workers, n_iter=6
                    ),
                    tracer=tracer,
                ).run()
            return result, path

        solo, solo_trace = run_traced(1, "solo")
        pooled, pooled_trace = run_traced(3, "pooled")
        assert _hist(solo) == _hist(pooled)
        assert solo.cs_indices == pooled.cs_indices
        assert np.array_equal(solo.cs_values, pooled.cs_values)
        assert solo.total_runtime_s == pooled.total_runtime_s

        # Traces agree modulo wall-clock and worker-timing fields.
        timing = {
            "proposal": ("fit_s", "predict_s", "hvi_s", "select_s"),
            "commit": ("queue_wait_s", "exec_s", "worker", "step_s"),
        }
        for event, keys in timing.items():
            solo_records = read_trace(solo_trace, event)
            pooled_records = read_trace(pooled_trace, event)
            assert len(solo_records) == len(pooled_records)
            for a, b in zip(solo_records, pooled_records):
                for key in keys:
                    a.pop(key), b.pop(key)
                assert a == b

    def test_shuffled_completion_same_commits(self, space, monkeypatch):
        """Forcing reversed completion order leaves the dataset identical."""
        _bypass_clamp(monkeypatch)

        def make_delayed_flow(delays):
            # Class-level state survives the engine's per-worker clone
            # (``type(flow)(kernel, schema, device)``).
            values_to_index = {
                space[i].values: i for i in range(len(space))
            }

            class _Delayed(HlsFlow):
                _positions: dict[int, int] = {}
                _lock = threading.Lock()

                def run(self, config, upto=Fidelity.IMPL):
                    idx = values_to_index[config.values]
                    with _Delayed._lock:
                        pos = _Delayed._positions.setdefault(
                            idx, len(_Delayed._positions)
                        )
                    time.sleep(delays[pos % len(delays)])
                    with _Delayed._lock:
                        return HlsFlow.run(self, config, upto=upto)

            return _Delayed.for_space(space)

        def run_with_delays(delays):
            settings = quick_settings(
                batch_size=3, eval_workers=3, n_iter=3,
                final_verification=False,
            )
            return CorrelatedMFBO(
                space, make_delayed_flow(delays), settings
            ).run()

        forward = run_with_delays([0.0, 0.04, 0.08])  # finish in order
        reverse = run_with_delays([0.08, 0.04, 0.0])  # finish reversed
        assert _hist(forward) == _hist(reverse)
        assert forward.cs_indices == reverse.cs_indices
        assert np.array_equal(forward.cs_values, reverse.cs_values)


class TestTraceSchemaV3:
    def test_batch_events_round_trip(self, space, tmp_path):
        path = tmp_path / "batch.jsonl"
        with JsonlTraceWriter(path) as tracer:
            CorrelatedMFBO(
                space,
                HlsFlow.for_space(space),
                quick_settings(batch_size=2, n_iter=5),
                tracer=tracer,
            ).run()
        (start,) = read_trace(path, "run_start")
        assert start["v"] == TRACE_SCHEMA_VERSION == 8
        assert start["batch_size"] == 2 and start["eval_workers"] == 1

        proposals = read_trace(path, "proposal")
        inflight = read_trace(path, "inflight")
        commits = read_trace(path, "commit")
        assert len(proposals) == len(commits) == 5  # n_iter evaluations
        # One inflight line per scheduling action; the round barrier
        # fills 2 + 2 + 1 proposals and drains each round completely.
        assert len(inflight) == 10
        assert [r["n_pending"] for r in inflight] == [
            1, 2, 1, 0, 1, 2, 1, 0, 1, 0
        ]
        for record in proposals:
            assert set(record) == set(PROPOSAL_TRACE_FIELDS)
            assert record["v"] == TRACE_SCHEMA_VERSION
            assert len(record["fantasy"]) == 3
        for record in inflight:
            assert set(record) == set(INFLIGHT_TRACE_FIELDS)
            assert sum(record["in_flight"].values()) == record["n_pending"]
        for record, proposal in zip(commits, proposals):
            assert set(record) == set(COMMIT_TRACE_FIELDS)
            assert record["step"] == proposal["step"]
            assert record["config_index"] == proposal["config_index"]
            assert record["fantasy"] == proposal["fantasy"]
            assert len(record["objectives"]) == 3
            assert record["attempts"] == 1
            assert record["requested_fidelity"] == record["fidelity"]
            assert not record["degraded"] and not record["failed"]
            assert record["wasted_runtime_s"] == 0.0
        assert read_trace(path, "step") == []  # schema v8: no step events

    def test_sequential_trace_unchanged(self, space, tmp_path):
        path = tmp_path / "seq.jsonl"
        with JsonlTraceWriter(path) as tracer:
            CorrelatedMFBO(
                space, HlsFlow.for_space(space), quick_settings(n_iter=3),
                tracer=tracer,
            ).run()
        (start,) = read_trace(path, "run_start")
        assert start["batch_size"] == 1
        # The sequential loop emits the same events as every other mode.
        assert len(read_trace(path, "proposal")) == 3
        assert len(read_trace(path, "commit")) == 3
        assert read_trace(path, "step") == []


class TestWorkerClamp:
    def test_nonpositive_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning, match="not positive"):
            assert resolve_worker_count(0) == 1
        with pytest.warns(RuntimeWarning, match="not positive"):
            assert resolve_worker_count(-4, label="--workers") == 1

    def test_oversubscription_clamps_to_cpus(self):
        with pytest.warns(RuntimeWarning, match="exceeds"):
            clamped = resolve_worker_count(100000)
        assert 1 <= clamped < 100000

    def test_valid_count_passes_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(1) == 1

    def test_engine_clamps_by_default(self, space, flow):
        with pytest.warns(RuntimeWarning, match="not positive"):
            engine = EvalEngine(space, flow, workers=0)
        assert engine.workers == 1


class TestParallelFidelitySweep:
    def test_matches_sequential_exactly(self, space, flow, monkeypatch):
        _bypass_clamp(monkeypatch)
        seq = fidelity_sweep(space, flow)
        par = parallel_fidelity_sweep(space, flow, workers=3)
        assert set(seq) == set(par)
        for fidelity in ALL_FIDELITIES:
            assert np.array_equal(seq[fidelity], par[fidelity])

    def test_single_worker_falls_back(self, space, flow):
        seq = fidelity_sweep(space, flow)
        par = parallel_fidelity_sweep(space, flow, workers=1)
        for fidelity in ALL_FIDELITIES:
            assert np.array_equal(seq[fidelity], par[fidelity])
