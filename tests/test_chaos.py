"""Chaos tests: the BO runtime under deterministic fault injection.

:class:`FaultyFlow` injects a seeded schedule of crashes, hangs and
garbage reports; these tests pin down the headline guarantees of the
resilience layer:

- transient faults absorbed by the retry policy leave the optimization
  trajectory **bitwise identical** to a clean run (only the simulated
  wasted tool time differs),
- persistent faults degrade fidelity (or punish, when degradation is
  off) instead of killing the run,
- kill-and-resume stays bitwise under an active fault schedule,
- all of the above hold through the async batch engine.
"""

import numpy as np
import pytest

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.core.resilience import FaultSpec, FaultyFlow, InjectedFlowCrash
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow
from repro.hlsim.ir import (
    Array,
    ArrayAccess,
    FidelityProfile,
    Kernel,
    Loop,
    OpCounts,
)
from repro.hlsim.reports import ALL_FIDELITIES, Fidelity

from tests.test_resilience import (
    assert_bitwise_equal,
    history_fingerprint,
    resilience_kernel,
)


@pytest.fixture(scope="module")
def space():
    return DesignSpace.from_kernel(resilience_kernel())


@pytest.fixture(scope="module")
def flow(space):
    return HlsFlow.for_space(space)


def chaos_settings(**overrides):
    defaults = dict(
        n_init=(6, 4, 3), n_iter=5, n_mc_samples=24, candidate_pool=32,
        refit_every=2, seed=0,
    )
    defaults.update(overrides)
    return MFBOSettings(**defaults)


#: 20% total transient fault rate (crash-heavy), the bench's load.
TRANSIENT = dict(crash_rate=0.12, garbage_rate=0.05, hang_rate=0.03)


def trajectory(result):
    """The fault-invariant part of the history: what was evaluated and
    what it measured (attempt counts and wasted runtime excluded)."""
    import math

    return [
        (
            r.step, r.config_index, int(r.fidelity),
            None if math.isnan(r.acquisition) else r.acquisition,
            tuple(float(v) for v in r.objectives), r.valid,
        )
        for r in result.history
    ]


class TestFaultSchedule:
    def test_schedule_is_deterministic(self, space, flow):
        spec = FaultSpec(seed=5, **TRANSIENT)
        a = FaultyFlow(flow, spec)
        b = FaultyFlow(flow, spec)
        decisions_a = [
            a._scheduled_fault(space[i], stage)
            for i in range(40)
            for stage in ALL_FIDELITIES
        ]
        decisions_b = [
            b._scheduled_fault(space[i], stage)
            for i in range(40)
            for stage in ALL_FIDELITIES
        ]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)

    def test_transient_fault_recovers_after_k_attempts(self, space, flow):
        spec = FaultSpec(seed=0, crash_rate=1.0, transient_attempts=2)
        faulty = FaultyFlow(flow, spec)
        config = space[0]
        for _ in range(2):
            with pytest.raises(InjectedFlowCrash):
                faulty.run(config, upto=Fidelity.HLS)
        result = faulty.run(config, upto=Fidelity.HLS)
        assert result == flow.run(config, upto=Fidelity.HLS)
        assert faulty.injected_faults == 2

    def test_clone_shares_fault_counters(self, space, flow):
        spec = FaultSpec(seed=0, crash_rate=1.0, transient_attempts=1)
        faulty = FaultyFlow(flow, spec)
        clone = faulty.clone()
        with pytest.raises(InjectedFlowCrash):
            clone.run(space[0], upto=Fidelity.HLS)
        # The parent sees the clone's execution: the fault was consumed.
        faulty.run(space[0], upto=Fidelity.HLS)
        assert faulty.injected_faults == 1

    def test_garbage_corrupts_report_but_keeps_validity(self, space, flow):
        spec = FaultSpec(seed=0, garbage_rate=1.0, persistent=True)
        faulty = FaultyFlow(flow, spec)
        result = faulty.run(space[0], upto=Fidelity.HLS)
        report = result.highest
        assert report.valid == flow.run(space[0], upto=Fidelity.HLS).highest.valid
        assert not np.all(np.isfinite(report.objectives()))


class TestTransientFaultParity:
    @pytest.mark.parametrize("seed,fault_seed", [(0, 1), (1, 2), (2, 3)])
    def test_sequential_matches_clean_run(self, space, flow, seed, fault_seed):
        clean = CorrelatedMFBO(
            space, flow, chaos_settings(seed=seed)
        ).run()
        faulty_flow = FaultyFlow(
            flow, FaultSpec(seed=fault_seed, hang_s=0.0, **TRANSIENT)
        )
        faulted = CorrelatedMFBO(
            space, faulty_flow, chaos_settings(seed=seed)
        ).run()
        assert faulty_flow.injected_faults > 0, "fault load never fired"
        assert trajectory(clean) == trajectory(faulted)
        assert clean.cs_indices == faulted.cs_indices
        assert np.array_equal(clean.cs_values, faulted.cs_values)
        # Retried attempts burn simulated tool time; the clean run's
        # total is a strict lower bound.
        assert faulted.total_runtime_s > clean.total_runtime_s
        assert any(r.attempts > 1 for r in faulted.history)
        assert not any(r.degraded or r.failed for r in faulted.history)

    def test_batch_engine_matches_clean_run(self, space, flow):
        overrides = dict(batch_size=2, eval_workers=2)
        clean = CorrelatedMFBO(
            space, flow, chaos_settings(**overrides)
        ).run()
        faulty_flow = FaultyFlow(
            flow, FaultSpec(seed=1, hang_s=0.0, **TRANSIENT)
        )
        faulted = CorrelatedMFBO(
            space, faulty_flow, chaos_settings(**overrides)
        ).run()
        assert faulty_flow.injected_faults > 0
        assert trajectory(clean) == trajectory(faulted)
        assert clean.cs_indices == faulted.cs_indices


class TestPersistentFaults:
    def test_impl_crashes_degrade_to_syn(self, space, flow):
        spec = FaultSpec(
            seed=0, crash_rate={Fidelity.IMPL: 1.0}, persistent=True
        )
        faulty_flow = FaultyFlow(flow, spec)
        result = CorrelatedMFBO(
            space, faulty_flow, chaos_settings()
        ).run()
        degraded = [r for r in result.history if r.degraded]
        assert degraded, "no IMPL request was ever made"
        assert all(r.fidelity < Fidelity.IMPL for r in degraded)
        assert all(
            r.requested_fidelity == Fidelity.IMPL for r in degraded
        )
        assert not any(r.failed for r in result.history)
        assert result.degraded_indices()

    def test_no_degradation_punishes_instead(self, space, flow):
        spec = FaultSpec(
            seed=0, crash_rate={Fidelity.IMPL: 1.0}, persistent=True
        )
        faulty_flow = FaultyFlow(flow, spec)
        settings = chaos_settings(degrade_on_failure=False)
        result = CorrelatedMFBO(space, faulty_flow, settings).run()
        failed = [r for r in result.history if r.failed]
        assert failed, "no IMPL request was ever made"
        assert all(not r.valid for r in failed)
        # A failed config is retired: at most one failed commit each.
        indices = [r.config_index for r in failed]
        assert len(indices) == len(set(indices))

    def test_punished_configs_stay_off_the_front(self, space, flow):
        # Partial persistent fault load: some designs crash the IMPL
        # tool forever (punished), the rest implement cleanly.  The
        # 10x-worst punishment must keep the broken ones dominated.
        spec = FaultSpec(
            seed=0, crash_rate={Fidelity.IMPL: 0.5}, persistent=True
        )
        faulty_flow = FaultyFlow(flow, spec)
        settings = chaos_settings(degrade_on_failure=False)
        result = CorrelatedMFBO(space, faulty_flow, settings).run()
        failed = {r.config_index for r in result.history if r.failed}
        valid = [r for r in result.history if r.valid]
        assert failed and valid, "fault load not partial at this seed"
        assert failed.isdisjoint(result.pareto_indices())


class TestStarvedFidelity:
    def test_starved_hls_level_chains_instead_of_crashing(self, space, flow):
        # Every stage of every evaluation crashes, persistently, and
        # failures punish only the *requested* fidelity.  With
        # n_init=(6, 5, 4) exactly one init config is requested at HLS
        # and one at SYN, so both levels enter the first fit with a
        # single (punished) point — below the stack's 2-point minimum —
        # while IMPL holds 4.  The fit must chain the starved levels
        # onto IMPL and the run must complete.
        spec = FaultSpec(seed=0, crash_rate=1.0, persistent=True)
        opt = CorrelatedMFBO(
            space,
            FaultyFlow(flow, spec),
            chaos_settings(n_init=(6, 5, 4), n_iter=2),
        )
        result = opt.run()
        init_at_hls = [
            r
            for r in result.history
            if r.step == -1 and r.fidelity == Fidelity.HLS
        ]
        assert len(init_at_hls) == 1, "starvation scenario did not arise"
        assert all(r.failed for r in result.history)
        # The chained stack stayed usable: predictions at the starved
        # level are finite.
        means, _covs = opt._stack.predict(
            int(Fidelity.HLS), space.features[:4]
        )
        assert np.all(np.isfinite(means))


class TestResumeUnderFaults:
    def test_kill_and_resume_with_active_faults(self, space, flow, tmp_path):
        spec = FaultSpec(seed=1, hang_s=0.0, **TRANSIENT)
        path = tmp_path / "chaos.journal.jsonl"
        settings = chaos_settings(journal_path=str(path))
        reference = CorrelatedMFBO(
            space, FaultyFlow(flow, spec), settings
        ).run()

        lines = path.read_text().splitlines(keepends=True)
        partial = tmp_path / "cut.journal.jsonl"
        partial.write_text("".join(lines[:9]))
        resumed_settings = chaos_settings(
            journal_path=str(partial), resume_from=str(partial)
        )
        # A fresh FaultyFlow: its transient counters restart, so the
        # re-run evaluations hit their scheduled faults again and the
        # retry layer absorbs them again.  The committed trajectory is
        # bitwise; the retry *accounting* (attempts, wasted tool time)
        # may differ, because replayed commits never re-execute the
        # tool — a transient fault consumed by the original run's loop
        # can fire on the resumed run's first live evaluation instead.
        resumed = CorrelatedMFBO(
            space, FaultyFlow(flow, spec), resumed_settings
        ).run()
        assert trajectory(reference) == trajectory(resumed)
        assert reference.cs_indices == resumed.cs_indices
        assert np.array_equal(reference.cs_values, resumed.cs_values)

    def test_faulted_run_repeats_bitwise(self, space, flow):
        spec = FaultSpec(seed=2, hang_s=0.0, **TRANSIENT)
        a = CorrelatedMFBO(
            space, FaultyFlow(flow, spec), chaos_settings()
        ).run()
        b = CorrelatedMFBO(
            space, FaultyFlow(flow, spec), chaos_settings()
        ).run()
        assert history_fingerprint(a) == history_fingerprint(b)
        assert a.total_runtime_s == b.total_runtime_s
