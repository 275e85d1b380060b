"""Tests for the Algorithm-2 optimizer (repro.core.optimizer)."""

import numpy as np
import pytest

from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.dse.space import DesignSpace
from repro.hlsim.device import TINY_DEVICE
from repro.hlsim.flow import HlsFlow, ground_truth
from repro.hlsim.ir import (
    Array,
    ArrayAccess,
    FidelityProfile,
    Kernel,
    Loop,
    OpCounts,
)
from repro.hlsim.reports import ALL_FIDELITIES, Fidelity


def small_kernel():
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
        name="opt-kernel",
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
    return DesignSpace.from_kernel(small_kernel())


@pytest.fixture(scope="module")
def flow(space):
    return HlsFlow.for_space(space)


def quick_settings(**overrides):
    defaults = dict(
        n_init=(6, 4, 3), n_iter=5, n_mc_samples=24, candidate_pool=32,
        refit_every=2, seed=0,
    )
    defaults.update(overrides)
    return MFBOSettings(**defaults)


class TestSettings:
    def test_rejects_non_nested_init(self):
        with pytest.raises(ValueError, match="nest"):
            MFBOSettings(n_init=(4, 6, 2))

    def test_rejects_tiny_init(self):
        with pytest.raises(ValueError, match="at least 2"):
            MFBOSettings(n_init=(8, 6, 1))

    def test_rejects_weak_penalty(self):
        with pytest.raises(ValueError, match="invalid_penalty"):
            MFBOSettings(invalid_penalty=1.0)

    def test_linear_correlated_unsupported(self, space, flow):
        settings = quick_settings(correlated=True, nonlinear=False)
        with pytest.raises(ValueError, match="linear"):
            CorrelatedMFBO(space, flow, settings)


class TestRun:
    def test_produces_result(self, space, flow):
        result = CorrelatedMFBO(space, flow, quick_settings()).run()
        assert result.kernel_name == "opt-kernel"
        assert len(result.cs_indices) >= 6
        assert result.cs_values.shape[1] == 3
        assert result.total_runtime_s > 0
        assert result.pareto_indices()

    def test_deterministic_given_seed(self, space, flow):
        a = CorrelatedMFBO(space, flow, quick_settings(seed=5)).run()
        b = CorrelatedMFBO(space, flow, quick_settings(seed=5)).run()
        assert a.cs_indices == b.cs_indices
        assert np.allclose(a.cs_values, b.cs_values)
        assert a.total_runtime_s == pytest.approx(b.total_runtime_s)

    def test_different_seeds_differ(self, space, flow):
        a = CorrelatedMFBO(space, flow, quick_settings(seed=1)).run()
        b = CorrelatedMFBO(space, flow, quick_settings(seed=2)).run()
        assert a.cs_indices != b.cs_indices

    def test_nested_initial_sets(self, space, flow):
        optimizer = CorrelatedMFBO(space, flow, quick_settings(n_iter=0))
        result = optimizer.run()
        hls = set(optimizer._data[Fidelity.HLS].indices)
        syn = set(optimizer._data[Fidelity.SYN].indices)
        impl = set(optimizer._data[Fidelity.IMPL].indices)
        assert impl <= syn <= hls
        assert len(hls) == 6

    def test_final_verification_runs_pareto_at_impl(self, space, flow):
        result = CorrelatedMFBO(
            space, flow, quick_settings(final_verification=True)
        ).run()
        impl_evaluated = {
            r.config_index for r in result.history
            if r.fidelity == Fidelity.IMPL
        }
        for idx in result.pareto_indices():
            assert idx in impl_evaluated

    def test_no_final_verification_leaves_low_fidelity_entries(self, space, flow):
        result = CorrelatedMFBO(
            space, flow, quick_settings(final_verification=False)
        ).run()
        assert any(f != Fidelity.IMPL for f in result.cs_fidelities)

    def test_runtime_counts_stage_prefixes(self, space, flow):
        result = CorrelatedMFBO(space, flow, quick_settings()).run()
        assert result.total_runtime_s == pytest.approx(
            sum(r.runtime_s for r in result.history)
        )

    def test_fidelity_histogram_totals(self, space, flow):
        result = CorrelatedMFBO(space, flow, quick_settings()).run()
        histogram = result.fidelity_histogram()
        assert sum(histogram.values()) == len(result.history)

    def test_no_duplicate_observations_per_fidelity(self, space, flow):
        optimizer = CorrelatedMFBO(space, flow, quick_settings(n_iter=6))
        optimizer.run()
        for fidelity in ALL_FIDELITIES:
            indices = optimizer._data[fidelity].indices
            assert len(indices) == len(set(indices))

    def test_cost_aware_prefers_cheap_fidelities(self, space, flow):
        result = CorrelatedMFBO(
            space, flow,
            quick_settings(n_iter=8, final_verification=False),
        ).run()
        histogram = result.fidelity_histogram()
        # Selection steps only (init excluded by construction below):
        selections = [r for r in result.history if r.step >= 0]
        hls_share = sum(
            1 for r in selections if r.fidelity == Fidelity.HLS
        ) / max(1, len(selections))
        assert hls_share >= 0.5

    def test_beats_random_search_on_average(self, space, flow):
        """The headline sanity check: BO > random at equal repeats."""
        from repro.baselines.random_search import run_random_search
        from repro.core.pareto import pareto_front
        from repro.metrics.adrs import adrs

        Y, valid = ground_truth(space, flow)
        front = pareto_front(Y[valid])
        bo_scores, random_scores = [], []
        for seed in range(3):
            bo = CorrelatedMFBO(
                space, flow, quick_settings(n_iter=10, seed=seed)
            ).run()
            bo_scores.append(adrs(front, Y[bo.pareto_indices()]))
            rnd = run_random_search(
                space, flow, np.random.default_rng(seed), n_evals=12
            )
            random_scores.append(adrs(front, Y[rnd.pareto_indices()]))
        # On a space this small random search is genuinely competitive;
        # BO must at least stay in the same league.
        assert np.mean(bo_scores) <= np.mean(random_scores) * 2.0

    def test_small_device_invalid_punishment(self):
        """On a tiny device the optimizer meets invalid designs and
        records punished values 10x the worst valid observation."""
        kernel = small_kernel()
        space = DesignSpace.from_kernel(kernel)
        flow = HlsFlow.for_space(space, device=TINY_DEVICE)
        optimizer = CorrelatedMFBO(
            space, flow, quick_settings(n_iter=8, seed=3)
        )
        result = optimizer.run()
        invalid_records = [r for r in result.history if not r.valid]
        if invalid_records:  # punishment path exercised
            worst = optimizer._worst_seen
            for record in invalid_records:
                assert np.all(record.objectives >= worst)

    def test_space_exhaustion_stops_cleanly(self):
        loop = Loop(
            name="L", trip_count=16, body=OpCounts(add=1, load=1),
            accesses=(ArrayAccess("A", index_loop="L"),),
            unroll_factors=(1, 2),
        )
        kernel = Kernel(
            name="micro",
            arrays=(Array("A", depth=64, partition_factors=(1, 2)),),
            loops=(loop,),
        )
        space = DesignSpace.from_kernel(kernel)
        flow = HlsFlow.for_space(space)
        settings = MFBOSettings(
            n_init=(2, 2, 2), n_iter=50, n_mc_samples=8,
            candidate_pool=None, seed=0,
        )
        result = CorrelatedMFBO(space, flow, settings).run()
        # Cannot evaluate more configs at impl than exist.
        assert result.evaluation_counts["impl"] <= len(space)


class TestPunishmentRescaling:
    """ISSUE 1 satellite: punished entries must track the growing worst."""

    def test_punished_entries_rescale_when_worst_grows(self, space, flow):
        optimizer = CorrelatedMFBO(space, flow, quick_settings())
        optimizer._track_worst(np.array([1.0, 1.0, 1.0]))
        snapshot = optimizer._punished_value()
        optimizer._data[Fidelity.HLS].add(7, snapshot, punished=True)
        optimizer._cs[7] = (snapshot, Fidelity.HLS, False)
        optimizer._punished_cs.add(7)
        # A much worse valid observation arrives: the stale punished
        # snapshot must be recomputed, not kept frozen.
        optimizer._track_worst(np.array([5.0, 2.0, 1.0]))
        expected = np.array([50.0, 20.0, 10.0])
        assert np.allclose(optimizer._data[Fidelity.HLS].values[-1], expected)
        assert np.allclose(optimizer._cs[7][0], expected)

    def test_sentinel_replaced_once_valid_seen(self, space, flow):
        optimizer = CorrelatedMFBO(space, flow, quick_settings())
        sentinel = optimizer._punished_value()  # no valid design yet
        assert np.allclose(sentinel, 1e6)
        optimizer._data[Fidelity.SYN].add(3, sentinel, punished=True)
        optimizer._track_worst(np.array([2.0, 3.0, 4.0]))
        assert np.allclose(
            optimizer._data[Fidelity.SYN].values[-1],
            np.array([20.0, 30.0, 40.0]),
        )

    def test_end_to_end_punished_rows_consistent(self):
        kernel = small_kernel()
        space = DesignSpace.from_kernel(kernel)
        flow = HlsFlow.for_space(space, device=TINY_DEVICE)
        optimizer = CorrelatedMFBO(
            space, flow, quick_settings(n_iter=8, seed=3)
        )
        optimizer.run()
        p = optimizer._punished_value()
        rows_seen = 0
        for fidelity in ALL_FIDELITIES:
            data = optimizer._data[fidelity]
            for row in data.punished_rows:
                rows_seen += 1
                assert np.allclose(data.values[row], p)
        if optimizer._worst_seen is not None:
            # The 1e6 bootstrap sentinel must never survive the run.
            for fidelity in ALL_FIDELITIES:
                for row in optimizer._data[fidelity].punished_rows:
                    values = optimizer._data[fidelity].values[row]
                    assert not np.allclose(values, 1e6)


class TestFitStackStarvation:
    """Persistent fault loads can leave a fidelity with < 2 points;
    ``_fit_stack`` must chain the starved level onto the nearest
    populated one (preferring below) or raise a clear diagnostic."""

    def _seed_level(self, opt, fidelity, indices):
        for i in indices:
            y = np.array([10.0 + i, 5.0 + 0.5 * i, 1.0 + 0.1 * i])
            opt._data[fidelity].add(i, y)

    def test_starved_bottom_level_chains_to_level_above(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        self._seed_level(opt, Fidelity.SYN, [0, 1, 2])
        self._seed_level(opt, Fidelity.IMPL, [0, 1])
        opt._fit_stack(optimize=False)  # HLS empty: must not crash
        means, _covs = opt._stack.predict(
            int(Fidelity.HLS), space.features[:3]
        )
        assert np.all(np.isfinite(means))

    def test_starved_middle_level_prefers_level_below(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        self._seed_level(opt, Fidelity.HLS, [0, 1, 2, 3])
        self._seed_level(opt, Fidelity.IMPL, [0, 1])
        opt._fit_stack(optimize=False)  # SYN starved (1 point short)
        means, _covs = opt._stack.predict(
            int(Fidelity.SYN), space.features[:3]
        )
        assert np.all(np.isfinite(means))

    def test_single_point_counts_as_starved(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        self._seed_level(opt, Fidelity.HLS, [0, 1, 2])
        self._seed_level(opt, Fidelity.SYN, [3])  # below the 2-point min
        opt._fit_stack(optimize=False)
        means, _covs = opt._stack.predict(
            int(Fidelity.SYN), space.features[:3]
        )
        assert np.all(np.isfinite(means))

    def test_all_levels_starved_raises_clear_diagnostic(self, space, flow):
        opt = CorrelatedMFBO(space, flow, quick_settings())
        self._seed_level(opt, Fidelity.HLS, [0])  # 1 point everywhere short
        with pytest.raises(
            RuntimeError, match="starved below the 2-point fit minimum"
        ):
            opt._fit_stack(optimize=False)


class TestFidelityDataIndexSet:
    """ISSUE 1 satellite: contains() must be O(1), not a per-call set build."""

    def test_contains_and_index_set_stay_in_sync(self):
        from repro.core.optimizer import _FidelityData

        data = _FidelityData()
        assert not data.contains(3)
        data.add(3, np.array([1.0, 2.0, 3.0]))
        data.add(9, np.array([4.0, 5.0, 6.0]), punished=True)
        assert data.contains(3)
        assert data.contains(9)
        assert not data.contains(4)
        assert data.index_set == {3, 9}
        assert data.punished_rows == [1]
        assert data.matrix().shape == (2, 3)


class TestHotPath:
    """ISSUE 1 tentpole: cached sweep is exact; fast path stays sane."""

    def _history_trace(self, result):
        trace = []
        for r in result.history:
            acq = None if np.isnan(r.acquisition) else r.acquisition
            trace.append(
                (r.step, r.config_index, int(r.fidelity), acq,
                 tuple(float(v) for v in r.objectives))
            )
        return trace

    def test_cached_sweep_bitwise_identical_to_uncached(self, space, flow):
        def run(cache):
            settings = quick_settings(
                n_iter=6, seed=11, cache_predictions=cache, warm_start=False,
            )
            return CorrelatedMFBO(space, flow, settings).run()

        compat = run(False)
        cached = run(True)
        assert self._history_trace(cached) == self._history_trace(compat)

    def test_cache_actually_hits(self, space, flow):
        optimizer = CorrelatedMFBO(
            space, flow,
            quick_settings(cache_predictions=True, warm_start=False),
        )
        optimizer.run()
        assert optimizer._stack.cache_hits > 0
        assert optimizer.metrics.count("cache_hits") > 0

    def test_warm_start_deterministic_and_produces_result(self, space, flow):
        settings = dict(cache_predictions=True, warm_start=True, seed=13)
        a = CorrelatedMFBO(space, flow, quick_settings(**settings)).run()
        b = CorrelatedMFBO(space, flow, quick_settings(**settings)).run()
        assert a.cs_indices == b.cs_indices
        assert np.allclose(a.cs_values, b.cs_values)
        assert len(a.pareto_indices()) >= 1

    def test_metrics_attribute_step_time(self, space, flow):
        optimizer = CorrelatedMFBO(space, flow, quick_settings())
        optimizer.run()
        snap = optimizer.metrics.snapshot()
        assert snap.get("fit", 0.0) > 0.0
        assert snap.get("flow_eval", 0.0) > 0.0
        assert snap.get("acquire", 0.0) > 0.0
