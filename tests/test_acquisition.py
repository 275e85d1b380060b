"""Tests for EI, cell decomposition, EIPV and the PEIPV penalty."""

import concurrent.futures
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import acquisition
from repro.core.acquisition import (
    _batched_cholesky,
    _norm_pdf,
    _psi,
    ehvi_2d_independent,
    eipv_mc,
    expected_improvement,
    nondominated_cells_2d,
    penalized_eipv,
)
from repro.core.pareto import dominated_boxes, hypervolume, pareto_front

SRC = Path(__file__).resolve().parents[1] / "src"


def _edge_draws(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.standard_normal(n // 2), rng.uniform(-40, 40, n // 2)])
    return np.concatenate([x, [np.inf, -np.inf, 0.0, -0.0, 38.5, -38.5]])


class TestNormalWithoutScipyStats:
    """The CDF/PDF the module uses are scipy.stats.norm's, bit for bit."""

    def test_cdf_and_pdf_equal_scipy_norm(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        x = _edge_draws(200_000)
        assert ndtr(x).tobytes() == norm.cdf(x).tobytes()
        assert _norm_pdf(x).tobytes() == norm.pdf(x).tobytes()

    def test_ei_and_psi_equal_scipy_norm_forms(self):
        from scipy.stats import norm

        rng = np.random.default_rng(1)
        n = 20_000
        mu = rng.normal(size=n)
        sigma = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.01, 2.0, n))
        best = 0.3
        improvement = best - mu
        positive = sigma > 1e-12
        lam = np.zeros_like(mu)
        lam[positive] = improvement[positive] / sigma[positive]
        ei_ref = np.maximum(
            np.where(
                positive,
                sigma * (lam * norm.cdf(lam) + norm.pdf(lam)),
                np.maximum(improvement, 0.0),
            ),
            0.0,
        )
        ei = expected_improvement(mu, sigma, best)
        assert ei.tobytes() == ei_ref.tobytes()

        a = np.where(rng.random(n) < 0.3, -np.inf, rng.normal(size=n) - 1.0)
        b = a + rng.uniform(0.0, 2.0, n)
        b[~np.isfinite(a)] = rng.normal(size=int((~np.isfinite(a)).sum()))
        safe = sigma > 1e-12
        sig = np.where(safe, sigma, 1.0)
        a_eff = np.where(np.isfinite(a), a, mu - 40.0 * sig)
        alpha, beta = (a_eff - mu) / sig, (b - mu) / sig
        value = (
            (b - a_eff) * norm.cdf(alpha)
            + (b - mu) * (norm.cdf(beta) - norm.cdf(alpha))
            + sig * (norm.pdf(beta) - norm.pdf(alpha))
        )
        det = np.clip(b - np.maximum(mu, a), 0.0, None)
        psi_ref = np.where(safe, np.maximum(value, 0.0), det)
        assert _psi(a, b, mu, sigma).tobytes() == psi_ref.tobytes()


class TestExpectedImprovement:
    def test_known_value_at_mean_equals_best(self):
        # mu == best: EI = sigma * phi(0) = sigma / sqrt(2 pi).
        ei = expected_improvement(np.array([1.0]), np.array([2.0]), best=1.0)
        assert ei[0] == pytest.approx(2.0 / np.sqrt(2 * np.pi))

    def test_zero_sigma_uses_deterministic_improvement(self):
        ei = expected_improvement(
            np.array([0.2, 0.8]), np.array([0.0, 0.0]), best=0.5
        )
        assert ei[0] == pytest.approx(0.3)
        assert ei[1] == 0.0

    def test_monotone_in_mean(self):
        mus = np.linspace(-1, 1, 11)
        ei = expected_improvement(mus, np.full(11, 0.3), best=0.0)
        assert np.all(np.diff(ei) <= 1e-12)

    def test_jitter_reduces_ei(self):
        base = expected_improvement(np.array([0.0]), np.array([0.5]), best=0.5)
        jittered = expected_improvement(
            np.array([0.0]), np.array([0.5]), best=0.5, xi=0.3
        )
        assert jittered[0] < base[0]

    @given(
        st.floats(-3, 3), st.floats(0.01, 2.0), st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_monte_carlo(self, mu, sigma, best):
        rng = np.random.default_rng(0)
        ys = rng.normal(mu, sigma, size=200_000)
        mc = np.maximum(best - ys, 0.0).mean()
        analytic = expected_improvement(
            np.array([mu]), np.array([sigma]), best=best
        )[0]
        assert analytic == pytest.approx(mc, rel=0.05, abs=5e-3)


class TestCells:
    def test_cell_count_single_point(self):
        """One Pareto point on a 2-D grid: 3 of 4 cells non-dominated."""
        front = np.array([[0.5, 0.5]])
        ref = np.array([1.0, 1.0])
        cells = nondominated_cells_2d(front, ref)
        assert len(cells) == 3

    def test_cells_cover_hv_complement(self):
        rng = np.random.default_rng(1)
        front = pareto_front(rng.uniform(0.2, 0.9, size=(12, 2)))
        ref = np.array([1.0, 1.0])
        cells = nondominated_cells_2d(front, ref)
        finite = cells[np.all(np.isfinite(cells[:, 0, :]), axis=1)]
        cell_vol = np.prod(finite[:, 1, :] - finite[:, 0, :], axis=1).sum()
        # Finite cells + dominated region tile the box [min(front), ref].
        lo = front.min(axis=0)
        box = np.prod(ref - lo)
        assert cell_vol + hypervolume(front, ref) == pytest.approx(box)


class TestBatchedCholesky:
    def test_well_conditioned_exact(self):
        covs = np.array([[[2.0, 0.5], [0.5, 1.0]]])
        chol = _batched_cholesky(covs)
        assert np.allclose(chol @ chol.transpose(0, 2, 1), covs)

    def test_near_singular_large_scale_keeps_correlation(self):
        # Rank-1 covariance at magnitude 1e16: an *absolute* 1e-10
        # jitter vanishes in float64 rounding (1e16 + 1e-10 == 1e16),
        # which used to push this into the diagonal-only fallback and
        # silently drop the cross-objective correlation.  The scale-
        # relative ladder regularizes it properly.
        covs = np.array([[[1.0, 1.0], [1.0, 1.0]]]) * 1e16
        chol = _batched_cholesky(covs)
        assert np.all(np.isfinite(chol))
        assert chol[0, 1, 0] != 0.0  # off-diagonal survived
        rebuilt = chol @ chol.transpose(0, 2, 1)
        assert np.allclose(rebuilt, covs, rtol=1e-5)

    def test_all_zero_covariance(self):
        # Degenerate input regularizes at the absolute floor (1e-10),
        # i.e. ~1e-5 on the Cholesky diagonal — not a hard failure.
        chol = _batched_cholesky(np.zeros((2, 3, 3)))
        assert np.all(np.isfinite(chol))
        assert np.allclose(chol, 0.0, atol=1e-4)

    @staticmethod
    def _spd_batch(n=8):
        A = np.random.default_rng(0).normal(size=(n, 3, 3))
        return A @ A.transpose(0, 2, 1) + 0.1 * np.eye(3)

    def _assert_exact_except(self, chol, covs, bad):
        for i in range(len(covs)):
            if i != bad:
                want = np.linalg.cholesky(covs[i])
                assert chol[i].tobytes() == want.tobytes(), i

    def test_indefinite_candidate_alone_falls_back_to_diagonal(self):
        covs = self._spd_batch()
        covs[3] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 4.0]]
        chol = _batched_cholesky(covs)
        self._assert_exact_except(chol, covs, bad=3)
        assert np.array_equal(chol[3], np.diag([1.0, 1.0, 2.0]))

    def test_slightly_indefinite_candidate_alone_gets_jitter(self):
        covs = self._spd_batch()
        c = 1.0 + 1e-12  # eigenvalue -1e-12: fixed by the first jitter
        covs[5] = [[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[5])
        chol = _batched_cholesky(covs)
        self._assert_exact_except(chol, covs, bad=5)
        assert chol[5, 1, 0] != 0.0  # correlation kept
        assert np.allclose(chol[5] @ chol[5].T, covs[5], atol=1e-8)


class TestEIPV:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(2)
        front = pareto_front(rng.uniform(0, 1, size=(25, 2)))
        ref = np.array([1.3, 1.3])
        means = rng.uniform(0, 1.2, size=(30, 2))
        variances = rng.uniform(1e-3, 0.05, size=(30, 2))
        return front, ref, means, variances

    def test_analytic_matches_mc(self, setup):
        front, ref, means, variances = setup
        analytic = ehvi_2d_independent(means, variances, front, ref)
        mc = eipv_mc(
            means, variances, front, ref,
            rng=np.random.default_rng(0), n_samples=20_000,
        )
        assert np.allclose(analytic, mc, atol=2e-3)

    def test_nonnegative(self, setup):
        front, ref, means, variances = setup
        assert np.all(ehvi_2d_independent(means, variances, front, ref) >= 0)

    def test_dominated_mean_small_variance_near_zero(self, setup):
        front, ref, _, _ = setup
        worst = front.max(axis=0) + 0.05
        value = ehvi_2d_independent(
            worst[None, :], np.array([[1e-8, 1e-8]]), front, ref
        )
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_dominating_mean_large_eipv(self, setup):
        front, ref, _, _ = setup
        best = front.min(axis=0) - 0.2
        value = ehvi_2d_independent(
            best[None, :], np.array([[1e-6, 1e-6]]), front, ref
        )
        assert value[0] > 0.01

    def test_correlated_covariance_accepted(self):
        rng = np.random.default_rng(3)
        front = pareto_front(rng.uniform(0, 1, size=(10, 3)))
        ref = np.full(3, 1.3)
        means = rng.uniform(0, 1, size=(5, 3))
        covs = np.empty((5, 3, 3))
        for i in range(5):
            A = rng.normal(size=(3, 3)) * 0.1
            covs[i] = A @ A.T + 1e-4 * np.eye(3)
        values = eipv_mc(
            means, covs, front, ref,
            rng=np.random.default_rng(0), n_samples=256,
        )
        assert values.shape == (5,)
        assert np.all(values >= 0)

    def test_correlation_changes_eipv(self):
        """Anti-correlated uncertainty yields different EIPV than
        independent — the effect the paper's model exists to capture."""
        front = np.array([[0.5, 0.5]])
        ref = np.array([1.0, 1.0])
        mean = np.array([[0.5, 0.5]])
        var = 0.04
        cov_indep = np.array([[[var, 0.0], [0.0, var]]])
        cov_anti = np.array([[[var, -0.95 * var], [-0.95 * var, var]]])
        rng = lambda: np.random.default_rng(0)
        v_indep = eipv_mc(mean, cov_indep, front, ref, rng(), n_samples=20_000)
        v_anti = eipv_mc(mean, cov_anti, front, ref, rng(), n_samples=20_000)
        assert abs(v_indep[0] - v_anti[0]) > 0.1 * max(v_indep[0], 1e-6)

    def test_covs_shape_mismatch(self, setup):
        front, ref, means, _ = setup
        with pytest.raises(ValueError, match="incompatible"):
            eipv_mc(
                means, np.zeros((2, 2, 2)), front, ref,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "diagonal"])
    def test_non_finite_covariance_rejected(self, setup, form, bad):
        front, ref, means, variances = setup
        if form == "dense":
            covs = variances[:, :, None] * np.eye(2)  # (n, M, M)
            covs[2, 0, 1] = covs[2, 1, 0] = bad
        else:
            covs = variances.copy()  # (n, M) marginal variances
            covs[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            eipv_mc(means, covs, front, ref, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_empty_monte_carlo_rejected(self, setup, n_samples):
        front, ref, means, variances = setup
        with pytest.raises(ValueError, match="n_samples"):
            eipv_mc(means, variances, front, ref,
                    rng=np.random.default_rng(0), n_samples=n_samples)


def _eipv_split(blocks, inline_work, *args, seed, **kwargs):
    """``eipv_mc`` with its block count and inline threshold forced."""
    with mock.patch.object(acquisition, "compute_threads", lambda: blocks), \
            mock.patch.object(acquisition, "_INLINE_WORK", inline_work):
        return eipv_mc(*args, rng=np.random.default_rng(seed), **kwargs)


def _posterior(rng, n, m, dense):
    means = rng.uniform(size=(n, m))
    if dense:
        A = 0.1 * rng.normal(size=(n, m, m))
        return means, A @ A.transpose(0, 2, 1) + 1e-4 * np.eye(m)
    return means, rng.uniform(0.0, 0.05, size=(n, m))


class TestCandidateSplit:
    """The candidate blocks scored on helper threads give the inline bits."""

    BLOCKS = (2, 3, 7)
    INLINE = 1 << 62  # no call reaches it: everything scores inline

    def _assert_split_bitwise(self, args, seed, n_samples, inline_work):
        kwargs = dict(seed=seed, n_samples=n_samples)
        want = _eipv_split(1, self.INLINE, *args, **kwargs)
        for blocks in self.BLOCKS:
            got = _eipv_split(blocks, inline_work, *args, **kwargs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), blocks

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 40),
        n_front=st.integers(0, 10),
        n_samples=st.integers(1, 48),
        dense=st.booleans(),
        split_small=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_block_count_same_bits(
        self, seed, m, n, n_front, n_samples, dense, split_small
    ):
        # ``split_small`` drops the inline threshold so these small
        # calls really split; otherwise they stay under it and inline.
        rng = np.random.default_rng(seed)
        ref = np.full(m, 1.3)
        front = pareto_front(rng.uniform(size=(n_front, m)))
        means, covs = _posterior(rng, n, m, dense)
        inline_work = 0 if split_small else acquisition._INLINE_WORK
        self._assert_split_bitwise(
            (means, covs, front, ref), seed, n_samples, inline_work
        )

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("n", [1, 255, 256])
    def test_acquisition_size_above_threshold(self, dense, n):
        rng = np.random.default_rng(n)
        ref = np.full(3, 1.3)
        front = pareto_front(rng.uniform(size=(40, 3)))
        boxes = dominated_boxes(front, ref)
        means, covs = _posterior(rng, n, 3, dense)
        if n > 1:
            assert n * 96 * len(boxes) >= acquisition._INLINE_WORK
        self._assert_split_bitwise(
            (means, covs, front, ref), seed=n, n_samples=96,
            inline_work=acquisition._INLINE_WORK,
        )

    def test_cholesky_jitter_scale_stays_batch_wide(self):
        # Candidate 0 is slightly indefinite and climbs the jitter
        # ladder, whose scale is the batch's mean diagonal.  The other
        # candidates' variances are 1e4 times larger, so a factor taken
        # over the first block alone would use another jitter.
        rng = np.random.default_rng(5)
        n, m = 12, 3
        A = rng.normal(size=(n, m, m))
        covs = 1e4 * (A @ A.transpose(0, 2, 1) + 0.1 * np.eye(m))
        c = 1.0 + 1e-12
        covs[0] = [[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 1.0]]
        head = _batched_cholesky(covs[:2])[0]
        assert head.tobytes() != _batched_cholesky(covs)[0].tobytes()
        means = rng.uniform(size=(n, m))
        ref = np.full(m, 1.3)
        front = pareto_front(rng.uniform(size=(8, m)))
        self._assert_split_bitwise(
            (means, covs, front, ref), seed=5, n_samples=32, inline_work=0
        )


def _acquisition_case():
    rng = np.random.default_rng(11)
    ref = np.full(3, 1.3)
    front = pareto_front(rng.uniform(size=(40, 3)))
    means, covs = _posterior(rng, 256, 3, dense=True)
    return means, covs, front, ref


def test_concurrent_callers_share_one_helper_pool():
    """Callers on several threads at once (more than the cores, with
    rapid thread switches) each get the inline bits, and the pool they
    race to create on first use is created once."""
    args = _acquisition_case()
    want = _eipv_split(1, TestCandidateSplit.INLINE, *args, seed=3,
                       n_samples=96).tobytes()
    results = {}
    created = []

    class SlowPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *a, **k):
            time.sleep(0.05)  # widens the check-then-create window
            super().__init__(*a, **k)
            created.append(self)

    def call(i):
        got = eipv_mc(*args, rng=np.random.default_rng(3), n_samples=96)
        results[i] = got.tobytes()

    interval = sys.getswitchinterval()
    threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
    with mock.patch.object(acquisition, "_helper_pool", None), \
            mock.patch.object(acquisition, "compute_threads", lambda: 3), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor",
                              SlowPool):
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            for pool in created:
                pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert list(results.values()) == [want] * len(threads)
    assert len(created) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_child_gets_its_own_helper_pool():
    """A child forked after the parent's helper pool started scores too.

    The child inherits the executor without its threads; unless the
    pool is dropped at fork, its submit starts no thread and waits
    forever.
    """
    args = _acquisition_case()
    want = _eipv_split(2, acquisition._INLINE_WORK, *args, seed=3,
                       n_samples=96)
    assert acquisition._helper_pool is not None
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: score, send the bytes, leave without cleanup
        try:
            os.close(read_end)
            got = _eipv_split(2, acquisition._INLINE_WORK, *args, seed=3,
                              n_samples=96)
            with os.fdopen(write_end, "wb") as out:
                out.write(got.tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        data = b""
        with os.fdopen(read_end, "rb") as inp:
            while True:
                ready, _, _ = select.select([inp], [], [], 60.0)
                assert ready, "fork child hung in eipv_mc"
                chunk = os.read(inp.fileno(), 1 << 16)
                if not chunk:
                    break
                data += chunk
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
    assert data == want.tobytes()


def test_pooled_cells_after_inline_cell_with_helper_pool(tmp_path):
    """``run_jobs(workers=2)`` forks a parent whose helper pool is live.

    The parent runs an inline ``ours`` cell with the split forced on,
    so its helper pool exists; the pooled rerun's workers inherit the
    forced split, must still finish, and must give the same ADRS.
    """
    script = textwrap.dedent(f"""
        import dataclasses
        from repro.core import acquisition
        from repro.experiments.harness import SMOKE_SCALE, run_benchmark
        acquisition.compute_threads = lambda: 2
        acquisition._INLINE_WORK = 0
        scale = dataclasses.replace(SMOKE_SCALE, n_repeats=2)
        kw = dict(methods=("ours",), scale=scale, cache_dir={str(tmp_path)!r})
        inline = run_benchmark("spmv_ellpack", **kw)["ours"]
        assert acquisition._helper_pool is not None
        pooled = run_benchmark("spmv_ellpack", workers=2, **kw)["ours"]
        assert [r.adrs for r in inline] == [r.adrs for r in pooled]
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # A session of its own, so a hang kills the pool workers too.
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("pooled cells hung after the parent's helper pool started")
    assert proc.returncode == 0, err
    assert out.strip().endswith("ok")


class TestPenalty:
    def test_eq10_ratio(self):
        values = penalized_eipv(np.array([1.0, 2.0]), t_impl=900.0, t_fidelity=30.0)
        assert np.allclose(values, [30.0, 60.0])

    def test_highest_fidelity_unpenalized(self):
        values = penalized_eipv(np.array([1.5]), t_impl=900.0, t_fidelity=900.0)
        assert values[0] == pytest.approx(1.5)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            penalized_eipv(np.array([1.0]), t_impl=0.0, t_fidelity=1.0)
        with pytest.raises(ValueError):
            penalized_eipv(np.array([1.0]), t_impl=1.0, t_fidelity=-1.0)
