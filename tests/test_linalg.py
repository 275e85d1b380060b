"""Tests for the counted Cholesky primitives (repro.core.linalg)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular

from repro.core import linalg
from repro.core.linalg import (
    FLOPS,
    FlopCounter,
    chol_extend,
    chol_factor,
    counted_cho_solve,
    counted_solve_triangular,
    extend_flops,
    factor_flops,
)


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    K = A @ A.T + n * np.eye(n)
    return K


class TestCholExtend:
    @pytest.mark.parametrize("n_old,k", [(1, 1), (5, 1), (8, 3), (12, 12)])
    def test_matches_full_factorization(self, n_old, k):
        rng = np.random.default_rng(n_old * 100 + k)
        K = _spd(rng, n_old + k)
        L_full = cholesky(K, lower=True)
        L_old = cholesky(K[:n_old, :n_old], lower=True)
        L_ext = chol_extend(L_old, K[:n_old, n_old:], K[n_old:, n_old:])
        assert L_ext.shape == L_full.shape
        # The leading block is carried over verbatim; the new rows are
        # mathematically equal (different float summation order).
        assert np.array_equal(L_ext[:n_old, :n_old], L_old)
        assert np.allclose(L_ext, L_full, rtol=1e-12, atol=1e-12)
        # And it is a genuine factor of K.
        assert np.allclose(L_ext @ L_ext.T, K, rtol=1e-10, atol=1e-10)

    def test_indefinite_schur_raises_linalgerror(self):
        rng = np.random.default_rng(3)
        K = _spd(rng, 4)
        L_old = cholesky(K[:2, :2], lower=True)
        # A cross block large enough to make the Schur complement
        # indefinite: D - C^T C < 0.
        B = 100.0 * np.ones((2, 2))
        D = np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            chol_extend(L_old, B, D)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="cross block"):
            chol_extend(np.eye(3), np.zeros((2, 2)), np.eye(2))

    def test_counts_only_on_success(self):
        rng = np.random.default_rng(4)
        K = _spd(rng, 6)
        L_old = cholesky(K[:4, :4], lower=True)
        before = FLOPS.snapshot()
        chol_extend(L_old, K[:4, 4:], K[4:, 4:])
        delta = FlopCounter.delta(before, FLOPS.snapshot())
        assert delta["extend_flops"] == extend_flops(4, 2)
        assert delta["extensions"] == 1
        assert delta["factor_flops"] == 0

        before = FLOPS.snapshot()
        with pytest.raises(np.linalg.LinAlgError):
            chol_extend(
                cholesky(np.eye(2), lower=True),
                100.0 * np.ones((2, 2)),
                np.eye(2),
            )
        delta = FlopCounter.delta(before, FLOPS.snapshot())
        assert delta["extend_flops"] == 0
        assert delta["extensions"] == 0


class TestCountedWrappers:
    def test_chol_factor_bitwise_and_counted(self):
        rng = np.random.default_rng(5)
        K = _spd(rng, 7)
        before = FLOPS.snapshot()
        L = chol_factor(K)
        delta = FlopCounter.delta(before, FLOPS.snapshot())
        assert np.array_equal(L, cholesky(K, lower=True))
        assert delta["factor_flops"] == factor_flops(7)
        assert delta["factorizations"] == 1

    def test_counted_cho_solve_bitwise(self):
        rng = np.random.default_rng(6)
        K = _spd(rng, 5)
        L = cholesky(K, lower=True)
        b = rng.normal(size=5)
        before = FLOPS.snapshot()
        x = counted_cho_solve(L, b)
        delta = FlopCounter.delta(before, FLOPS.snapshot())
        assert np.array_equal(x, cho_solve((L, True), b))
        assert delta["solve_flops"] == 2 * 5 * 5
        B = rng.normal(size=(5, 3))
        before = FLOPS.snapshot()
        counted_cho_solve(L, B)
        delta = FlopCounter.delta(before, FLOPS.snapshot())
        assert delta["solve_flops"] == 2 * 5 * 5 * 3

    def test_extension_cheaper_than_refactorization(self):
        # The whole point: extending by k << n must count far fewer
        # flops than refactorizing from scratch.
        assert extend_flops(100, 1) < factor_flops(101) / 30
        assert extend_flops(100, 5) < factor_flops(105) / 5


def reference_chol_extend(L_old, B, D):
    """``chol_extend`` through scipy's wrappers (the bitwise reference)."""
    n_old, k = B.shape
    C = solve_triangular(L_old, B, lower=True)
    L = np.zeros((n_old + k, n_old + k))
    L[:n_old, :n_old] = L_old
    L[n_old:, :n_old] = C.T
    L[n_old:, n_old:] = cholesky(D - C.T @ C, lower=True)
    return L


def _ordered(a, order):
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


def _rhs(rng, n, nrhs, order):
    if nrhs is None:
        return rng.normal(size=n)
    return _ordered(rng.normal(size=(n, nrhs)), order)


def _bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _calls(fn, *args):
    """``fn(*args)``, its flop deltas, and a check it left args alone."""
    copies = [a.copy() for a in args]
    before = FLOPS.snapshot()
    out = fn(*args)
    delta = FlopCounter.delta(before, FLOPS.snapshot())
    for a, c in zip(args, copies):
        assert a.tobytes() == c.tobytes()
    return out, delta


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    order=st.sampled_from("CF"),
    nrhs=st.sampled_from([None, 1, 4]),
)


class TestBitwiseScipy:
    """The direct LAPACK calls return scipy's wrappers' bits."""

    @given(**cases)
    @settings(max_examples=120, deadline=None)
    def test_factor_and_solves(self, seed, n, order, nrhs):
        rng = np.random.default_rng(seed)
        K = _ordered(_spd(rng, n), order)
        L, delta = _calls(chol_factor, K)
        _bitwise(L, cholesky(K, lower=True))
        assert delta["factor_flops"] == factor_flops(n)
        assert delta["factorizations"] == 1
        # The factor as returned (Fortran order) and as a C-order copy:
        # the triangular solve takes a different dtrtrs branch for each.
        L = _ordered(L, order)
        b = _rhs(rng, n, nrhs, order)
        x, delta = _calls(counted_cho_solve, L, b)
        _bitwise(x, cho_solve((L, True), b))
        assert delta["solve_flops"] == 2 * n * n * (nrhs or 1)
        x, delta = _calls(counted_solve_triangular, L, b)
        _bitwise(x, solve_triangular(L, b, lower=True))
        assert delta["solve_flops"] == n * n * (nrhs or 1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_old=st.integers(1, 60),
        k=st.integers(1, 20),
        order=st.sampled_from("CF"),
    )
    @settings(max_examples=80, deadline=None)
    def test_extend(self, seed, n_old, k, order):
        rng = np.random.default_rng(seed)
        K = _spd(rng, n_old + k)
        L_old = _ordered(cholesky(K[:n_old, :n_old], lower=True), order)
        B = _ordered(K[:n_old, n_old:], order)
        D = _ordered(K[n_old:, n_old:], order)
        L, delta = _calls(chol_extend, L_old, B, D)
        _bitwise(L, reference_chol_extend(L_old, B, D))
        assert delta["extend_flops"] == extend_flops(n_old, k)
        assert delta["extensions"] == 1
        assert delta["factor_flops"] == delta["solve_flops"] == 0


class TestChecks:
    """The checks scipy's wrappers made survive the direct calls."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
    @settings(max_examples=40, deadline=None)
    def test_indefinite_raises_linalgerror(self, seed, n):
        rng = np.random.default_rng(seed)
        K = _spd(rng, n)
        K[n // 2, n // 2] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            chol_factor(K)
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(K, lower=True)

    def test_singular_triangle_raises_linalgerror(self):
        L = np.tril(np.ones((4, 4)))
        L[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            counted_solve_triangular(L, np.ones(4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        operand=st.sampled_from(
            ["factor.K", "cho_solve.L", "cho_solve.b", "solve.L",
             "solve.b", "extend.L", "extend.B", "extend.D"]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_operand_raises_valueerror(self, seed, n, bad, operand):
        rng = np.random.default_rng(seed)
        K = _spd(rng, 2 * n)
        L = cholesky(K[:n, :n], lower=True)
        args = {
            "factor": [K],
            "cho_solve": [L, rng.normal(size=n)],
            "solve": [L, rng.normal(size=(n, 2))],
            "extend": [L, K[:n, n:].copy(), K[n:, n:].copy()],
        }
        fns = {
            "factor": chol_factor,
            "cho_solve": counted_cho_solve,
            "solve": counted_solve_triangular,
            "extend": chol_extend,
        }
        fn, name = operand.split(".")
        position = {"K": 0, "L": 0, "b": 1, "B": 1, "D": 2}[name]
        target = args[fn][position]
        # A non-finite entry where LAPACK reads it: the lower triangle.
        target.flat[-1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fns[fn](*args[fn])


class _DictMetrics:
    def __init__(self):
        self.counts = {}

    def incr(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by


class TestMetered:
    def test_credits_deltas_with_prefix(self):
        rng = np.random.default_rng(7)
        K = _spd(rng, 4)
        metrics = _DictMetrics()
        with linalg.metered(metrics, "commit"):
            chol_factor(K)
        assert metrics.counts["commit_factor_flops"] == factor_flops(4)
        assert metrics.counts["commit_factorizations"] == 1
        # Zero buckets are skipped entirely.
        assert "commit_extend_flops" not in metrics.counts

    def test_credits_even_when_block_raises(self):
        metrics = _DictMetrics()
        with pytest.raises(RuntimeError):
            with linalg.metered(metrics, "fit"):
                chol_factor(_spd(np.random.default_rng(8), 3))
                raise RuntimeError("boom")
        assert metrics.counts["fit_factor_flops"] == factor_flops(3)


class TestFlopCounter:
    def test_thread_safe_accumulation(self):
        import threading

        counter = FlopCounter()

        def work():
            for _ in range(1000):
                counter.add("factor_flops", 1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.snapshot()["factor_flops"] == 8000
        counter.reset()
        assert counter.snapshot()["factor_flops"] == 0
