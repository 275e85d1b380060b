"""Bitwise parity of the batched likelihood gradient.

The GP classes compute the negative log marginal likelihood and its
gradient from one stacked kernel-gradient tensor and contiguous
``.sum(axis=(-2, -1))`` contractions.  The functions below are the
loop form they replaced — one ``np.sum`` per kernel-gradient matrix and
per task-pair block — kept as the reference: over random shapes,
parameters and both kernels, the batched form must return the same
``(nll, grad)`` bit for bit, so every fit follows the same L-BFGS-B
trajectory.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import linalg
from repro.core.gp import JITTER, GaussianProcess
from repro.core.kernels import RBF, Matern52
from repro.core.multitask import MultiTaskGP, _kron2, _tril_indices

KERNELS = {"rbf": RBF, "matern52": Matern52}


def reference_with_gradients(kernel, X, theta, diffs=None):
    """Loop-form ``(K, [dK/dtheta_k for k])`` for one parameter vector."""
    dim = X.shape[1]
    sf2, ls = kernel.split(theta, dim)
    if diffs is None:
        diffs = X[:, None, :] - X[None, :, :]
    scaled = diffs / ls
    sq_per_dim = scaled * scaled
    sq = np.sum(sq_per_dim, axis=2)
    corr, dcorr_dsq = kernel._corr_and_grad(sq)
    K = sf2 * corr
    grads = [K.copy()]
    for k in range(dim):
        grads.append(sf2 * dcorr_dsq * (-2.0 * sq_per_dim[:, :, k]))
    return K, grads


def reference_gp_nll(gp, theta, X, z, diffs=None):
    """Loop-form ``GaussianProcess._neg_lml_and_grad``."""
    n = X.shape[0]
    K, kernel_grads = reference_with_gradients(gp.kernel, X, theta[:-1], diffs)
    noise = math.exp(theta[-1])
    Kn = K.copy()
    Kn[np.diag_indices_from(Kn)] += noise + JITTER
    try:
        L = linalg.chol_factor(Kn)
    except np.linalg.LinAlgError:
        return 1e10, np.zeros_like(theta)
    alpha = linalg.counted_cho_solve(L, z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    Kinv = linalg.counted_cho_solve(L, np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = np.empty_like(theta)
    for k, dK in enumerate(kernel_grads):
        grad[k] = 0.5 * float(np.sum(W * dK))
    grad[-1] = 0.5 * noise * float(np.trace(W))
    return -lml, -grad


def reference_mt_nll(mt, params, X, Z, diffs=None):
    """Loop-form ``MultiTaskGP._neg_lml_and_grad``."""
    n, dim = X.shape
    m = mt.n_tasks
    theta_s, L, theta_p, log_noise = mt._unpack(params, dim)
    Kx, shared_grads = reference_with_gradients(mt.kernel, X, theta_s, diffs)
    B = L @ L.T
    K = _kron2(B, Kx)
    private_grads = []
    if mt.private_processes:
        for t in range(m):
            Kp, grads_p = reference_with_gradients(
                mt.kernel, X, theta_p[t], diffs
            )
            K[t * n : (t + 1) * n, t * n : (t + 1) * n] += Kp
            private_grads.append(grads_p)
    noise = np.exp(log_noise)
    K[np.diag_indices_from(K)] += np.repeat(noise, n) + JITTER
    try:
        Lc = linalg.chol_factor(K)
    except np.linalg.LinAlgError:
        return 1e10, np.zeros_like(params)
    z = Z.T.ravel()
    alpha = linalg.counted_cho_solve(Lc, z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(Lc))))
        - 0.5 * n * m * math.log(2.0 * math.pi)
    )
    Kinv = linalg.counted_cho_solve(Lc, np.eye(n * m))
    W = np.outer(alpha, alpha) - Kinv
    T = np.empty((m, m))
    Wb = np.zeros((n, n))
    W_diag_blocks = []
    for i in range(m):
        W_diag_blocks.append(W[i * n : (i + 1) * n, i * n : (i + 1) * n])
        for j in range(m):
            Wij = W[i * n : (i + 1) * n, j * n : (j + 1) * n]
            T[i, j] = float(np.sum(Wij * Kx))
            Wb += B[i, j] * Wij
    grad = np.empty_like(params)
    nk = mt._nk(dim)
    for k, dKx in enumerate(shared_grads):
        grad[k] = 0.5 * float(np.sum(Wb * dKx))
    grad_L = T @ L
    rows, cols = _tril_indices(m)
    nl = len(rows)
    grad[nk : nk + nl] = grad_L[rows, cols]
    offset = nk + nl
    if mt.private_processes:
        for t in range(m):
            Wtt = W_diag_blocks[t]
            for k, dKp in enumerate(private_grads[t]):
                grad[offset + t * nk + k] = 0.5 * float(np.sum(Wtt * dKp))
        offset += m * nk
    for t in range(m):
        grad[offset + t] = 0.5 * noise[t] * float(np.trace(W_diag_blocks[t]))
    return -lml, -grad


def _mt_case(seed, n, dim, m, private, kernel):
    rng = np.random.default_rng(seed)
    mt = MultiTaskGP(m, kernel=KERNELS[kernel](), private_processes=private)
    X = rng.uniform(size=(n, dim))
    Z = rng.normal(size=(n, m))
    lo, hi = np.array(mt._bounds(dim)).T
    # Hyperparameters anywhere inside the optimizer's box, as L-BFGS-B
    # visits them (the shared signal variance is pinned at 0).
    params = rng.uniform(lo, hi)
    return mt, X, Z, params


def _assert_bitwise(got, want):
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 20),
    dim=st.integers(1, 17),
    kernel=st.sampled_from(sorted(KERNELS)),
)


class TestMultiTaskBitwise:
    @given(m=st.sampled_from([1, 2, 3]), private=st.booleans(), **shapes)
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_reference(self, seed, n, dim, m, private, kernel):
        mt, X, Z, params = _mt_case(seed, n, dim, m, private, kernel)
        # Near the optimum the noise is small and the task matrix
        # dominant; shrink toward the default init half the time so the
        # well-conditioned region is covered as well as the box corners.
        if seed % 2:
            init = mt._default_init(Z, dim)
            params = init + 0.1 * (params - init)
        diffs = mt.kernel.pairwise_diffs(X)
        _assert_bitwise(
            mt._neg_lml_and_grad(params, X, Z, diffs),
            reference_mt_nll(mt, params, X, Z, diffs),
        )
        _assert_bitwise(
            mt._neg_lml_and_grad(params, X, Z),
            reference_mt_nll(mt, params, X, Z),
        )

    @pytest.mark.parametrize("private", [True, False])
    def test_cholesky_failure_returns_sentinel(self, private):
        # Coincident inputs under a huge task matrix: the jitter is
        # below the round-off, so K is numerically singular.
        mt = MultiTaskGP(3, private_processes=private)
        X = np.zeros((4, 2))
        Z = np.random.default_rng(0).normal(size=(4, 3))
        params = mt._default_init(Z, 2)
        nk = mt._nk(2)
        params[nk : nk + 6] = [1e8, 1e8, 0.0, 1e8, 0.0, 0.0]
        params[-3:] = math.log(1e-8)
        got = mt._neg_lml_and_grad(params, X, Z)
        assert got[0] == 1e10
        _assert_bitwise(got, reference_mt_nll(mt, params, X, Z))


class TestGaussianProcessBitwise:
    @given(**shapes)
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_reference(self, seed, n, dim, kernel):
        rng = np.random.default_rng(seed)
        gp = GaussianProcess(kernel=KERNELS[kernel]())
        X = rng.uniform(size=(n, dim))
        z = rng.normal(size=n)
        bounds = np.array(gp.kernel.bounds(dim) + [(math.log(1e-8), 0.0)])
        theta = rng.uniform(bounds[:, 0], bounds[:, 1])
        diffs = gp.kernel.pairwise_diffs(X)
        _assert_bitwise(
            gp._neg_lml_and_grad(theta, X, z, diffs),
            reference_gp_nll(gp, theta, X, z, diffs),
        )

    @pytest.mark.parametrize("n", [57, 120])
    def test_large_n_matches_loop_reference(self, n):
        # n * n past numpy's 8192-element reduction buffer.
        rng = np.random.default_rng(n)
        gp = GaussianProcess()
        X = rng.uniform(size=(n, 5))
        z = rng.normal(size=n)
        theta = np.array([0.3, -0.5, 0.1, 0.4, -0.2, 0.0, math.log(1e-3)])
        _assert_bitwise(
            gp._neg_lml_and_grad(theta, X, z),
            reference_gp_nll(gp, theta, X, z),
        )

    def test_cholesky_failure_returns_sentinel(self):
        gp = GaussianProcess()
        X = np.zeros((3, 2))
        z = np.array([1.0, -1.0, 0.5])
        theta = np.array([40.0, 0.0, 0.0, math.log(1e-8)])
        got = gp._neg_lml_and_grad(theta, X, z)
        assert got[0] == 1e10
        _assert_bitwise(got, reference_gp_nll(gp, theta, X, z))


class TestStackedKernelGradients:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        dim=st.integers(1, 17),
        P=st.integers(1, 4),
        kernel=st.sampled_from(sorted(KERNELS)),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_per_theta_calls(self, seed, n, dim, P, kernel):
        rng = np.random.default_rng(seed)
        k = KERNELS[kernel]()
        X = rng.uniform(size=(n, dim))
        bounds = np.array(k.bounds(dim))
        thetas = rng.uniform(bounds[:, 0], bounds[:, 1], size=(P, 1 + dim))
        K, dK = k.with_gradients(X, thetas)
        assert K.shape == (P, n, n)
        assert dK.shape == (P, 1 + dim, n, n)
        assert dK.flags.c_contiguous
        for p in range(P):
            Kp, dKp = k.with_gradients(X, thetas[p])
            assert Kp.tobytes() == K[p].tobytes()
            assert dKp.tobytes() == dK[p].tobytes()
            Kr, grads = reference_with_gradients(k, X, thetas[p])
            assert Kr.tobytes() == Kp.tobytes()
            assert np.stack(grads).tobytes() == dKp.tobytes()

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameters"):
            RBF().with_gradients(np.zeros((3, 2)), np.zeros((2, 2)))


class TestValueOnlyLikelihood:
    @pytest.mark.parametrize("private", [True, False])
    def test_multitask_equals_negated_nll(self, private):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 4))
        Y = rng.normal(size=(12, 3))
        mt = MultiTaskGP(
            3, rng=np.random.default_rng(0), private_processes=private
        ).fit(X, Y)
        Z = (Y - Y.mean(axis=0)) / Y.std(axis=0)
        assert mt.log_marginal_likelihood() == -mt._neg_lml_and_grad(
            mt.params(), X, Z
        )[0]

    def test_gp_equals_negated_nll(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(15, 3))
        y = rng.normal(size=15)
        gp = GaussianProcess(rng=np.random.default_rng(0)).fit(X, y)
        z = (y - y.mean()) / y.std()
        other = gp.theta + 0.3
        assert gp.log_marginal_likelihood() == -gp._neg_lml_and_grad(
            gp.theta, X, z
        )[0]
        assert gp.log_marginal_likelihood(other) == -gp._neg_lml_and_grad(
            other, X, z
        )[0]

    def test_gp_cholesky_failure_matches_sentinel(self):
        gp = GaussianProcess().fit(np.zeros((3, 2)), np.array([1.0, -1.0, 0.5]))
        theta = np.array([40.0, 0.0, 0.0, math.log(1e-8)])
        z = (gp._state.y_raw - gp._state.y_mean) / gp._state.y_std
        assert gp._neg_lml_and_grad(theta, gp._state.X, z)[0] == 1e10
        assert gp.log_marginal_likelihood(theta) == -1e10
