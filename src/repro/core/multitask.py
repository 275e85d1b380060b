"""Correlated multi-objective Gaussian process (paper Sec. IV-B, Eq. (9)).

The core is the intrinsic-coregionalization multi-task GP (Bonilla et
al., NIPS'08 — the paper's [17]): the covariance between objective ``i``
at ``x`` and objective ``j`` at ``x'`` contains a shared factorized term

    K_task[i, j] * k_shared(x, x'),

with ``k_shared`` an ARD Matérn-5/2 kernel and ``K_task`` a learned PSD
task-similarity matrix (parametrized by its Cholesky factor).  On top of
the shared process each objective carries a *private* residual GP with
its own ARD lengthscales:

    Cov(f_i(x), f_j(x')) = K_task[i,j] k_shared(x, x')
                           + delta_ij k_i(x, x').

Pure ICM (private processes off) forces one set of lengthscales onto
all objectives; when the objectives depend on different directive
subsets, maximum likelihood then explains the worst-matched objective
as noise.  The private residuals remove that failure mode while keeping
the correlated structure the paper's acquisition needs — the posterior
at a new configuration is still a correlated M-variate Gaussian
``N(mu, Sigma)`` with dense ``Sigma``.

All objectives are observed at every training input — true in the HLS
setting, where one tool run reports power, delay and LUT together.

Incremental conditioning (see :mod:`repro.core.gp`): fixed-parameter
refits on superset data extend the previous ``nM x nM`` Cholesky factor
by block rows instead of refactorizing.  Because the reference stacking
is task-major (row ``t*n + i`` interleaves new points into every task
block), extended factors keep their rows in *arrival-block* order and
carry explicit ``row_task``/``row_point`` maps; targets and
cross-covariance rows are permuted to match.  The full-factorization
path keeps ``row_task is None`` (identity order) and stays the bitwise
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky

from repro.core import linalg
from repro.core.gp import JITTER, LOG_NOISE_BOUNDS, log_likelihood
from repro.core.kernels import Matern52, StationaryKernel
from repro.core.restarts import minimize_multistart

#: Bounds on entries of the task-matrix Cholesky factor.
TASK_CHOL_BOUNDS = (-5.0, 5.0)

#: Bounds on the private-process log signal variance.
PRIVATE_SIGNAL_BOUNDS = (-8.0, 2.0)


@dataclass
class _MTState:
    X: np.ndarray
    Y_raw: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    theta_shared: np.ndarray
    theta_private: np.ndarray  # (m, n_kernel_params) or empty
    task_chol: np.ndarray  # L with B = L L^T
    log_noise: np.ndarray  # per task
    chol: np.ndarray  # Cholesky of the full nM x nM covariance
    alpha: np.ndarray  # K^-1 z (in the factor's row order)
    #: factor-row -> (task, point) maps for extended factors whose rows
    #: are in arrival-block order; ``None`` = task-major (row t*n + i).
    row_task: np.ndarray | None = field(default=None)
    row_point: np.ndarray | None = field(default=None)


_TRIL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _tril_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Cached: rebuilt ~10^5 times per BO run otherwise (hot path).
    got = _TRIL_CACHE.get(m)
    if got is None:
        got = _TRIL_CACHE[m] = np.tril_indices(m)
    return got


def _kron2(B: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``np.kron(B, K)`` for 2-D operands via broadcasting.

    Identical elementwise products (bit-for-bit the same matrix), a
    fraction of ``np.kron``'s overhead at hot-path call rates.
    """
    b0, b1 = B.shape
    k0, k1 = K.shape
    return (B[:, None, :, None] * K[None, :, None, :]).reshape(
        b0 * k0, b1 * k1
    )


class MultiTaskGP:
    """ICM + private-residual multi-task GP over M joint objectives."""

    def __init__(
        self,
        n_tasks: int,
        kernel: StationaryKernel | None = None,
        n_restarts: int = 1,
        max_opt_iter: int = 80,
        rng: np.random.Generator | None = None,
        private_processes: bool = True,
        incremental: bool = True,
    ):
        if n_tasks < 1:
            raise ValueError("need at least one task")
        self.n_tasks = n_tasks
        self.kernel = kernel or Matern52()
        self.n_restarts = n_restarts
        self.max_opt_iter = max_opt_iter
        self.rng = rng or np.random.default_rng(0)
        self.private_processes = private_processes
        #: allow fixed-parameter refits on superset data to extend the
        #: previous Cholesky factor instead of refactorizing.
        self.incremental = incremental
        self._state: _MTState | None = None
        #: last durable (non-ephemeral) state — the extension base for
        #: real refits while fantasy conditionings are active.
        self._base_state: _MTState | None = None

    # ------------------------------------------------------------------
    # parameter packing
    # ------------------------------------------------------------------

    def _nk(self, dim: int) -> int:
        return self.kernel.n_params(dim)

    def _pack(
        self,
        theta_shared: np.ndarray,
        L: np.ndarray,
        theta_private: np.ndarray,
        log_noise: np.ndarray,
    ) -> np.ndarray:
        rows, cols = _tril_indices(self.n_tasks)
        return np.concatenate(
            [theta_shared, L[rows, cols], theta_private.ravel(), log_noise]
        )

    def _unpack(
        self, params: np.ndarray, dim: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(theta_shared, L, theta_private, log_noise)``, the arguments
        of :meth:`_pack`."""
        thetas, L, log_noise = self._unpack_stacked(params, dim)
        return thetas[0], L, thetas[1:], log_noise

    def _unpack_stacked(
        self, params: np.ndarray, dim: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(thetas, L, log_noise)`` from the layout of :meth:`_pack`.

        ``thetas`` stacks every process's kernel θ ``(P, nk)``, shared
        first, so one kernel call covers them all.
        """
        m = self.n_tasks
        nk = self._nk(dim)
        rows, cols = _tril_indices(m)
        nl = len(rows)
        L = np.zeros((m, m))
        L[rows, cols] = params[nk : nk + nl]
        thetas = np.concatenate((params[:nk], params[nk + nl : -m]))
        return thetas.reshape(-1, nk), L, params[-m:]

    def _bounds(self, dim: int) -> list[tuple[float, float]]:
        m = self.n_tasks
        shared = self.kernel.bounds(dim)
        # Fix the shared-kernel signal variance at 1: the task matrix B
        # carries the shared output scales (removes a redundancy).
        shared[0] = (0.0, 0.0)
        bounds = shared + [TASK_CHOL_BOUNDS] * (m * (m + 1) // 2)
        if self.private_processes:
            for _ in range(m):
                private = self.kernel.bounds(dim)
                private[0] = PRIVATE_SIGNAL_BOUNDS
                bounds += private
        bounds += [LOG_NOISE_BOUNDS] * m
        return bounds

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        optimize: bool = True,
        init_params: np.ndarray | None = None,
        warm_start: bool = False,
        ephemeral: bool = False,
    ) -> "MultiTaskGP":
        """Fit the multi-task GP.

        ``warm_start=True`` (with ``optimize=True``) starts the
        likelihood optimization from the previous fit's hyperparameters
        and skips the random restarts — the standard BO refit pattern
        where the training set grew by one point and the old optimum is
        an excellent initial guess.

        ``ephemeral=True`` marks a fantasy conditioning: the state
        serves predictions, but the next non-ephemeral fit extends from
        the last durable state (see :mod:`repro.core.gp`).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        n, m = Y.shape
        if m != self.n_tasks:
            raise ValueError(f"expected {self.n_tasks} objectives, got {m}")
        if X.shape[0] != n:
            raise ValueError("X and Y disagree on sample count")
        dim = X.shape[1]

        y_mean = Y.mean(axis=0)
        y_std = Y.std(axis=0)
        y_std[y_std < 1e-12] = 1.0
        Z = (Y - y_mean) / y_std

        warm = (
            warm_start
            and init_params is None
            and self._state is not None
            and self._state.X.shape[1] == dim
        )
        if (
            init_params is None
            and self._state is not None
            and (warm or not optimize)
        ):
            state = self._state
            if state.X.shape[1] == dim:
                init_params = self._pack(
                    state.theta_shared, state.task_chol,
                    state.theta_private, state.log_noise,
                )
        if init_params is None:
            init_params = self._default_init(Z, dim)
        params = np.asarray(init_params, dtype=float)

        if optimize:
            params = self._optimize(
                X, Z, params, n_restarts=0 if warm else None
            )

        theta_s, L, theta_p, log_noise = self._unpack(params, dim)
        ext = None
        if not optimize and self.incremental:
            base = self._state if ephemeral else self._durable_state()
            ext = self._extended_chol(base, X, params, dim)
        if ext is None:
            Ks = [self.kernel(X, X, t) for t in np.vstack([theta_s, theta_p])]
            chol, alpha = self._condition(np.stack(Ks), Z, L, log_noise)
            row_task = row_point = None
        else:
            chol, row_task, row_point = ext
            z = Z.T.ravel()
            if row_task is not None:
                z = z[row_task * n + row_point]
            alpha = linalg.counted_cho_solve(chol, z)
        state = _MTState(
            X=X, Y_raw=Y, y_mean=y_mean, y_std=y_std,
            theta_shared=theta_s, theta_private=theta_p,
            task_chol=L, log_noise=log_noise,
            chol=chol, alpha=alpha,
            row_task=row_task, row_point=row_point,
        )
        if ephemeral:
            if self._base_state is None:
                self._base_state = self._state
        else:
            self._base_state = None
        self._state = state
        return self

    def _durable_state(self) -> _MTState | None:
        return self._base_state if self._base_state is not None else self._state

    def _extended_chol(
        self, base: _MTState | None, X: np.ndarray, params: np.ndarray, dim: int
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None] | None:
        """``(chol, row_task, row_point)`` extending ``base`` to ``X``.

        Returns ``None`` unless the packed hyperparameters are bitwise
        unchanged and the base inputs are an exact row prefix of ``X``.
        The new rows are appended in task-major order *within their
        arrival block*, which is why extended factors need the explicit
        row maps (module docstring).
        """
        if base is None:
            return None
        n_old = base.X.shape[0]
        if (
            base.X.shape[1] != dim
            or X.shape[0] < n_old
            or not np.array_equal(
                self._pack(
                    base.theta_shared, base.task_chol,
                    base.theta_private, base.log_noise,
                ),
                params,
            )
            or not np.array_equal(base.X, X[:n_old])
        ):
            return None
        m = self.n_tasks
        if X.shape[0] == n_old:
            return base.chol, base.row_task, base.row_point
        X_new = X[n_old:]
        k = X_new.shape[0]
        B = base.task_chol @ base.task_chol.T
        cross = _kron2(B, self.kernel(base.X, X_new, base.theta_shared))
        D = _kron2(B, self.kernel(X_new, X_new, base.theta_shared))
        if self.private_processes and base.theta_private.size:
            for t in range(m):
                cross[t * n_old : (t + 1) * n_old, t * k : (t + 1) * k] += (
                    self.kernel(base.X, X_new, base.theta_private[t])
                )
                D[t * k : (t + 1) * k, t * k : (t + 1) * k] += self.kernel(
                    X_new, X_new, base.theta_private[t]
                )
        noise = np.exp(base.log_noise)
        D[np.diag_indices_from(D)] += np.repeat(noise, k) + JITTER
        if base.row_task is not None:
            cross = cross[base.row_task * n_old + base.row_point, :]
        try:
            chol = linalg.chol_extend(base.chol, cross, D)
        except np.linalg.LinAlgError:
            return None
        if base.row_task is None:
            old_task = np.repeat(np.arange(m), n_old)
            old_point = np.tile(np.arange(n_old), m)
        else:
            old_task, old_point = base.row_task, base.row_point
        row_task = np.concatenate([old_task, np.repeat(np.arange(m), k)])
        row_point = np.concatenate(
            [old_point, np.tile(np.arange(n_old, n_old + k), m)]
        )
        return chol, row_task, row_point

    def _default_init(self, Z: np.ndarray, dim: int) -> np.ndarray:
        m = self.n_tasks
        nk = self._nk(dim)
        if Z.shape[0] >= 3:
            # ``np.corrcoef``, except that a zero-variance objective
            # (e.g. a level whose every observation was punished to the
            # same value) is uncorrelated with the others rather than
            # a 0/0 division.
            corr = np.atleast_2d(np.cov(Z.T))
            std = np.sqrt(np.diag(corr))
            flat = std == 0.0
            std[flat] = 1.0
            corr /= std[:, None]
            corr /= std[None, :]
            np.clip(corr, -1.0, 1.0, out=corr)
            corr[flat, :] = 0.0
            corr[:, flat] = 0.0
            np.fill_diagonal(corr, 1.0)
        else:
            corr = np.eye(m)
        # Split the unit output scale between shared and private parts.
        B0 = 0.6 * corr + 0.1 * np.eye(m)
        L0 = cholesky(B0, lower=True)
        theta_p = np.tile(self.kernel.default_params(dim), (m, 1))
        if self.private_processes:
            theta_p[:, 0] = math.log(0.35)
        return self._pack(
            self.kernel.default_params(dim),
            L0,
            theta_p if self.private_processes else np.empty((0, nk)),
            np.full(m, math.log(1e-4)),
        )

    def _condition(
        self,
        Ks: np.ndarray,
        Z: np.ndarray,
        L: np.ndarray,
        log_noise: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor and K⁻¹z of the full covariance.

        ``Ks`` stacks the per-process kernel matrices ``(P, n, n)``,
        shared first (``P = 1 + m`` with private processes, else 1).
        """
        n, m = Z.shape
        K = _kron2(L @ L.T, Ks[0])
        if self.private_processes:
            tasks = np.arange(m)
            K.reshape(m, n, m, n)[tasks, :, tasks, :] += Ks[1:]
        K.flat[:: n * m + 1] += np.repeat(np.exp(log_noise), n) + JITTER
        Lc = linalg.chol_factor(K)
        return Lc, linalg.counted_cho_solve(Lc, Z.T.ravel())  # task-major

    def _neg_lml_and_grad(
        self,
        params: np.ndarray,
        X: np.ndarray,
        Z: np.ndarray,
        diffs: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        n, dim = X.shape
        m = self.n_tasks
        thetas, L, log_noise = self._unpack_stacked(params, dim)
        # One kernel call for the shared and every private process.
        Ks, dK = self.kernel.with_gradients(X, thetas, diffs=diffs)
        try:
            Lc, alpha = self._condition(Ks, Z, L, log_noise)
        except np.linalg.LinAlgError:
            return 1e10, np.zeros_like(params)
        B = L @ L.T
        W = alpha[:, None] * alpha - linalg.counted_cho_solve(
            Lc, np.eye(n * m)
        )
        # Contiguous (m, m, n, n) copy of W's task-pair blocks: every
        # contraction below reduces contiguous n x n slices, which keeps
        # it bitwise equal to a per-block np.sum (DESIGN §8).
        W_blocks = np.ascontiguousarray(
            W.reshape(m, n, m, n).transpose(0, 2, 1, 3)
        )
        W_diag = W_blocks.reshape(m * m, n, n)[:: m + 1]
        # Block traces T[i, j] = tr(W_ij Kx) drive the task-matrix grads;
        # Wb = sum_ij B_ij W_ij drives the shared-kernel grads and each
        # diagonal block W_tt its private process's grads.
        T = (W_blocks * Ks[0]).sum(axis=(-2, -1))
        Wb = (B[:, :, None, None] * W_blocks).sum(axis=(0, 1))
        W_proc = Wb[None]  # one weight per process, shared first
        if self.private_processes:
            W_proc = np.concatenate([W_proc, W_diag])
        kernel_grad = 0.5 * (dK * W_proc[:, None]).sum(axis=(-2, -1))

        # d/dL_ab of 0.5 sum_ij dB_ij T_ij with dB = E_ab L^T + L E_ab^T
        # is (T L)_ab: _pack keeps its lower triangle.
        grad = self._pack(
            kernel_grad[0],
            T @ L,
            kernel_grad[1:],
            0.5 * np.exp(log_noise) * np.trace(W_diag, axis1=1, axis2=2),
        )
        return -log_likelihood(Lc, Z.T.ravel(), alpha), -grad

    def _optimize(
        self,
        X: np.ndarray,
        Z: np.ndarray,
        params0: np.ndarray,
        n_restarts: int | None = None,
    ) -> np.ndarray:
        dim = X.shape[1]
        restarts = self.n_restarts if n_restarts is None else n_restarts
        bounds = self._bounds(dim)
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        starts = [np.clip(params0, lo, hi)]
        for _ in range(restarts):
            jitter = self.rng.normal(0.0, 0.4, size=params0.shape)
            starts.append(np.clip(params0 + jitter, lo, hi))
        diffs = self.kernel.pairwise_diffs(X)
        return minimize_multistart(
            self._neg_lml_and_grad,
            starts,
            args=(X, Z, diffs),
            bounds=bounds,
            maxiter=self.max_opt_iter,
            fallback=starts[0],
        )

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    def params(self) -> np.ndarray:
        """Packed hyperparameters of the last fit."""
        state = self._require_state()
        return self._pack(
            state.theta_shared, state.task_chol,
            state.theta_private, state.log_noise,
        )

    def task_covariance(self) -> np.ndarray:
        """Learned shared task matrix B (standardized output space)."""
        state = self._require_state()
        return state.task_chol @ state.task_chol.T

    def task_correlation(self) -> np.ndarray:
        """Correlation implied by the *total* per-task covariances.

        Diagonal totals include the private-process signal, so the
        off-diagonals shrink when a task is mostly private — the honest
        picture of how much the objectives actually co-vary.
        """
        state = self._require_state()
        B = self.task_covariance().copy()
        total_diag = np.diag(B).copy()
        if self.private_processes and state.theta_private.size:
            total_diag += np.exp(state.theta_private[:, 0])
        d = np.sqrt(np.clip(total_diag, 1e-12, None))
        corr = B / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        return corr

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint posterior at each query point.

        Returns ``(mean, cov)`` with ``mean`` of shape (m_query, M) and
        ``cov`` of shape (m_query, M, M) — per-point correlated Gaussians
        in the *original* objective units.
        """
        state = self._require_state()
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        n = state.X.shape[0]
        M = self.n_tasks
        mq = Xs.shape[0]
        B = state.task_chol @ state.task_chol.T

        ks = self.kernel(state.X, Xs, state.theta_shared)  # (n, mq)
        # Cross-covariance for all (task, query) pairs at once; column
        # index of task i, query s is i*mq + s.
        kstar = _kron2(B, ks)
        if self.private_processes and state.theta_private.size:
            for t in range(M):
                kp = self.kernel(state.X, Xs, state.theta_private[t])
                kstar[t * n : (t + 1) * n, t * mq : (t + 1) * mq] += kp

        if state.row_task is not None:
            # Extended factor: reorder cross-covariance rows from
            # task-major to the factor's arrival-block row order.
            kstar = kstar[state.row_task * n + state.row_point]
        mean_z = (kstar.T @ state.alpha).reshape(M, mq).T  # (mq, M)

        V = linalg.counted_solve_triangular(state.chol, kstar)
        Vr = V.reshape(n * M, M, mq)
        reduction = np.einsum("kim,kjm->mij", Vr, Vr)
        kxx = self.kernel.diag(Xs, state.theta_shared)  # (mq,)
        cov_z = B[None, :, :] * kxx[:, None, None] - reduction
        if self.private_processes and state.theta_private.size:
            for t in range(M):
                cov_z[:, t, t] += self.kernel.diag(Xs, state.theta_private[t])
        # Symmetrize + floor the marginal variances.
        cov_z = 0.5 * (cov_z + np.transpose(cov_z, (0, 2, 1)))
        cov_z[:, np.arange(M), np.arange(M)] = np.maximum(
            cov_z[:, np.arange(M), np.arange(M)], 1e-12
        )

        scale = state.y_std
        mean = state.y_mean + mean_z * scale
        cov = cov_z * np.outer(scale, scale)[None, :, :]
        return mean, cov

    def predict_marginals(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-task posterior means and variances (diagonal of ``cov``)."""
        mean, cov = self.predict(Xs)
        M = self.n_tasks
        var = cov[:, np.arange(M), np.arange(M)]
        return mean, np.maximum(var, 1e-12)

    def log_marginal_likelihood(self) -> float:
        state = self._require_state()
        Z = (state.Y_raw - state.y_mean) / state.y_std
        Ks, _ = self.kernel.with_gradients(
            state.X, np.vstack([state.theta_shared, state.theta_private])
        )
        try:
            Lc, alpha = self._condition(Ks, Z, state.task_chol, state.log_noise)
        except np.linalg.LinAlgError:
            return -1e10
        return log_likelihood(Lc, Z.T.ravel(), alpha)

    def _require_state(self) -> _MTState:
        if self._state is None:
            raise RuntimeError("MultiTaskGP is not fitted")
        return self._state


class IndependentMultiObjectiveGP:
    """M independent single-output GPs behind the MultiTaskGP interface.

    The correlation ablation and the FPL18 baseline (paper's [11], [12])
    model the objectives as *independent* GPs; this adapter lets the
    optimizer swap models without branching: ``predict`` returns a
    diagonal per-point covariance.
    """

    def __init__(
        self,
        n_tasks: int,
        kernel: StationaryKernel | None = None,
        n_restarts: int = 1,
        max_opt_iter: int = 80,
        rng: np.random.Generator | None = None,
        incremental: bool = True,
    ):
        from repro.core.gp import GaussianProcess

        if n_tasks < 1:
            raise ValueError("need at least one task")
        self.n_tasks = n_tasks
        self.models = [
            GaussianProcess(
                kernel=kernel,
                n_restarts=n_restarts,
                max_opt_iter=max_opt_iter,
                rng=rng or np.random.default_rng(0),
                incremental=incremental,
            )
            for _ in range(n_tasks)
        ]

    def fit(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        optimize: bool = True,
        init_params: np.ndarray | None = None,
        warm_start: bool = False,
        ephemeral: bool = False,
    ) -> "IndependentMultiObjectiveGP":
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[1] != self.n_tasks:
            raise ValueError(f"expected {self.n_tasks} objectives")
        per_task = self._split_init_params(init_params)
        for t, model in enumerate(self.models):
            model.fit(
                X,
                Y[:, t],
                optimize=optimize,
                init_theta=per_task[t],
                warm_start=warm_start,
                ephemeral=ephemeral,
            )
        return self

    def _split_init_params(
        self, init_params: np.ndarray | None
    ) -> list[np.ndarray | None]:
        """One per-task hyperparameter row from the stacked ``init_params``.

        Accepts shape ``(n_tasks, n_theta)`` or the flat concatenation of
        the rows; ``None`` yields per-task defaults.
        """
        if init_params is None:
            return [None] * self.n_tasks
        params = np.asarray(init_params, dtype=float)
        if params.ndim == 1:
            if params.size % self.n_tasks != 0:
                raise ValueError(
                    f"flat init_params of size {params.size} does not split "
                    f"into {self.n_tasks} equal per-task blocks"
                )
            params = params.reshape(self.n_tasks, -1)
        if params.ndim != 2 or params.shape[0] != self.n_tasks:
            raise ValueError(
                f"init_params must have shape ({self.n_tasks}, n_theta) or "
                f"flat ({self.n_tasks} * n_theta,), got {params.shape}"
            )
        return [params[t] for t in range(self.n_tasks)]

    @property
    def is_fitted(self) -> bool:
        return all(m.is_fitted for m in self.models)

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean, var = self.predict_marginals(Xs)
        m = self.n_tasks
        cov = np.zeros((mean.shape[0], m, m))
        cov[:, np.arange(m), np.arange(m)] = var
        return mean, cov

    def predict_marginals(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        means = np.empty((Xs.shape[0], self.n_tasks))
        variances = np.empty_like(means)
        for t, model in enumerate(self.models):
            means[:, t], variances[:, t] = model.predict(Xs)
        return means, np.maximum(variances, 1e-12)

    def task_covariance(self) -> np.ndarray:
        """Diagonal by construction — objectives are independent."""
        return np.eye(self.n_tasks)

    def task_correlation(self) -> np.ndarray:
        return np.eye(self.n_tasks)
