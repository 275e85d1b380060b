"""Exact Gaussian-process regression (paper Sec. II-A).

A constant-mean GP with i.i.d. Gaussian observation noise, fitted by
maximizing the log marginal likelihood with analytic gradients
(L-BFGS-B, multi-restart).  Targets are standardized internally, so the
constant mean is zero in the working space and predictions are returned
in the original units.

Sized for the paper's regime: tens to a few hundred training points,
refitted at every Bayesian-optimization step.

Incremental conditioning.  ``fit(optimize=False)`` on a dataset whose
inputs extend the previous fit's inputs (same hyperparameters, old
``X`` an exact row prefix of the new one) extends the existing Cholesky
factor by the new rows (:func:`repro.core.linalg.chol_extend`,
``O(n^2 k)``) instead of refactorizing (``O(n^3)``).  The kernel matrix
depends only on ``X`` and the hyperparameters, so the targets may
change arbitrarily between such fits (re-standardization, punished-row
rescaling, fantasy values): ``alpha`` is recomputed from the factor in
``O(n^2)`` either way.  ``fit(..., ephemeral=True)`` marks a fantasy
conditioning (Kriging-believer batches): the fitted state serves
predictions as usual, but the next non-ephemeral fit extends from the
last *durable* state, so a fantasy detour never changes what a real
refit computes.  ``incremental=False`` (or ``optimize=True``) always
takes the full factorization path, which remains the bitwise reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from repro.core import linalg
from repro.core.kernels import Matern52, StationaryKernel
from repro.core.restarts import minimize_multistart

#: Bounds on the log observation-noise variance.
LOG_NOISE_BOUNDS = (math.log(1e-8), math.log(1.0))

#: Jitter added to covariance diagonals before factorization.
JITTER = 1e-8


def log_likelihood(chol: np.ndarray, z: np.ndarray, alpha: np.ndarray) -> float:
    """Gaussian log density of ``z`` given K's Cholesky factor and K⁻¹z."""
    return (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * z.size * math.log(2.0 * math.pi)
    )


@dataclass
class _FitState:
    """Everything needed for fast posterior evaluation after fitting."""

    X: np.ndarray
    y_raw: np.ndarray
    y_mean: float
    y_std: float
    theta: np.ndarray  # kernel params + [log noise]
    chol: np.ndarray  # lower Cholesky of K + noise I
    alpha: np.ndarray  # (K + noise I)^-1 y


class GaussianProcess:
    """Single-output exact GP regression with MLE hyperparameters."""

    def __init__(
        self,
        kernel: StationaryKernel | None = None,
        n_restarts: int = 2,
        max_opt_iter: int = 80,
        rng: np.random.Generator | None = None,
        incremental: bool = True,
    ):
        self.kernel = kernel or Matern52()
        self.n_restarts = n_restarts
        self.max_opt_iter = max_opt_iter
        self.rng = rng or np.random.default_rng(0)
        #: allow fixed-hyperparameter refits on superset data to extend
        #: the previous Cholesky factor instead of refactorizing.
        self.incremental = incremental
        self._state: _FitState | None = None
        #: last durable (non-ephemeral) state — the extension base for
        #: real refits while fantasy conditionings are active.
        self._base_state: _FitState | None = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        optimize: bool = True,
        init_theta: np.ndarray | None = None,
        warm_start: bool = False,
        ephemeral: bool = False,
    ) -> "GaussianProcess":
        """Fit to data; with ``optimize=False`` reuses ``init_theta``
        (or the previous fit's hyperparameters) and only reconditions.

        With ``warm_start=True`` (and ``optimize=True``) the marginal-
        likelihood optimization starts from the previous fit's
        hyperparameters and runs a *single* L-BFGS-B descent — no random
        restarts — which converges in a handful of iterations when the
        training set changed by one point (the BO refit pattern).

        ``ephemeral=True`` marks a fantasy conditioning: the state is
        active for predictions, but the next non-ephemeral fit extends
        from the last durable state, so fantasy detours never change
        the factor a real refit produces (module docstring).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if X.shape[0] < 1:
            raise ValueError("need at least one training point")
        dim = X.shape[1]

        y_mean = float(np.mean(y))
        y_std = float(np.std(y))
        if y_std < 1e-12:
            y_std = 1.0
        z = (y - y_mean) / y_std

        n_theta = self.kernel.n_params(dim) + 1
        warm = (
            warm_start
            and init_theta is None
            and self._state is not None
            and self._state.theta.shape[0] == n_theta
        )
        if init_theta is None and self._state is not None and not optimize:
            init_theta = self._state.theta
        if warm:
            init_theta = self._state.theta
        if init_theta is None:
            init_theta = np.concatenate(
                [self.kernel.default_params(dim), [math.log(1e-4)]]
            )
        theta = np.asarray(init_theta, dtype=float)

        if optimize:
            theta = self._optimize(X, z, theta, n_restarts=0 if warm else None)

        chol = None
        if not optimize and self.incremental:
            base = self._state if ephemeral else self._durable_state()
            chol = self._extended_chol(base, X, theta)
        if chol is None:
            chol, alpha = self._condition(
                self.kernel(X, X, theta[:-1]), z, theta[-1]
            )
        else:
            alpha = linalg.counted_cho_solve(chol, z)
        state = _FitState(
            X=X, y_raw=y, y_mean=y_mean, y_std=y_std,
            theta=theta, chol=chol, alpha=alpha,
        )
        if ephemeral:
            if self._base_state is None:
                self._base_state = self._state
        else:
            self._base_state = None
        self._state = state
        return self

    def _durable_state(self) -> _FitState | None:
        return self._base_state if self._base_state is not None else self._state

    def _extended_chol(
        self, base: _FitState | None, X: np.ndarray, theta: np.ndarray
    ) -> np.ndarray | None:
        """The previous factor extended to ``X``, or ``None``.

        Valid only when the hyperparameters are unchanged and the old
        inputs are an exact row prefix of the new ones — then the old
        covariance block is bitwise the leading block of the new one.
        """
        if base is None:
            return None
        n_old = base.X.shape[0]
        if (
            base.X.shape[1] != X.shape[1]
            or X.shape[0] < n_old
            or not np.array_equal(base.theta, theta)
            or not np.array_equal(base.X, X[:n_old])
        ):
            return None
        if X.shape[0] == n_old:
            return base.chol
        X_new = X[n_old:]
        theta_k = theta[:-1]
        B = self.kernel(base.X, X_new, theta_k)
        D = self.kernel(X_new, X_new, theta_k)
        D[np.diag_indices_from(D)] += math.exp(theta[-1]) + JITTER
        try:
            return linalg.chol_extend(base.chol, B, D)
        except np.linalg.LinAlgError:
            return None

    def _condition(
        self, K: np.ndarray, z: np.ndarray, log_noise: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor of ``K`` + noise + jitter (in place) and K⁻¹z."""
        K.flat[:: len(K) + 1] += math.exp(log_noise) + JITTER
        L = linalg.chol_factor(K)
        return L, linalg.counted_cho_solve(L, z)

    def _neg_lml_and_grad(
        self,
        theta: np.ndarray,
        X: np.ndarray,
        z: np.ndarray,
        diffs: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        K, dK = self.kernel.with_gradients(X, theta[:-1], diffs=diffs)
        try:
            L, alpha = self._condition(K, z, theta[-1])
        except np.linalg.LinAlgError:
            return 1e10, np.zeros_like(theta)
        # dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta)
        Kinv = linalg.counted_cho_solve(L, np.eye(len(z)))
        W = np.outer(alpha, alpha) - Kinv
        grad = np.empty_like(theta)
        grad[:-1] = 0.5 * (dK * W).sum(axis=(-2, -1))
        grad[-1] = 0.5 * math.exp(theta[-1]) * float(np.trace(W))
        return -log_likelihood(L, z, alpha), -grad

    def _optimize(
        self,
        X: np.ndarray,
        z: np.ndarray,
        theta0: np.ndarray,
        n_restarts: int | None = None,
    ) -> np.ndarray:
        dim = X.shape[1]
        restarts = self.n_restarts if n_restarts is None else n_restarts
        bounds = self.kernel.bounds(dim) + [LOG_NOISE_BOUNDS]
        starts = [theta0]
        for _ in range(restarts):
            jittered = theta0 + self.rng.normal(0.0, 0.7, size=theta0.shape)
            starts.append(
                np.clip(
                    jittered,
                    [b[0] for b in bounds],
                    [b[1] for b in bounds],
                )
            )
        diffs = self.kernel.pairwise_diffs(X)
        return minimize_multistart(
            self._neg_lml_and_grad,
            starts,
            args=(X, z, diffs),
            bounds=bounds,
            maxiter=self.max_opt_iter,
            fallback=theta0,
        )

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    @property
    def theta(self) -> np.ndarray:
        """Fitted hyperparameters (kernel log-params + log noise)."""
        return self._require_state().theta.copy()

    def predict(
        self, Xs: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points (original units)."""
        state = self._require_state()
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        theta_k = state.theta[:-1]
        Ks = self.kernel(state.X, Xs, theta_k)
        mean_z = Ks.T @ state.alpha
        v = linalg.counted_solve_triangular(state.chol, Ks)
        prior_diag = self.kernel.diag(Xs, theta_k)
        var_z = prior_diag - np.sum(v * v, axis=0)
        # Scale-relative floor: an absolute clamp in standardized space
        # is unit-dependent after the y_std**2 rescale below.
        var_z = np.maximum(var_z, 1e-12 * prior_diag)
        if include_noise:
            var_z = var_z + math.exp(state.theta[-1])
        mean = state.y_mean + state.y_std * mean_z
        var = (state.y_std ** 2) * var_z
        return mean, var

    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        """LML of the standardized training data at ``theta``."""
        state = self._require_state()
        z = (state.y_raw - state.y_mean) / state.y_std
        use = state.theta if theta is None else np.asarray(theta, dtype=float)
        K, _ = self.kernel.with_gradients(state.X, use[:-1])
        try:
            L, alpha = self._condition(K, z, use[-1])
        except np.linalg.LinAlgError:
            return -1e10
        return log_likelihood(L, z, alpha)

    def sample_posterior(
        self, Xs: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw marginal posterior samples, shape (n_samples, len(Xs))."""
        mean, var = self.predict(Xs)
        return mean[None, :] + np.sqrt(var)[None, :] * rng.standard_normal(
            (n_samples, mean.shape[0])
        )

    def _require_state(self) -> _FitState:
        if self._state is None:
            raise RuntimeError("GaussianProcess is not fitted")
        return self._state
