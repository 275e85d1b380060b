"""Covariance functions for Gaussian-process regression.

Stateless kernels: hyperparameters are passed explicitly as a vector of
*log* parameters ``[log signal-variance, log lengthscale_1..d]`` so the
marginal-likelihood optimizer can work on an unconstrained space.  Each
kernel provides analytic gradients with respect to its log-parameters —
the paper's method refits GPs at every optimization step, so gradient
quality directly bounds experiment runtime.

The paper uses a squared-exponential kernel for the plain GP exposition
(Sec. II-A) and an ARD Matérn-5/2 kernel for the correlated
multi-objective model "to avoid unrealistic smoothness" (Sec. IV-B);
both are provided.
"""

from __future__ import annotations

import abc
import math

import numpy as np

#: Bounds (in log space) applied to every kernel hyperparameter.
LOG_SIGNAL_BOUNDS = (-8.0, 8.0)
LOG_LENGTHSCALE_BOUNDS = (math.log(1e-2), math.log(1e2))


def _as_2d(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {X.shape}")
    return X


def _scaled_sqdist(
    X1: np.ndarray, X2: np.ndarray, lengthscales: np.ndarray
) -> np.ndarray:
    """Pairwise squared distances after per-dimension scaling."""
    A = X1 / lengthscales
    B = X2 / lengthscales
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(sq, 0.0)


class StationaryKernel(abc.ABC):
    """Base class: ARD stationary kernel with signal variance.

    Parameter layout: ``theta = [log sf2, log ls_1, ..., log ls_d]``.
    """

    def n_params(self, dim: int) -> int:
        return 1 + dim

    def default_params(self, dim: int) -> np.ndarray:
        """Unit signal variance, unit lengthscales (inputs are in [0,1])."""
        return np.zeros(1 + dim)

    def bounds(self, dim: int) -> list[tuple[float, float]]:
        return [LOG_SIGNAL_BOUNDS] + [LOG_LENGTHSCALE_BOUNDS] * dim

    def split(self, theta: np.ndarray, dim: int) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (1 + dim,):
            raise ValueError(
                f"expected {1 + dim} kernel parameters, got {theta.shape}"
            )
        return float(np.exp(theta[0])), np.exp(theta[1:])

    def __call__(
        self, X1: np.ndarray, X2: np.ndarray, theta: np.ndarray
    ) -> np.ndarray:
        """Covariance matrix K(X1, X2)."""
        X1, X2 = _as_2d(X1), _as_2d(X2)
        sf2, ls = self.split(theta, X1.shape[1])
        return sf2 * self._corr(_scaled_sqdist(X1, X2, ls))

    def diag(self, X: np.ndarray, theta: np.ndarray) -> np.ndarray:
        X = _as_2d(X)
        sf2, _ = self.split(theta, X.shape[1])
        return np.full(X.shape[0], sf2)

    @staticmethod
    def pairwise_diffs(X: np.ndarray) -> np.ndarray:
        """Raw pairwise differences ``X_i - X_j`` of shape (n, n, d).

        Hyperparameter-independent, so a marginal-likelihood optimizer
        can compute this once per training matrix and pass it to every
        :meth:`with_gradients` evaluation instead of rebuilding the
        O(n² d) tensor at each L-BFGS-B step.
        """
        X = _as_2d(X)
        return X[:, None, :] - X[None, :, :]

    def with_gradients(
        self, X: np.ndarray, theta: np.ndarray,
        diffs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """K(X, X) and ``dK/dtheta_k`` for one θ or a stack of them.

        ``theta`` is one vector ``(1+d,)`` or a stack ``(P, 1+d)``.

        Returns K ``(..., n, n)`` and the gradients as one C-contiguous
        array ``(..., 1+d, n, n)``: slice ``[..., k, :, :]`` is the
        derivative with respect to log-parameter ``k``.  Row ``p`` of a
        stack gives bitwise what θ ``p`` alone gives.  ``diffs``
        optionally carries :meth:`pairwise_diffs` output for ``X``
        (identical results, skips the tensor rebuild).
        """
        X = _as_2d(X)
        dim = X.shape[1]
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != 1 + dim:
            raise ValueError(
                f"expected {1 + dim} kernel parameters, got {theta.shape}"
            )
        params = np.exp(theta)
        sf2 = params[..., 0, None, None]
        if diffs is None:
            diffs = self.pairwise_diffs(X)
        # Per-dimension scaled squared distances (needed by ARD grads).
        sq_per_dim = diffs / params[..., None, None, 1:]
        sq_per_dim *= sq_per_dim
        corr, dcorr_dsq = self._corr_and_grad(np.sum(sq_per_dim, axis=-1))
        K = sf2 * corr
        dK = np.empty(theta.shape + K.shape[-2:])
        dK[..., 0, :, :] = K  # d/dlog sf2 = K
        # d sq / d log ls_k = -2 * sq_k; the two swaps are
        # np.moveaxis(-1, -3) without its per-call axis normalization.
        np.multiply(
            sq_per_dim.swapaxes(-1, -2).swapaxes(-2, -3), -2.0,
            out=dK[..., 1:, :, :],
        )
        dK[..., 1:, :, :] *= (sf2 * dcorr_dsq)[..., None, :, :]
        return K, dK

    @abc.abstractmethod
    def _corr(self, sq: np.ndarray) -> np.ndarray:
        """Correlation as a function of scaled squared distance."""

    @abc.abstractmethod
    def _corr_and_grad(self, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Correlation and its derivative w.r.t. the squared distance."""


class RBF(StationaryKernel):
    """Squared-exponential (Gaussian) ARD kernel (paper Sec. II-A)."""

    def _corr(self, sq: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * sq)

    def _corr_and_grad(self, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        corr = np.exp(-0.5 * sq)
        return corr, -0.5 * corr


class Matern52(StationaryKernel):
    """ARD Matérn-5/2 kernel (paper Sec. IV-B's ``kC``)."""

    def _corr(self, sq: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.maximum(sq, 0.0))
        s5r = math.sqrt(5.0) * r
        return (1.0 + s5r + (5.0 / 3.0) * sq) * np.exp(-s5r)

    def _corr_and_grad(self, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(np.maximum(sq, 0.0))
        s5r = math.sqrt(5.0) * r
        e = np.exp(-s5r)
        corr = (1.0 + s5r + (5.0 / 3.0) * sq) * e
        # d corr / d sq = -(5/6) (1 + sqrt(5) r) e^{-sqrt(5) r}
        dcorr = -(5.0 / 6.0) * (1.0 + s5r) * e
        return corr, dcorr
