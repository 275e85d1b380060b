"""Counted dense Cholesky primitives for the GP stack.

Two jobs in one module:

- **Block Cholesky extension** (:func:`chol_extend`).  For a grown
  covariance matrix

      K_new = [[K_old, B],
               [B^T,   D]]

  with ``K_old = L_old L_old^T`` already factorized, the factor of
  ``K_new`` is

      L_new = [[L_old, 0  ],
               [C^T,   L_k]],   C = L_old^{-1} B,
                                L_k L_k^T = D - C^T C  (Schur complement)

  costing ``n^2 k + n k^2 + k^3/3`` flops instead of the full
  ``(n+k)^3 / 3`` refactorization — the identity behind incremental
  ``fit(optimize=False)`` conditioning in :mod:`repro.core.gp` and
  :mod:`repro.core.multitask`.  When the Schur complement is not
  numerically positive definite (accumulated roundoff after many
  extensions), :class:`numpy.linalg.LinAlgError` propagates and callers
  fall back to a full refactorization.

- **A deterministic work proxy** (:data:`FLOPS`).  Every factorization
  and extension routed through this module increments a global flop
  counter.  Counted flops depend only on matrix sizes — never on core
  count, machine load or clock resolution — so the perf gates in
  ``benchmarks/*.py`` can arm on them even on a 1-CPU CI runner where
  wall-clock speedup assertions are meaningless.

The factorization and the solves call LAPACK's ``dpotrf``, ``dpotrs``
and ``dtrtrs`` directly, with the routines and flags
:func:`scipy.linalg.cholesky`, :func:`scipy.linalg.cho_solve` and
:func:`scipy.linalg.solve_triangular` pass, so every result is
bitwise scipy's.  The scipy wrappers add a batch decorator, array-API
dispatch, a LAPACK-function lookup and ``asarray_chkfinite`` per call;
on the GP's matrices (n <= ~150) that overhead costs more than the
LAPACK work, and the likelihood pays it three times per evaluation.
What the wrappers check is kept: non-finite input raises
:class:`ValueError`, a non-positive-definite or singular matrix
:class:`numpy.linalg.LinAlgError`.  Inputs must be float64 (every
caller's dtype) and are never overwritten.  No other module calls
LAPACK.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

__all__ = [
    "FLOPS",
    "FlopCounter",
    "chol_factor",
    "chol_extend",
    "counted_cho_solve",
    "counted_solve_triangular",
    "factor_flops",
    "extend_flops",
    "metered",
]


def factor_flops(n: int) -> int:
    """Flops of a full ``n x n`` Cholesky factorization (``n^3 / 3``)."""
    return n * n * n // 3


def extend_flops(n_old: int, k: int) -> int:
    """Flops of extending an ``n_old``-row factor by ``k`` rows."""
    return n_old * n_old * k + n_old * k * k + k * k * k // 3


class FlopCounter:
    """Thread-safe counters for factorization/solve work.

    One process-global instance (:data:`FLOPS`) is shared by every GP;
    callers snapshot before/after a region and difference the dicts,
    mirroring :meth:`repro.obs.timing.Metrics.snapshot`.
    """

    _KEYS = (
        "factor_flops",
        "extend_flops",
        "solve_flops",
        "factorizations",
        "extensions",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {k: 0 for k in self._KEYS}

    def add(self, key: str, flops: int) -> None:
        with self._lock:
            self._counts[key] += int(flops)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {k: after.get(k, 0) - before.get(k, 0) for k in after}

    def reset(self) -> None:
        with self._lock:
            for k in self._counts:
                self._counts[k] = 0


#: Process-global work counter (the benchmarks' deterministic proxy).
FLOPS = FlopCounter()


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _potrf(K: np.ndarray) -> np.ndarray:
    """Uncounted lower Cholesky factor of ``K`` (``dpotrf``, clean)."""
    _check_finite(K)
    L, info = dpotrf(K, lower=1, clean=1)
    if info > 0:
        raise LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument "
            'on entry to "POTRF".'
        )
    return L


def _trtrs_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Uncounted forward solve ``L^{-1} B`` (``dtrtrs``).

    ``dtrtrs`` expects Fortran order; a C-ordered ``L`` is passed as
    its transpose with the upper/transposed flags, as
    :func:`scipy.linalg.solve_triangular` does.
    """
    _check_finite(L)
    _check_finite(B)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, B, lower=1, trans=0)
    else:
        x, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal trtrs"
        )
    return x


def chol_factor(K: np.ndarray) -> np.ndarray:
    """Counted lower-Cholesky factorization (bitwise = scipy's)."""
    n = K.shape[0]
    FLOPS.add("factor_flops", factor_flops(n))
    FLOPS.add("factorizations", 1)
    return _potrf(K)


def chol_extend(L_old: np.ndarray, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Extend a lower-Cholesky factor by the new rows' blocks.

    ``B`` is the ``(n_old, k)`` cross-covariance between old and new
    rows, ``D`` the ``(k, k)`` covariance of the new rows (noise and
    jitter already on its diagonal).  Raises
    :class:`numpy.linalg.LinAlgError` when the Schur complement is not
    positive definite — the caller's cue to refactorize from scratch.
    """
    n_old = L_old.shape[0]
    k = D.shape[0]
    if B.shape != (n_old, k):
        raise ValueError(
            f"cross block has shape {B.shape}, expected {(n_old, k)}"
        )
    C = _trtrs_lower(L_old, B)  # (n_old, k)
    L_k = _potrf(D - C.T @ C)
    FLOPS.add("extend_flops", extend_flops(n_old, k))
    FLOPS.add("extensions", 1)
    n = n_old + k
    L = np.zeros((n, n))
    L[:n_old, :n_old] = L_old
    L[n_old:, :n_old] = C.T
    L[n_old:, n_old:] = L_k
    return L


@contextmanager
def metered(metrics, prefix: str):
    """Credit the block's flop deltas to ``metrics`` as ``{prefix}_*``.

    ``metrics`` is any object with ``incr(name, by)`` (in practice
    :class:`repro.obs.timing.Metrics`).  Zero deltas are skipped, so
    unused buckets never appear in snapshots.
    """
    before = FLOPS.snapshot()
    try:
        yield
    finally:
        for key, value in FlopCounter.delta(before, FLOPS.snapshot()).items():
            if value:
                metrics.incr(f"{prefix}_{key}", value)


def counted_cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counted ``(L L^T)^{-1} b`` (bitwise = scipy's ``cho_solve``)."""
    n = L.shape[0]
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    FLOPS.add("solve_flops", 2 * n * n * nrhs)
    _check_finite(b)
    _check_finite(L)
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal potrs"
        )
    return x


def counted_solve_triangular(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Counted ``L^{-1} B`` forward solve (bitwise = scipy's).

    One triangular solve is ``n^2`` flops per right-hand side.  Routes
    the GP *predict* path's solves through the global counter so the
    acquisition sweep's linear-algebra work shows up in the same
    ``fit_``/``commit_``/``fantasy_`` buckets :func:`metered` credits.
    """
    n = L.shape[0]
    nrhs = 1 if B.ndim == 1 else B.shape[1]
    FLOPS.add("solve_flops", n * n * nrhs)
    return _trtrs_lower(L, B)
