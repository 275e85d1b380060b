"""Deterministic multi-start L-BFGS-B for hyperparameter fits.

``GaussianProcess`` and ``MultiTaskGP`` maximize the log marginal
likelihood from several start points (the incumbent plus jittered
restarts).  The caller builds the start list (its RNG draws), every
descent runs the same ``scipy.optimize.minimize`` call, and the winner
is the in-order first descent with the strictly smallest objective, so
ties always resolve to the earliest start.

The descents run in this process.  A warm-started refit is tens of
likelihood evaluations at well under a millisecond each, so a process
pool per fit costs more than it saves; process-level parallelism lives
at the cell level (:mod:`repro.experiments.parallel`, the fleet).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

__all__ = ["minimize_multistart"]


def minimize_multistart(
    fun: Callable[..., tuple[float, np.ndarray]],
    starts: Sequence[np.ndarray],
    args: tuple,
    bounds: Sequence[tuple[float, float]],
    maxiter: int,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Best-of-``starts`` L-BFGS-B minimizer.

    Returns the ``x`` of the in-order first descent achieving the
    strictly smallest objective; ``fallback`` (default ``starts[0]``)
    if every descent reports a non-finite objective.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        raise ValueError("need at least one start point")
    if fallback is None:
        fallback = starts[0]
    best_x = np.asarray(fallback, dtype=float)
    best_val = math.inf
    for start in starts:
        result = minimize(
            fun,
            start,
            args=args,
            jac=True,
            method="L-BFGS-B",
            bounds=list(bounds),
            options={"maxiter": maxiter},
        )
        val = float(result.fun)
        if val < best_val:
            best_val, best_x = val, np.asarray(result.x, dtype=float)
    return best_x
