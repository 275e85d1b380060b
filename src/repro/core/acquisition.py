"""Acquisition functions (paper Eq. (2) and Sec. IV-B/IV-C).

- :func:`expected_improvement` — classic single-objective EI (Eq. (2)),
  used by the toy Fig. 4 driver and available to baselines.
- :func:`nondominated_cells_2d` / :func:`ehvi_2d_independent` — the
  paper's grid-cell decomposition of the objective space (Fig. 6,
  Eq. (8)) with a closed-form per-cell integral for two objectives and
  independent marginals.
- :func:`eipv_mc` — the general estimator: expected improvement of
  Pareto hypervolume under a *correlated* multivariate Gaussian
  posterior (Eq. (7)), evaluated by common-random-number Monte Carlo
  over a precomputed disjoint box decomposition.
- :func:`penalized_eipv` — the multi-fidelity cost penalty (Eq. (10)).
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np
from scipy.special import ndtr

from repro.core.batch.workers import compute_threads
from repro.core.pareto import dominated_boxes, hvi_batch, pareto_mask

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    """``scipy.stats.norm.pdf`` bit for bit (its CDF is ``ndtr``);
    importing scipy.stats would cost most of a cold start."""
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


# ----------------------------------------------------------------------
# single-objective expected improvement (Eq. (2))
# ----------------------------------------------------------------------


def expected_improvement(
    mu: np.ndarray,
    sigma: np.ndarray,
    best: float,
    xi: float = 0.0,
) -> np.ndarray:
    """EI for minimization: ``E[max(0, best - xi - y)]`` under N(mu, sigma²).

    ``xi`` is the paper's exploration jitter.  Points with (numerically)
    zero predictive deviation get the deterministic improvement.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improvement = best - xi - mu
    out = np.maximum(improvement, 0.0)
    positive = sigma > 1e-12
    lam = np.zeros_like(mu)
    lam[positive] = improvement[positive] / sigma[positive]
    out = np.where(
        positive,
        sigma * (lam * ndtr(lam) + _norm_pdf(lam)),
        out,
    )
    return np.maximum(out, 0.0)


# ----------------------------------------------------------------------
# cell decomposition (Fig. 6) and analytic 2-D EIPV
# ----------------------------------------------------------------------


def nondominated_cells_2d(
    front: np.ndarray, ref: np.ndarray
) -> np.ndarray:
    """Grid cells of the 2-D objective space not dominated by ``front``.

    The grid is induced by the coordinates of the Pareto points (the
    ``b`` values of paper Fig. 6); returned as an array (n_cells, 2, 2)
    of (lower, upper) corners, where lower corners may be ``-inf``.
    Only cells inside the reference box (upper corner <= ref) appear.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    front = front[pareto_mask(front)]
    xs = np.concatenate([[-np.inf], np.unique(front[:, 0]), [ref[0]]])
    ys = np.concatenate([[-np.inf], np.unique(front[:, 1]), [ref[1]]])
    # All (i, j) grid cells at once; the i-major flattening order
    # matches the historical double loop, so downstream per-cell float
    # accumulation (ehvi_2d_independent) is bitwise unchanged.
    lo_x, hi_x = xs[:-1, None], xs[1:, None]  # (nx, 1)
    lo_y, hi_y = ys[None, :-1], ys[None, 1:]  # (1, ny)
    inside = (hi_x <= ref[0]) & (hi_y <= ref[1])
    proper = (hi_x > lo_x) & (hi_y > lo_y)
    # dominated[i, j] <=> some front point p has p <= (lo_x[i], lo_y[j]).
    covers_x = front[:, 0][:, None] <= lo_x[None, :, 0]  # (K, nx)
    covers_y = front[:, 1][:, None] <= lo_y[None, 0, :]  # (K, ny)
    dominated = np.einsum("ki,kj->ij", covers_x, covers_y) > 0
    keep = inside & proper & ~dominated
    if not keep.any():
        return np.empty((0, 2, 2))
    shape = keep.shape
    lows = np.stack(
        [np.broadcast_to(lo_x, shape)[keep], np.broadcast_to(lo_y, shape)[keep]],
        axis=-1,
    )
    highs = np.stack(
        [np.broadcast_to(hi_x, shape)[keep], np.broadcast_to(hi_y, shape)[keep]],
        axis=-1,
    )
    return np.stack([lows, highs], axis=1)


def _psi(a: np.ndarray, b: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``E[(b - max(y, a))^+]`` for ``y ~ N(mu, sigma²)``, elementwise.

    ``a`` may be ``-inf`` (unbounded cell edge).  Handles ``sigma -> 0``
    by degenerating to the deterministic clamp.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    det = np.clip(b - np.maximum(mu, a), 0.0, None)
    safe = sigma > 1e-12
    sig = np.where(safe, sigma, 1.0)
    # Replace an unbounded lower edge by a point far in the left tail so
    # the (b - a) * cdf(alpha) term vanishes without inf * 0 warnings.
    a_eff = np.where(np.isfinite(a), a, mu - 40.0 * sig)
    alpha = (a_eff - mu) / sig
    beta = (b - mu) / sig
    term1 = (b - a_eff) * ndtr(alpha)
    term2 = (b - mu) * (ndtr(beta) - ndtr(alpha))
    term3 = sig * (_norm_pdf(beta) - _norm_pdf(alpha))
    value = term1 + term2 + term3
    return np.where(safe, np.maximum(value, 0.0), det)


def ehvi_2d_independent(
    means: np.ndarray,
    variances: np.ndarray,
    front: np.ndarray,
    ref: np.ndarray,
) -> np.ndarray:
    """Exact EIPV for 2 objectives with independent Gaussian marginals.

    Implements Eq. (8): the expected improvement decomposes over the
    non-dominated grid cells, and within each cell the two objectives
    integrate independently.  ``means``/``variances`` are (n, 2).
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    if means.shape[1] != 2:
        raise ValueError("analytic EIPV implemented for exactly 2 objectives")
    cells = nondominated_cells_2d(front, ref)
    if cells.shape[0] == 0:
        return np.zeros(means.shape[0])
    sig = np.sqrt(np.clip(variances, 0.0, None))
    total = np.zeros(means.shape[0])
    for lo, hi in cells:
        px = _psi(lo[0], hi[0], means[:, 0], sig[:, 0])
        py = _psi(lo[1], hi[1], means[:, 1], sig[:, 1])
        total += px * py
    return total


# ----------------------------------------------------------------------
# Monte-Carlo EIPV for correlated posteriors (Eq. (7))
# ----------------------------------------------------------------------


#: Below this much work (candidates × samples × boxes) a call scores
#: inline: handing blocks to the helper pool and back costs ~0.3 ms,
#: which splitting wins back only above about this size (2-core x86).
_INLINE_WORK = 1 << 16

_helper_lock = threading.Lock()
_helper_pool = None  # ThreadPoolExecutor, created by the first split call


def _helpers():
    """The helper thread pool, created on first use."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper_pool = ThreadPoolExecutor(
                max_workers=max(1, compute_threads() - 1),
                thread_name_prefix="eipv",
            )
        return _helper_pool


def _forget_helper_pool() -> None:
    """Drop the helper pool in a fork child.  The child inherits the
    executor but none of its threads, while the executor's idle count
    still says a worker is waiting: a submit would start no thread and
    the call would hang."""
    global _helper_pool, _helper_lock
    _helper_pool = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_pool)


def eipv_mc(
    means: np.ndarray,
    covs: np.ndarray,
    front: np.ndarray,
    ref: np.ndarray,
    rng: np.random.Generator,
    n_samples: int = 64,
    boxes: np.ndarray | None = None,
) -> np.ndarray:
    """Monte-Carlo EIPV of many candidates under correlated posteriors.

    ``means`` is (n, M); ``covs`` is (n, M, M) (dense — the correlated
    multi-objective model's per-point posterior) or (n, M) (independent
    marginal variances, used by the FPL18 baseline).  A single standard-
    normal draw is shared across candidates (common random numbers), so
    the argmax over candidates is far less noisy than independent draws
    at the same sample count.  A non-finite covariance in either form,
    or ``n_samples < 1``, raises :class:`ValueError` rather than
    returning NaN scores.

    The draw and the Cholesky factors (whose jitter scale is batch-wide)
    are made for the whole batch on the calling thread.  The per-
    candidate scoring is then split into contiguous candidate blocks,
    one per visible CPU: the first runs on the calling thread and the
    rest on a helper thread pool.  Each candidate's score comes from the
    same operands by the same operations at any block count, so the
    split never changes a bit.  Small calls (under ``_INLINE_WORK``)
    and process-pool workers score inline.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    n, m = means.shape
    covs = np.asarray(covs, dtype=float)
    if not np.isfinite(covs).all():
        raise ValueError("posterior covariances must be finite")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if boxes is None:
        boxes = dominated_boxes(front, ref)
    z = rng.standard_normal((n_samples, m))
    if covs.ndim == 2:  # independent marginals
        factor = np.sqrt(np.clip(covs, 0.0, None))  # (n, M)
    else:
        if covs.shape != (n, m, m):
            raise ValueError(f"covs shape {covs.shape} incompatible with means")
        factor = _batched_cholesky(covs)
    blocks = 1
    if n * n_samples * max(1, boxes.shape[0]) >= _INLINE_WORK:
        blocks = min(compute_threads(), n)
    if blocks <= 1:
        return _score_block(means, factor, z, front, ref, boxes)
    pool = _helpers()
    edges = [n * b // blocks for b in range(blocks + 1)]
    # Each helper block runs in a copy of this thread's context, so it
    # keeps the caller's ``np.errstate``.
    futures = [
        pool.submit(
            contextvars.copy_context().run, _score_block,
            means[lo:hi], factor[lo:hi], z, front, ref, boxes,
        )
        for lo, hi in zip(edges[1:-1], edges[2:])
    ]
    try:
        first = _score_block(
            means[: edges[1]], factor[: edges[1]], z, front, ref, boxes
        )
    finally:  # never leave a block running past the call
        rest = [future.result() for future in futures]
    return np.concatenate([first] + rest)


def _score_block(
    means: np.ndarray,
    factor: np.ndarray,
    z: np.ndarray,
    front: np.ndarray,
    ref: np.ndarray,
    boxes: np.ndarray,
) -> np.ndarray:
    """EIPV of one candidate block: ``factor`` is its Cholesky factors
    (k, M, M) or its marginal std-devs (k, M)."""
    k, m = means.shape
    if factor.ndim == 2:
        samples = means[:, None, :] + factor[:, None, :] * z[None, :, :]
    else:
        samples = means[:, None, :] + np.einsum("nij,sj->nsi", factor, z)
    flat = samples.reshape(k * z.shape[0], m)
    # ``hvi_batch`` by its module-level name, so a rebinding (a tracer)
    # sees every block's call.
    improvements = hvi_batch(flat, front, ref, boxes=boxes)
    return improvements.reshape(k, z.shape[0]).mean(axis=1)


def _batched_cholesky(covs: np.ndarray) -> np.ndarray:
    """Cholesky of a batch of covariance matrices, with jitter retry.

    One batched factorization covers the usual case.  When it fails,
    each candidate is factorized on its own, and only a candidate that
    fails alone climbs the jitter ladder, then falls back to its
    marginal std-devs: one bad covariance never costs the others their
    exact factor or their cross-objective correlation.

    The jitter is *scale-relative*: an absolute 1e-10 floor is a no-op
    against covariances of magnitude 1e6+ (it vanishes in float64
    rounding), so the retry ladder starts at ``1e-10 × mean diagonal``
    (over the batch) and multiplies by 10 per attempt.  The caller
    rejects non-finite covariances.
    """
    m = covs.shape[1]
    eye = np.eye(m)
    try:  # the ladder's zero-jitter rung, for the whole batch at once
        return np.linalg.cholesky(covs + 0.0 * eye[None, :, :])
    except np.linalg.LinAlgError:
        pass
    diag = covs[:, np.arange(m), np.arange(m)]
    mean_diag = float(np.mean(np.clip(diag, 0.0, None)))
    scale = mean_diag if mean_diag > 0.0 else 1.0
    out = np.zeros_like(covs)
    for i, cov in enumerate(covs):
        jitter = 0.0
        for _ in range(6):
            try:
                out[i] = np.linalg.cholesky(cov + jitter * eye)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-10 * scale)
        else:
            # Last resort: this candidate's marginal std-devs only.
            out[i, np.arange(m), np.arange(m)] = np.sqrt(
                np.clip(diag[i], 0.0, None)
            )
    return out


# ----------------------------------------------------------------------
# multi-fidelity penalty (Eq. (10))
# ----------------------------------------------------------------------


def penalized_eipv(
    eipv_values: np.ndarray, t_impl: float, t_fidelity: float
) -> np.ndarray:
    """PEIPV_i = EIPV_i × T_impl / T_i (Eq. (10)).

    Rewards cheaper fidelities: the same expected hypervolume gain is
    worth more when it costs a fraction of a full implementation run.
    """
    if t_fidelity <= 0 or t_impl <= 0:
        raise ValueError("stage times must be positive")
    return np.asarray(eipv_values, dtype=float) * (t_impl / t_fidelity)
