"""Kriging-believer fantasies: the q-point side of PEIPV.

The optimizer picks the (configuration, fidelity) pair maximizing
cost-penalized EIPV.  To keep proposing while earlier picks are still
being evaluated, the BO loop (:mod:`repro.core.batch.async_engine`)
pretends each pending candidate's outcome is already known — the
surrogate stack's posterior mean at every fidelity level up to the
chosen one (the Kriging believer) — conditions the stack on those
fantasy observations (``fit(..., optimize=False, ephemeral=True)``:
pure linear algebra, hyperparameters untouched, so the warm-start
trajectory is unaffected), and extends the working Pareto front with
the fantasy points so the next pick's EIPV decomposition
(:func:`repro.core.pareto.dominated_boxes`) sees the pending
candidates' believed contribution.  Greedy qPEIPV is that loop with a
round barrier.

Believer values at every level an evaluation would fill come from
**one** stacked :meth:`predict_levels` sweep per pick
(:func:`believer_fantasies`) instead of a per-level ``predict`` loop —
the chain re-derives each lower level exactly once, bitwise identical
to the per-level calls (the stacks' documented contract), and the
sweep's solve flops land in the ``fantasy_*`` buckets.
"""

from __future__ import annotations

import numpy as np

from repro.hlsim.reports import ALL_FIDELITIES, Fidelity

__all__ = ["believer_fantasies"]


def believer_fantasies(
    opt, index: int, fidelity: Fidelity
) -> tuple[np.ndarray, dict[Fidelity, np.ndarray]]:
    """Believer means at the chosen fidelity and every level it fills.

    Evaluating ``index`` up to ``fidelity`` adds reports at every level
    the configuration is missing up to that fidelity (nested report
    sets), so the believer mirrors that: posterior means at each such
    level, predicted with the stack as currently conditioned.  All
    levels come from a single bottom-up :meth:`predict_levels` sweep
    (bitwise identical to per-level ``predict`` calls, each chain level
    computed exactly once).
    """
    x = opt.space.features[index : index + 1]
    missing = [
        level
        for level in ALL_FIDELITIES
        if level <= fidelity and not opt._data[level].contains(index)
    ]
    wanted = sorted({int(level) for level in missing} | {int(fidelity)})
    predictions = opt._stack.predict_levels(wanted, x)
    fantasy = np.asarray(predictions[int(fidelity)][0][0], dtype=float)
    fantasy_levels = {
        level: np.asarray(predictions[int(level)][0][0], dtype=float)
        for level in missing
    }
    return fantasy, fantasy_levels


def _fantasized_datasets(opt, fantasy_X, fantasy_Y):
    """Real observations plus every fantasy recorded so far, per level."""
    datasets = []
    for level in ALL_FIDELITIES:
        data = opt._data[level]
        parts_X = []
        parts_Y = []
        if data.indices:
            parts_X.append(opt.space.features[data.indices])
            parts_Y.append(data.matrix())
        if fantasy_X[level]:
            parts_X.append(np.vstack(fantasy_X[level]))
            parts_Y.append(np.vstack(fantasy_Y[level]))
        X = np.vstack(parts_X) if parts_X else opt.space.features[:0]
        Y = np.vstack(parts_Y) if parts_Y else np.empty((0, 3))
        datasets.append((X, Y))
    return datasets
